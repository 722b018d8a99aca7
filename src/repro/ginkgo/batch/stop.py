"""Per-system stopping records for batched solves (``gko::batch::stop``).

A batched solver advances all systems in lockstep but each system must
stop by *its own* criterion, exactly as if it were solved alone.  The
decision is the scalar one: the solver factory's criterion is generated
once per batch from ``(K, cols)`` norms and checked over the active
systems (:mod:`repro.ginkgo.stop`), so stopping decisions (and therefore
residual histories) match a sequential solve bit for bit.
:class:`BatchStatus` records what each system's stop was.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.log import ConvergenceLogger


class BatchStatus:
    """Per-system convergence record of one batched solve.

    The only per-system record a solve writes, kept in arrays as Ginkgo's
    ``batch::log::BatchConvergence`` does: a lockstep check stops systems
    with masked writes and appends its norms as one chunk; per-system
    history lists are assembled when :attr:`residual_norms` is read.
    """

    def __init__(self, num_systems: int) -> None:
        self.num_systems = int(num_systems)
        #: Last iteration each system reached.
        self.num_iterations = np.zeros(self.num_systems, dtype=np.int64)
        #: Whether each system met a convergence criterion.
        self.converged = np.zeros(self.num_systems, dtype=bool)
        #: Whether each system hit a non-finite residual.
        self.breakdown = np.zeros(self.num_systems, dtype=bool)
        #: Whether each system was stopped by its deadline.
        self.timed_out = np.zeros(self.num_systems, dtype=bool)
        #: Final residual norm per system (NaN while unset).
        self.final_residual_norm = np.full(self.num_systems, np.nan)
        self._ids: list = []
        self._values: list = []
        self._norms = None

    def record(self, ids: np.ndarray, norms: np.ndarray) -> None:
        """Append one check's norms (max over columns) of systems ``ids``."""
        self._ids.append(ids)
        self._values.append(norms)
        self._norms = None

    @property
    def residual_norms(self) -> list:
        """Residual-norm history per system (max over columns)."""
        if self._norms is None:
            ids = np.concatenate([np.zeros(0, np.int64), *self._ids])
            values = np.concatenate([np.zeros(0), *self._values])
            ends = np.cumsum(np.bincount(ids, minlength=self.num_systems))
            by_system = values[np.argsort(ids, kind="stable")]
            self._norms = [p.tolist() for p in np.split(by_system, ends[:-1])]
        return self._norms

    def stop(
        self, ids, iterations, norms, at, converged=False, breakdown=False,
        timed_out=False,
    ):
        """Record the stop of systems ``ids[at]``, one masked write per field."""
        stopped = ids[at]
        self.num_iterations[stopped] = iterations[at]
        self.final_residual_norm[stopped] = norms[at]
        self.converged[stopped] = converged
        self.breakdown[stopped] = breakdown
        self.timed_out[stopped] = timed_out

    def loggers(self) -> list:
        """One :class:`ConvergenceLogger` per system, as a scalar solve's
        (an exact-solution stop logs no norm, so it keeps the last one)."""
        loggers = []
        for record in self:
            logger = ConvergenceLogger()
            vars(logger).update(record)
            if record["residual_norms"] and not record["breakdown"]:
                logger.final_residual_norm = record["residual_norms"][-1]
            loggers.append(logger)
        return loggers

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def num_converged(self) -> int:
        return int(self.converged.sum())

    def system(self, k: int) -> dict:
        """One system's record as a plain dict."""
        return {
            "num_iterations": int(self.num_iterations[k]),
            "converged": bool(self.converged[k]),
            "breakdown": bool(self.breakdown[k]),
            "timed_out": bool(self.timed_out[k]),
            "final_residual_norm": float(self.final_residual_norm[k]),
            "residual_norms": list(self.residual_norms[k]),
        }

    # A BatchStatus is a sequence of per-system records: len() is the
    # batch size, status[k] / iteration yield the system(k) dicts.
    def __len__(self) -> int:
        return self.num_systems

    def __getitem__(self, k):
        systems = range(self.num_systems)[k]  # IndexError past either end
        if isinstance(k, slice):
            return [self.system(i) for i in systems]
        return self.system(systems)

    def __iter__(self):
        return (self.system(k) for k in range(self.num_systems))

    def __repr__(self) -> str:
        return (
            f"BatchStatus({self.num_converged}/{self.num_systems} converged, "
            f"{int(self.breakdown.sum())} breakdowns)"
        )
