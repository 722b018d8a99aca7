"""The Krylov core: each method's recurrence, written once.

A :class:`Recurrence` carries its state explicitly — the vectors and
scalars named in :attr:`Recurrence.vectors` / :attr:`Recurrence.scalars`
— and advances it with :meth:`Recurrence.step`.  The arithmetic is
written against the recurrence vector protocol, implemented once by
:class:`~repro.ginkgo.krylov_vector.KrylovVector` for ``Dense``,
``distributed.Vector`` and the batched active head: ``compute_dot``,
``compute_norm2``, ``scale``, ``add_scaled``, ``sub_scaled``,
``copy_values_from``, ``fill``, ``elementwise`` (run ``op(lo, hi,
*coefficients)`` as one fused streaming kernel over the vector's
extent), ``all_reduce`` and the bound forms ``bind_dot``,
``bind_norm2``, ``bind_elementwise``.  Each vector type adds
``scratch(ws, name, copy=False)``: a pooled work vector of the same type
and shape, held in the solver's one :class:`Workspace`.

``__init__`` binds what ``step`` runs once per solve — operator applies
(``LinOp.bind``), dots, norms and fused kernels, costs resolved — so a
step is NumPy calls plus one ``exec_.run`` per kernel.

All ten methods are recurrences: CG, FCG, BiCG, CGS, BiCGSTAB and IR
step one iteration, MINRES one Lanczos/QR update, GMRES and CB-GMRES
one inner iteration of their restart cycle, IDR(s) one cycle.  A
:attr:`Recurrence.single_rhs` recurrence solves one column; the solver
splits multi-column solves.  Scalar, distributed and batched solves are
three *instances* of one recurrence (:attr:`Recurrence.instances`
declares which), bit-identical by construction; everything that is not
arithmetic is a driver *around* ``step``: :func:`iterate` (plain), the
checkpoint/replay driver (:mod:`repro.ginkgo.solver.recovery`), the
batched active-set compaction.  A step that meets an exact breakdown
(zero pivot, singular projection) reports the finite residual it reached
with ``monitor(..., breakdown=True)`` and stops; a step that finds ``x``
exact at an iteration already reported stops with
``monitor(..., exact=True)``.
"""

from __future__ import annotations

import numpy as np


def safe_divide(num, den):
    """Elementwise num/den with 0 where den == 0 (breakdown guard)."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    if num.shape == den.shape == (1,):
        # One column: the plain divide is bitwise the masked one.
        return num / den if den[0] != 0 else np.zeros(1)
    if den.all():
        # No zero to guard: again bitwise the masked divide.
        return num / den
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


class Recurrence:
    """One Krylov method: carried state plus a single ``step``.

    Args:
        A: System operator (``apply`` / ``apply_advanced``).
        M: Preconditioner operator.
        b: Right-hand side.
        x: Solution / initial guess, updated in place.
        r: Initial residual ``b - A x`` (owned by the recurrence from
            here on).
        ws: The solver's :class:`Workspace`; all scratch comes from it.
        monitor: ``monitor(iteration, residual_norm, breakdown=False,
            exact=False) -> bool``; called once per iteration, True means
            stop (per system, as a mask, when batched).  ``breakdown=True``
            reports an exact breakdown and always stops.  ``exact=True``
            says ``x`` is exact at ``iteration``, which was already
            reported: the stop is recorded, the iteration not logged
            again.
    """

    #: Attribute names of the vectors carried across steps — what a
    #: checkpoint must save and an active-set compaction must gather.
    vectors: tuple = ()
    #: Attribute names of the carried scalars: per-column coefficient
    #: arrays (None before their first assignment; plain numbers in a
    #: single-RHS recurrence, which a batched compaction leaves as they
    #: are), rebound every step and never mutated in place.
    scalars: tuple = ()
    #: Attribute names of host arrays carried within a restart cycle, each
    #: with a leading systems axis — what a checkpoint must also save and
    #: a compaction also gather where :attr:`at_restart` does not hold.
    cycle: tuple = ()
    #: Solver parameters the constructor accepts as keywords.
    parameters: tuple = ()
    #: Whether one instance solves exactly one right-hand-side column.
    single_rhs: bool = False
    #: The instances whose vector types this code runs on: ``"scalar"``
    #: (``Dense``), ``"batch"`` (the batched active head) and
    #: ``"distributed"`` (``distributed.Vector``).  Each declared
    #: instance gets its solver and factory classes, binding symbols,
    #: ``pg`` function and service route from the method table
    #: (:data:`repro.ginkgo.solver.METHODS`).
    instances: tuple = ("scalar",)
    #: Whether the carried state is just ``vectors`` and ``scalars``:
    #: after every step of a one-iteration method, between the cycles of
    #: a restarted one.
    at_restart: bool = True

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        self.A = A
        self.M = M
        self.b = b
        self.x = x
        self.r = r
        self.ws = ws
        self.monitor = monitor

    def written(self, name: str):
        """Index of the part of cycle array ``name`` written so far."""
        return ...

    def step(self, iteration: int) -> tuple:
        """Advance from ``iteration`` completed iterations.

        Returns ``(iteration, stopped)``: the new completed count and
        whether the monitor asked to stop.  A step that raises leaves
        the carried state replayable from its last checkpoint.
        """
        raise NotImplementedError


def iterate(recurrence: Recurrence) -> None:
    """The plain driver: step until the monitor says stop."""
    iteration, stopped = 0, False
    while not stopped:
        iteration, stopped = recurrence.step(iteration)
