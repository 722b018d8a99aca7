"""Row partitions over simulated ranks (``gko::experimental::distributed::Partition``).

A :class:`Partition` assigns every global row index to exactly one of
``K`` simulated ranks as a contiguous ``[begin, end)`` range — the
row-block decomposition Ginkgo's distributed matrices use.  Partitions
are pure host-side structure: they carry no executor, no data, and no
simulated cost; distributed matrices and vectors are built *on* one.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import BadDimension, GinkgoError


class Partition:
    """Contiguous row ranges over ``K`` simulated ranks.

    Construct with :meth:`build_uniform` (equal ranges),
    :meth:`build_from_weights` (load-balanced ranges), or directly from
    an explicit list of ``(begin, end)`` ranges covering
    ``[0, global_size)`` in order without gaps.
    """

    def __init__(self, global_size: int, ranges) -> None:
        global_size = int(global_size)
        if global_size < 0:
            raise BadDimension(
                f"partition global size must be >= 0, got {global_size}"
            )
        ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        if not ranges:
            raise GinkgoError("a partition needs at least one rank")
        cursor = 0
        for rank, (lo, hi) in enumerate(ranges):
            if lo != cursor or hi < lo:
                raise GinkgoError(
                    f"rank {rank} range [{lo}, {hi}) does not tile "
                    f"[0, {global_size}) contiguously (expected begin "
                    f"{cursor})"
                )
            cursor = hi
        if cursor != global_size:
            raise GinkgoError(
                f"partition ranges cover [0, {cursor}) but global size "
                f"is {global_size}"
            )
        self._global_size = global_size
        self._ranges = tuple(ranges)
        self._sizes = tuple(hi - lo for lo, hi in ranges)
        #: Range begins plus the final end, for O(log K) row->rank lookup.
        self._offsets = np.array(
            [lo for lo, _ in ranges] + [global_size], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def build_uniform(cls, global_size: int, num_ranks: int) -> "Partition":
        """Split ``global_size`` rows into ``num_ranks`` near-equal ranges."""
        global_size = int(global_size)
        num_ranks = int(num_ranks)
        if num_ranks < 1:
            raise GinkgoError(f"num_ranks must be >= 1, got {num_ranks}")
        base, extra = divmod(global_size, num_ranks)
        ranges = []
        cursor = 0
        for rank in range(num_ranks):
            count = base + (1 if rank < extra else 0)
            ranges.append((cursor, cursor + count))
            cursor += count
        return cls(global_size, ranges)

    @classmethod
    def build_from_weights(cls, weights, num_ranks: int) -> "Partition":
        """Contiguous ranges balancing cumulative per-row ``weights``.

        Cuts at equal cumulative weight, the schedule OpenMP's static
        load-balanced CSR kernels use (e.g. pass nonzeros per row so every
        rank owns a similar share of the SpMV work).
        """
        weights = np.asarray(weights, dtype=np.float64)
        num_ranks = int(num_ranks)
        if num_ranks < 1:
            raise GinkgoError(f"num_ranks must be >= 1, got {num_ranks}")
        count = len(weights)
        if num_ranks >= count or count == 0:
            return cls.build_uniform(count, num_ranks)
        cumulative = np.cumsum(weights)
        targets = cumulative[-1] * np.arange(1, num_ranks) / num_ranks
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        cuts = np.maximum(cuts, np.arange(1, num_ranks))
        cuts = np.minimum(cuts, count - num_ranks + np.arange(1, num_ranks))
        cuts = np.maximum.accumulate(cuts)
        bounds = [0, *cuts.tolist(), count]
        return cls(
            count, [(bounds[i], bounds[i + 1]) for i in range(num_ranks)]
        )

    # ------------------------------------------------------------------
    # properties and queries
    # ------------------------------------------------------------------
    @property
    def global_size(self) -> int:
        """Total number of partitioned rows."""
        return self._global_size

    @property
    def num_ranks(self) -> int:
        return len(self._ranges)

    @property
    def ranges(self) -> tuple:
        """All ``(begin, end)`` ranges, indexed by rank."""
        return self._ranges

    def range_of(self, rank: int) -> tuple:
        """The ``(begin, end)`` row range owned by ``rank``."""
        if not 0 <= rank < self.num_ranks:
            raise IndexError(
                f"rank {rank} out of range for {self.num_ranks} ranks"
            )
        return self._ranges[rank]

    @property
    def sizes(self) -> tuple:
        """Rows per rank, indexed by rank."""
        return self._sizes

    def owner_of(self, row) -> np.ndarray | int:
        """Rank(s) owning the given global row index (or index array)."""
        rows = np.asarray(row)
        if np.any(rows < 0) or np.any(rows >= self._global_size):
            raise IndexError(
                f"row index out of range [0, {self._global_size})"
            )
        # side="right" resolves ties at shared begin offsets (empty
        # ranks) to the last rank, whose range actually contains the row.
        owners = np.searchsorted(self._offsets, rows, side="right") - 1
        owners = np.minimum(owners, self.num_ranks - 1)
        if np.ndim(row) == 0:
            return int(owners)
        return owners.astype(np.int64)

    def shrink(self, failed_rank: int) -> "Partition":
        """The partition over the survivors of ``failed_rank``'s failure.

        The failed rank's rows are merged into its predecessor (or, for
        rank 0, its successor) so the result still tiles
        ``[0, global_size)`` contiguously with one fewer rank.  This is
        the shrink-and-repartition step of rank-failure recovery; the
        global size never changes, only ownership.
        """
        if not 0 <= failed_rank < self.num_ranks:
            raise IndexError(
                f"rank {failed_rank} out of range for {self.num_ranks} ranks"
            )
        if self.num_ranks == 1:
            raise GinkgoError("cannot shrink a single-rank partition")
        ranges = list(self._ranges)
        lo, hi = ranges.pop(failed_rank)
        heir = failed_rank - 1 if failed_rank > 0 else 0
        heir_lo, heir_hi = ranges[heir]
        ranges[heir] = (min(heir_lo, lo), max(heir_hi, hi))
        return Partition(self._global_size, ranges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self._global_size == other._global_size
            and self._ranges == other._ranges
        )

    def __hash__(self) -> int:
        return hash((self._global_size, self._ranges))

    def __len__(self) -> int:
        return self.num_ranks

    def __iter__(self):
        return iter(self._ranges)

    def __repr__(self) -> str:
        return (
            f"Partition(global_size={self._global_size}, "
            f"num_ranks={self.num_ranks}, sizes={list(self.sizes)})"
        )
