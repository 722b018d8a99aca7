"""Simulated communicator charging exchanges on the executor clock.

Plays the role MPI plays under ``gko::experimental::distributed``: every
collective or halo exchange the distributed objects perform goes through
a :class:`Communicator`, which

* advances the executor's simulated clock by the modeled network time
  (:mod:`repro.perfmodel.comm`) under the ``comm`` trace category,
* wraps each exchange in a profiler span so ``pg.profile()`` attributes
  communication separately from kernels, and
* counts exchanges and bytes for tests and benchmark reports.

Numerics never flow through here — the simulated ranks share one address
space, so reductions are evaluated once in global element order (which is
what pins distributed residual histories bit-identical to single-rank
solves; see DESIGN.md) and only the *cost* of the exchange is charged.
With a single rank every operation is free: no communication happens.

The communicator is also the distributed fault boundary.  When the
executor is a :class:`~repro.ginkgo.fault.FaultyExecutor`, every
collective consults its injector at the ``rank``, ``allreduce`` and
``halo`` sites (see :mod:`repro.ginkgo.fault`): rank failures raise
:class:`RankFailure`, dropped halos raise :class:`CommunicationError`,
corruption poisons the reduced payload in place, and stragglers / late
messages charge extra simulated time under the ``fault`` trace category.

Non-blocking exchanges (:meth:`Communicator.iallreduce`,
:meth:`Communicator.ihalo_exchange`) return :class:`InflightExchange`
handles wrapping a :class:`~repro.perfmodel.comm.CommRequest`: compute
recorded while the handle is outstanding hides the transfer, and
``wait()`` charges only the uncovered remainder.  Fault injection moves
to wait time — exactly where MPI surfaces errors on non-blocking
requests — so the same ``rank``/``allreduce``/``halo`` sites and kinds
apply unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import (
    CommunicationError,
    GinkgoError,
    RankFailure,
    StateCorrupted,
)
from repro.ginkgo.fault import injector_of
from repro.perfmodel.comm import (
    DEFAULT_NETWORK,
    CommRequest,
    NetworkSpec,
    allreduce_time,
    halo_exchange_time,
)


class InflightExchange:
    """Handle of one posted non-blocking exchange (allreduce or halo).

    Thin fault-aware wrapper over :class:`CommRequest`: :meth:`wait`
    consults the injector (rank failures, corruption, stragglers, halo
    drop/duplicate/late) *at completion time*, charges the exposed
    remainder of the transfer under the ``comm`` category inside a
    ``comm_op`` span, and folds the hidden/exposed split into the
    communicator's accounting.  Trivial exchanges (single rank, no
    messages) are free, uncounted, and already complete.
    """

    def __init__(
        self,
        comm: "Communicator",
        kind: str,
        nbytes: int,
        label: str,
        seconds: float = 0.0,
        num_messages: int = 0,
        payload=None,
        trivial: bool = False,
    ) -> None:
        self._comm = comm
        self._kind = kind
        self._nbytes = int(nbytes)
        self._label = label
        self._messages = int(num_messages)
        self._payload = payload
        self._trivial = trivial
        self._done = trivial
        meta = {"bytes": int(nbytes), "ranks": comm.num_ranks}
        if kind == "halo":
            meta["messages"] = int(num_messages)
        self._request = CommRequest(
            comm.executor.clock, 0.0 if trivial else seconds, label, **meta
        )
        if not trivial:
            comm._inflight.append(self)

    @property
    def done(self) -> bool:
        """Whether the exchange has completed (waited on, or trivial)."""
        return self._done

    @property
    def seconds(self) -> float:
        """Modeled blocking duration of the exchange."""
        return self._request.seconds

    @property
    def hidden(self) -> float:
        """Transfer seconds covered by overlapped compute (post-wait)."""
        return self._request.hidden

    @property
    def exposed(self) -> float:
        """Transfer seconds charged to the timeline (post-wait)."""
        return self._request.exposed

    def progress(self) -> float:
        """Completed fraction of the transfer at the current clock time."""
        return self._request.progress()

    def wait(self) -> float:
        """Complete the exchange; returns the exposed (charged) seconds.

        Wait-time fault semantics mirror the blocking collectives: rank
        failures raise :class:`RankFailure`; a dropped halo raises
        :class:`CommunicationError` without completing (nothing charged —
        the replay retransmits); corruption poisons the payload after the
        charge; stragglers / late deliveries add ``fault``-category time.
        Idempotent once completed.
        """
        if self._done:
            return self._request.exposed
        self._done = True
        comm = self._comm
        if self in comm._inflight:
            comm._inflight.remove(self)
        comm._check_rank_failure(self._label)
        injector = injector_of(comm.executor)
        fault = (
            injector.decide(self._kind, detail=self._label)
            if injector is not None
            else None
        )
        if self._kind == "halo" and fault is not None and fault.kind == "drop":
            comm._announce(fault)
            raise CommunicationError(
                f"halo exchange {self._label!r} dropped "
                f"({self._messages} messages, {self._nbytes} bytes)"
            )
        clock = comm.executor.clock
        clock.push_span(self._label, "comm_op", ranks=comm.num_ranks)
        try:
            exposed = self._request.wait()
        finally:
            clock.pop_span()
        comm.comm_seconds += self._request.seconds
        comm.comm_hidden_seconds += self._request.hidden
        if self._kind == "allreduce":
            comm.num_all_reduces += 1
            comm.bytes_all_reduced += self._nbytes
        else:
            comm.num_halo_exchanges += 1
            comm.bytes_halo_exchanged += self._nbytes
        if fault is not None:
            comm._announce(fault)
            if fault.kind == "straggler":
                comm._extra_delay(injector.stall_seconds, "straggler_delay")
            elif fault.kind == "corruption":
                comm._poison(injector, fault, self._payload)
            elif fault.kind == "duplicate":
                # The retransmitted copy pays the full exchange again.
                comm._extra_delay(self._request.seconds, "halo_duplicate")
                comm.num_halo_exchanges += 1
                comm.bytes_halo_exchanged += self._nbytes
            else:  # late
                comm._extra_delay(injector.stall_seconds, "halo_late")
        return exposed

    def __repr__(self) -> str:
        state = "done" if self._done else f"{self.progress():.0%} in flight"
        return (
            f"InflightExchange({self._kind}, {self._label!r}, "
            f"bytes={self._nbytes}, {state})"
        )


class Communicator:
    """Charges simulated communication for ``num_ranks`` ranks.

    Args:
        exec_: Executor whose clock receives the comm charges.
        num_ranks: Number of simulated ranks.
        network: Interconnect model (defaults to the intra-node fabric).
    """

    def __init__(
        self, exec_, num_ranks: int, network: NetworkSpec = DEFAULT_NETWORK
    ) -> None:
        if num_ranks < 1:
            raise GinkgoError(f"num_ranks must be >= 1, got {num_ranks}")
        self._exec = exec_
        self.num_ranks = int(num_ranks)
        self.network = network
        #: Number of all_reduce collectives charged.
        self.num_all_reduces = 0
        #: Payload bytes moved by all_reduce collectives.
        self.bytes_all_reduced = 0
        #: Number of halo exchanges charged.
        self.num_halo_exchanges = 0
        #: Payload bytes moved by halo exchanges.
        self.bytes_halo_exchanged = 0
        #: Number of ranks dropped by :meth:`shrink` since construction.
        self.num_shrinks = 0
        #: Total modeled communication seconds (hidden + exposed).
        self.comm_seconds = 0.0
        #: Communication seconds covered by overlapped compute.
        self.comm_hidden_seconds = 0.0
        #: Non-blocking exchanges posted (counted at post time).
        self.num_posted = 0
        #: Posted-but-unwaited exchange handles, in post order.
        self._inflight: list = []
        #: Armed by a checkpoint/replay driver for the span of its loop:
        #: a NaN-corrupted reduction then raises instead of flowing on
        #: into the iteration (where it would end as a breakdown).
        self.detect_corruption = False
        #: ``{(price, *args): seconds}`` at this rank count (:meth:`_time`).
        self._times: dict = {}

    @property
    def executor(self):
        return self._exec

    def _time(self, price, *args) -> float:
        """Modeled seconds ``price(*args, self.network)``, priced once
        (the network is fixed; :meth:`shrink` drops the entries of the
        old rank count)."""
        key = (price, *args)
        seconds = self._times.get(key)
        if seconds is None:
            seconds = self._times[key] = price(*args, self.network)
        return seconds

    # ------------------------------------------------------------------
    # fault boundary
    # ------------------------------------------------------------------
    def _announce(self, fault, **extra) -> None:
        self._exec._log(
            "fault_injected",
            site=fault.site,
            kind=fault.kind,
            index=fault.index,
            call=fault.call,
            detail=fault.detail,
            **extra,
        )

    def _check_rank_failure(self, label: str) -> None:
        """Consult the ``rank`` fault site; raise RankFailure on a hit.

        Models ULFM semantics: a dead rank is *detected* at the next
        collective, which raises for every survivor.
        """
        injector = injector_of(self._exec)
        if injector is None:
            return
        fault = injector.decide("rank", detail=label)
        if fault is not None:
            victim = injector.choose(self.num_ranks)
            self._announce(fault, rank=victim)
            raise RankFailure(victim, op=label)

    def _poison(self, injector, fault, payload) -> None:
        """Land an ``allreduce`` corruption fault in the reduced payload.

        This is where the all-reduce result is produced, so it is also
        where corruption is detected: with :attr:`detect_corruption`
        armed, a result the fault turned non-finite raises
        :class:`StateCorrupted`.  Only NaN-mode corruption is detectable
        this way; a finite bit flip passes through silently, exactly
        like real silent data corruption (see DESIGN.md).
        """
        if payload is None:
            return
        poisoned = injector.corrupt(np.asarray(payload))
        self._exec._log(
            "data_corrupted", index=fault.index, flat_index=poisoned
        )
        if self.detect_corruption and not np.all(np.isfinite(payload)):
            raise StateCorrupted(f"all-reduce payload corrupted ({fault.detail})")

    def _extra_delay(self, seconds: float, label: str) -> None:
        """Charge injected extra time under the ``fault`` trace category."""
        self._exec.clock.advance(
            seconds, category="fault", label=label, ranks=self.num_ranks
        )

    def all_reduce(
        self, nbytes: int, label: str = "all_reduce", payload=None
    ) -> float:
        """Charge one all-reduce of an ``nbytes`` payload; returns its time.

        Free (and uncounted) with a single rank, like a real MPI
        all-reduce over a self-communicator.  When ``payload`` (the
        reduced ndarray) is passed and the executor injects faults, an
        ``allreduce`` corruption fault poisons it in place — exactly how
        a flipped bit on the wire lands in every rank's result.
        """
        if self.num_ranks == 1:
            return 0.0
        self._check_rank_failure(label)
        injector = injector_of(self._exec)
        fault = (
            injector.decide("allreduce", detail=label)
            if injector is not None
            else None
        )
        seconds = self._time(allreduce_time, nbytes, self.num_ranks)
        clock = self._exec.clock
        clock.push_span(label, "comm_op", ranks=self.num_ranks)
        try:
            clock.advance(
                seconds,
                category="comm",
                label=label,
                bytes=int(nbytes),
                ranks=self.num_ranks,
            )
        finally:
            clock.pop_span()
        self.num_all_reduces += 1
        self.bytes_all_reduced += int(nbytes)
        self.comm_seconds += seconds
        if fault is not None:
            if fault.kind == "straggler":
                self._announce(fault)
                self._extra_delay(injector.stall_seconds, "straggler_delay")
            else:  # corruption
                self._announce(fault)
                self._poison(injector, fault, payload)
        return seconds

    def halo_exchange(
        self,
        nbytes: int,
        num_messages: int,
        label: str = "halo_exchange",
    ) -> float:
        """Charge one halo exchange of ``num_messages`` messages.

        Free (and uncounted) with a single rank or no messages.  Under
        fault injection the ``halo`` site can drop the exchange (raises
        :class:`CommunicationError` — the replay recovery retransmits),
        duplicate it (the exchange is charged twice), or deliver it late
        (extra simulated delay under the ``fault`` category).
        """
        if self.num_ranks == 1 or num_messages == 0:
            return 0.0
        self._check_rank_failure(label)
        injector = injector_of(self._exec)
        fault = (
            injector.decide("halo", detail=label)
            if injector is not None
            else None
        )
        if fault is not None and fault.kind == "drop":
            self._announce(fault)
            raise CommunicationError(
                f"halo exchange {label!r} dropped "
                f"({num_messages} messages, {int(nbytes)} bytes)"
            )
        seconds = self._time(halo_exchange_time, nbytes, num_messages)
        clock = self._exec.clock
        clock.push_span(label, "comm_op", ranks=self.num_ranks)
        try:
            clock.advance(
                seconds,
                category="comm",
                label=label,
                bytes=int(nbytes),
                messages=int(num_messages),
                ranks=self.num_ranks,
            )
        finally:
            clock.pop_span()
        self.num_halo_exchanges += 1
        self.bytes_halo_exchanged += int(nbytes)
        self.comm_seconds += seconds
        if fault is not None:
            self._announce(fault)
            if fault.kind == "duplicate":
                # The retransmitted copy pays the full exchange again.
                self._extra_delay(seconds, "halo_duplicate")
                self.num_halo_exchanges += 1
                self.bytes_halo_exchanged += int(nbytes)
            else:  # late
                self._extra_delay(injector.stall_seconds, "halo_late")
        return seconds

    # ------------------------------------------------------------------
    # non-blocking exchanges
    # ------------------------------------------------------------------
    @property
    def num_inflight(self) -> int:
        """Posted exchanges not yet waited on."""
        return len(self._inflight)

    def iallreduce(
        self, nbytes: int, label: str = "iallreduce", payload=None
    ) -> InflightExchange:
        """Post a non-blocking all-reduce; returns its wait handle.

        Nothing is charged at post time: compute recorded before
        ``wait()`` hides the transfer, and the wait charges only the
        uncovered remainder (see :class:`InflightExchange`).  Free,
        uncounted, and immediately complete with a single rank.
        """
        if nbytes < 0:
            raise GinkgoError(
                f"payload size must be non-negative, got {nbytes}"
            )
        if self.num_ranks == 1:
            return InflightExchange(
                self, "allreduce", nbytes, label, trivial=True
            )
        self.num_posted += 1
        return InflightExchange(
            self,
            "allreduce",
            nbytes,
            label,
            seconds=self._time(allreduce_time, nbytes, self.num_ranks),
            payload=payload,
        )

    def ihalo_exchange(
        self,
        nbytes: int,
        num_messages: int,
        label: str = "ihalo_exchange",
    ) -> InflightExchange:
        """Post a non-blocking halo exchange; returns its wait handle.

        Free, uncounted, and immediately complete with a single rank or
        zero messages, like the blocking variant.
        """
        if nbytes < 0:
            raise GinkgoError(
                f"payload size must be non-negative, got {nbytes}"
            )
        if self.num_ranks == 1 or num_messages == 0:
            return InflightExchange(
                self, "halo", nbytes, label, trivial=True
            )
        self.num_posted += 1
        return InflightExchange(
            self,
            "halo",
            nbytes,
            label,
            seconds=self._time(halo_exchange_time, nbytes, num_messages),
            num_messages=num_messages,
        )

    def shrink(self, failed_rank: int) -> int:
        """Drop one failed rank; returns the surviving rank count.

        Mirrors ULFM's ``MPIX_Comm_shrink``: collectives charged after
        this run over one fewer rank.  The caller is responsible for
        repartitioning the operands (see ``Partition.shrink``).
        """
        if not 0 <= failed_rank < self.num_ranks:
            raise GinkgoError(
                f"rank {failed_rank} out of range for {self.num_ranks} ranks"
            )
        if self.num_ranks == 1:
            raise GinkgoError("cannot shrink a single-rank communicator")
        self.num_ranks -= 1
        self.num_shrinks += 1
        self._times.clear()
        return self.num_ranks

    def reset_counters(self) -> None:
        """Zero the exchange/byte counters (charged time is not undone).

        Also resets the non-blocking accounting — hidden/total comm
        seconds, the posted count, and any stale in-flight handles — so
        baseline comparisons (e.g. against ``sequential_ranks()``) start
        from a clean slate.
        """
        self.num_all_reduces = 0
        self.bytes_all_reduced = 0
        self.num_halo_exchanges = 0
        self.bytes_halo_exchanged = 0
        self.comm_seconds = 0.0
        self.comm_hidden_seconds = 0.0
        self.num_posted = 0
        self._inflight.clear()

    def __repr__(self) -> str:
        return (
            f"Communicator(ranks={self.num_ranks}, "
            f"network={self.network.name}, "
            f"all_reduces={self.num_all_reduces}, "
            f"halo_exchanges={self.num_halo_exchanges})"
        )
