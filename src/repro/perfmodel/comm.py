"""Simulated network model for the distributed subsystem.

Ginkgo's ``gko::experimental::distributed`` module runs on MPI; this
reproduction simulates the communication layer the same way it simulates
device kernels: numerics are computed for real (in one address space),
while every exchange charges a modeled latency/bandwidth cost on the
executor's :class:`~repro.perfmodel.clock.SimClock` under the ``comm``
category.

The model is the classic alpha-beta (Hockney) one:

    time(message) = alpha + nbytes / beta

with an intra-node interconnect as the default (the environment has no
real network, just as it has no real A100).  Collectives follow the
standard tree/butterfly schedules:

* ``all_reduce`` — ``ceil(log2 K)`` rounds of a (latency + payload) step,
  the recursive-doubling schedule MPI implementations use for the small
  payloads Krylov dot products produce;
* halo exchanges — per-neighbour point-to-point messages whose payloads
  overlap, so the cost is one latency per message plus the aggregate
  payload over the link bandwidth.

Non-blocking exchanges
----------------------
:class:`CommRequest` models MPI's ``Isend``/``Irecv``/``Iallreduce``
handles on the :class:`~repro.perfmodel.clock.SimClock`: posting records
the clock position, any simulated time that elapses before :meth:`wait`
(rank-local kernels, other exchanges) progresses the transfer for free,
and the wait charges only the *uncovered* remainder under the ``comm``
category.  The total timeline cost of an overlapped exchange is therefore
``max(comm_time, overlapped_compute_time)`` — Ginkgo's distributed SpMV
schedule, where the local block multiplies while the halo is on the wire.
The covered portion is surfaced as a ``comm_hidden`` trace annotation so
attribution can report how much communication the compute hid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkSpec:
    """Latency/bandwidth description of the simulated interconnect.

    Attributes:
        name: Human-readable interconnect name.
        latency: Per-message one-way latency in seconds (alpha).
        bandwidth: Link bandwidth in bytes/second (beta).
    """

    name: str
    latency: float
    bandwidth: float

    def message_time(self, nbytes: float) -> float:
        """Alpha-beta time of one point-to-point message."""
        return self.latency + float(nbytes) / self.bandwidth


#: Shared-memory transport between ranks on one node (the default: the
#: simulated ranks are partitions of one address space).
INTRA_NODE = NetworkSpec(name="intra_node", latency=0.4e-6, bandwidth=40e9)

#: 100 Gb/s-class fabric between nodes (for what-if experiments).
INFINIBAND_HDR = NetworkSpec(name="infiniband_hdr", latency=1.2e-6, bandwidth=12.5e9)

#: Commodity-cluster Ethernet (10GbE through the TCP stack): the
#: high-latency regime where collectives dominate Krylov solves and
#: overlap/pipelining pay off (bench_overlap).
ETHERNET_CLUSTER = NetworkSpec(
    name="ethernet_cluster", latency=80e-6, bandwidth=1.25e9
)

#: Network used when callers do not pass one explicitly.
DEFAULT_NETWORK = INTRA_NODE


def p2p_time(nbytes: float, network: NetworkSpec = DEFAULT_NETWORK) -> float:
    """Time of one point-to-point message of ``nbytes``."""
    if nbytes < 0:
        raise ValueError(f"message size must be non-negative, got {nbytes}")
    return network.message_time(nbytes)


def allreduce_time(
    nbytes: float, num_ranks: int, network: NetworkSpec = DEFAULT_NETWORK
) -> float:
    """Time of one all-reduce of an ``nbytes`` payload over ``num_ranks``.

    Recursive doubling: ``ceil(log2 K)`` rounds, each moving the full
    (small) payload.  Zero for a single rank — no communication happens.
    """
    if nbytes < 0:
        raise ValueError(f"payload size must be non-negative, got {nbytes}")
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
    if num_ranks == 1:
        return 0.0
    rounds = math.ceil(math.log2(num_ranks))
    return rounds * network.message_time(nbytes)


def halo_exchange_time(
    nbytes: float, num_messages: int, network: NetworkSpec = DEFAULT_NETWORK
) -> float:
    """Time of one halo exchange: ``num_messages`` concurrent messages.

    Neighbour exchanges overlap on the fabric, so the model charges one
    latency per message (they are issued back to back from the host) plus
    the aggregate payload once through the link bandwidth.
    """
    if nbytes < 0:
        raise ValueError(f"payload size must be non-negative, got {nbytes}")
    if num_messages < 0:
        raise ValueError(f"num_messages must be >= 0, got {num_messages}")
    if num_messages == 0:
        return 0.0
    return num_messages * network.latency + float(nbytes) / network.bandwidth


class CommRequest:
    """One in-flight non-blocking exchange posted on a :class:`SimClock`.

    Posting snapshots the clock; compute recorded between post and
    :meth:`wait` progresses the transfer for free, so the wait charges
    only ``max(0, seconds - elapsed)`` under the ``comm`` category.  The
    net timeline cost is ``max(comm_time, overlapped_compute_time)``.
    Concurrent requests each progress against the same elapsed window —
    transfers genuinely share the wire with each other and with compute.

    Args:
        clock: The simulated clock the exchange lives on.
        seconds: Modeled blocking duration of the exchange.
        label: Event name charged at wait time and used in annotations.
        **meta: Extra scalar metadata recorded on the wait's trace event.
    """

    def __init__(self, clock, seconds: float, label: str, **meta) -> None:
        if seconds < 0:
            raise ValueError(
                f"exchange duration must be non-negative, got {seconds}"
            )
        self._clock = clock
        self.seconds = float(seconds)
        self.label = label
        self._meta = meta
        self.posted_at = clock.now
        #: Whether :meth:`wait` has completed the request.
        self.done = False
        #: Seconds of the transfer covered by overlapped compute (set at
        #: wait time).
        self.hidden = 0.0
        #: Seconds charged to the timeline at wait time.
        self.exposed = 0.0

    @property
    def elapsed(self) -> float:
        """Simulated seconds since the request was posted."""
        return self._clock.now - self.posted_at

    def progress(self) -> float:
        """Completed fraction of the transfer at the current clock time."""
        if self.done or self.seconds <= 0.0:
            return 1.0
        return min(1.0, self.elapsed / self.seconds)

    def wait(self) -> float:
        """Complete the request; returns the exposed (charged) seconds.

        Idempotent: a second wait returns the already-charged remainder
        without advancing the clock again (like ``MPI_Wait`` on an
        inactive request).
        """
        if self.done:
            return self.exposed
        self.done = True
        self.hidden = min(self.seconds, max(0.0, self.elapsed))
        self.exposed = self.seconds - self.hidden
        if self.exposed > 0.0:
            self._clock.advance(
                self.exposed, category="comm", label=self.label, **self._meta
            )
        if self.hidden > 0.0:
            self._clock.annotate(
                "comm_hidden",
                label=self.label,
                hidden=self.hidden,
                exposed=self.exposed,
                **self._meta,
            )
        return self.exposed
