"""Spans, statistics and input hashing shared by every workload.

Nothing here imports ``repro``: the span arithmetic and the percentile
rule are plain functions over numbers so the unit tests can pin them
without running a solve.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie
#: beyond it (the choosing-metrics rule).
MIN_TAIL_SAMPLES = 10

#: Layer label of time inside a request that no child span covers.
UNCOVERED = "harness"


def tail_percentile(num_samples: int) -> float:
    """Highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median when even p75 would rest on fewer than ten
    samples, so short runs report a robust number rather than a tail
    drawn from two or three requests.
    """
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        if round(num_samples * (100.0 - pct) / 100.0, 9) >= MIN_TAIL_SAMPLES:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def hash_arrays(*arrays) -> str:
    """Digest of the generated inputs (same seed <=> same digest)."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        arr = np.ascontiguousarray(array)
        digest.update(str(arr.dtype).encode())
        digest.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def hash_sparse(mat) -> tuple:
    """The arrays of a SciPy CSR matrix, for :func:`hash_arrays`."""
    csr = mat.tocsr()
    return csr.indptr, csr.indices, csr.data


def rel_err(got, want) -> float:
    """Relative 2-norm error of ``got`` against the reference ``want``."""
    want = np.asarray(want, dtype=np.float64).ravel()
    got = np.asarray(got, dtype=np.float64).ravel()
    scale = float(np.linalg.norm(want)) or 1.0
    return float(np.linalg.norm(got - want)) / scale


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: wall-clock ``start``/``end`` from ``perf_counter``.

    ``parent`` is the index of the enclosing span in the tracer's list
    (``None`` for roots); spans of one request share ``request_id``.
    """

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanContext:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer, index):
        self._tracer = tracer
        self._index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer.spans[self._index].end = time.perf_counter()
        tracer._stack.pop()
        if not tracer._stack:
            tracer.request_id = None
        return False


#: What a disabled tracer hands out (stateless, so one is shared).
_NULL = nullcontext()


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    The workloads wrap every public call they make in
    ``with tracer.span(name, layer):`` — with tracing off that is one
    attribute test and a shared no-op context manager, so the untraced
    pass runs the same code.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request_id: int | None = None

    def span(self, name: str, layer: str):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append(
            Span(name, layer, time.perf_counter(), 0.0, parent, self.request_id)
        )
        return _SpanContext(self, index)

    def request(self, request_id: int):
        """Root span of one request; children inherit ``request_id``."""
        self.request_id = request_id
        return self.span("request", UNCOVERED)

    # -- queries ---------------------------------------------------------
    def durations(self, name: str) -> list:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0.0 when none)."""
        values = self.durations(name)
        return median(values) if values else 0.0


def self_times(spans) -> list:
    """Per-span self time: duration minus what direct children cover.

    The workloads are single-threaded, so the children of one span never
    overlap and their durations add.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


def layer_self_seconds(spans) -> dict:
    """Self time summed per layer label, over request spans only."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        if span.request_id is None:
            continue
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def request_seconds(spans) -> float:
    """Total wall of the request root spans."""
    return sum(s.duration for s in spans if s.name == "request")


def layer_shares(spans) -> dict:
    """Each layer's self time as a share of total request wall."""
    total = request_seconds(spans)
    if total <= 0.0:
        return {}
    return {
        layer: seconds / total
        for layer, seconds in layer_self_seconds(spans).items()
    }


def span_coverage(spans) -> float:
    """Share of request wall that child spans account for."""
    shares = layer_shares(spans)
    return 1.0 - shares.get(UNCOVERED, 0.0) if shares else 0.0


def write_chrome_trace(spans, path) -> None:
    """Dump the spans as Chrome ``traceEvents`` (complete events, us)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 0,
            "tid": 0,
            "args": {"request_id": s.request_id, "parent": s.parent},
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
