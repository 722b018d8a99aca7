"""Process-wide hit/miss accounting for the reuse layer.

Three caches make up the zero-allocation hot path, and all of them report
here so one place answers "what did reuse save":

* ``workspace`` — solver :class:`~repro.ginkgo.solver.workspace.Workspace`
  buffer reuse across ``apply()`` calls and restart cycles;
* ``format`` — memoized SciPy views, transposes, and format conversions
  on the sparse/dense matrix classes (generation-counter invalidated);
* ``dispatch`` — pre-resolved type-suffixed binding symbols in
  :mod:`repro.bindings.dispatch`.

Counts are kept in a flat module-global table (queryable with
:func:`snapshot`), mirrored into any registered
:class:`~repro.ginkgo.log.MetricsRegistry` sinks (``pg.profile(metrics=...)``
registers its registry for the duration of the region), and — when the
owning executor's clock is traced — emitted as ``cache_hit``/``cache_miss``
trace instants so profiler timelines show where reuse struck.

Counter mirroring is owned exclusively by this module: the profiler hook
renders the clock marks as instants but never counts them, so a registry
that is both a sink here and attached to a profiler cannot double-count.

Sink registration is *reference counted* and keyed by registry identity:
nested ``pg.profile(metrics=...)`` regions sharing one registry register
it twice, and the inner region's exit must not stop mirroring for the
outer region (nor may a shared registry ever receive an event twice for
one lookup).  A lock guards the tables so concurrent profile regions on
worker threads cannot corrupt them mid-iteration.
"""

from __future__ import annotations

import threading

_COUNTS: dict[str, int] = {}
#: id(registry) -> [registry, refcount]; identity-keyed so one registry
#: is mirrored exactly once per event no matter how many regions hold it.
_SINKS: dict[int, list] = {}
_LOCK = threading.Lock()
#: (kind, hit) -> counter key, so a lookup formats no string.
_KEYS = {
    (kind, hit): f"cache_{kind}_{'hit' if hit else 'miss'}"
    for kind in ("workspace", "format", "dispatch")
    for hit in (True, False)
}


def record(kind: str, hit: bool, clock=None, **meta) -> None:
    """Count one cache lookup.

    With no sink registered and no traced clock this only bumps the
    counter.

    Args:
        kind: Cache family (``"workspace"``/``"format"``/``"dispatch"``).
        hit: Whether the lookup was served from the cache.
        clock: Optional :class:`~repro.perfmodel.SimClock` to annotate;
            the mark is a free instant (no simulated time is charged), so
            reuse never perturbs modeled timings.
        **meta: Scalar details recorded on the trace instant (buffer name,
            byte size, symbol, ...).
    """
    key = _KEYS.get((kind, hit)) or f"cache_{kind}_{'hit' if hit else 'miss'}"
    with _LOCK:
        _COUNTS[key] = _COUNTS.get(key, 0) + 1
        sinks = [entry[0] for entry in _SINKS.values()] if _SINKS else ()
    for sink in sinks:
        sink.counter(key).inc()
    if clock is not None and clock._traced:
        clock.annotate("cache_hit" if hit else "cache_miss", kind=kind, **meta)


def register_sink(registry) -> None:
    """Mirror future cache counts into ``registry`` (reference counted)."""
    with _LOCK:
        entry = _SINKS.get(id(registry))
        if entry is None:
            _SINKS[id(registry)] = [registry, 1]
        else:
            entry[1] += 1


def unregister_sink(registry) -> None:
    """Drop one registration of ``registry``; mirroring stops when the
    last registration is released.  Unknown registries are ignored."""
    with _LOCK:
        entry = _SINKS.get(id(registry))
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del _SINKS[id(registry)]


def sink_count() -> int:
    """Number of distinct registries currently mirrored (not refcounts)."""
    with _LOCK:
        return len(_SINKS)


def snapshot() -> dict:
    """Copy of the global count table (``cache_<kind>_<hit|miss>`` keys)."""
    with _LOCK:
        return dict(_COUNTS)


def counts(kind: str) -> tuple:
    """``(hits, misses)`` of one cache family."""
    with _LOCK:
        return (
            _COUNTS.get(f"cache_{kind}_hit", 0),
            _COUNTS.get(f"cache_{kind}_miss", 0),
        )


def reset() -> None:
    """Zero the global table and drop all sinks (test isolation)."""
    with _LOCK:
        _COUNTS.clear()
        _SINKS.clear()
