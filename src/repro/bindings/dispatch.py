"""Pre-resolved binding dispatch cache.

Every Pythonic-layer call used to re-derive the suffixed symbol name
(``f"{op}_{value}_{index}"``), re-hash it into :data:`~repro.bindings.registry.BINDINGS`,
and re-classify the executor's device family for the overhead model — all
on every call.  This module memoizes that resolution once per
``(op, value suffix, index suffix, device family)`` and hands back the
*same* bound wrapper from the registry, so the per-call binding-overhead
charge (``charge_binding`` inside the wrapper) is completely unchanged;
only the Python-side lookup work disappears.

The suffix maps are built locally by inverting the registry's
``VALUE_TYPES``/``INDEX_TYPES`` tables instead of importing
``repro.core.types`` (which would close an import cycle through the
``repro.core`` package ``__init__``).

Hits and misses are reported under the ``dispatch`` kind of
:mod:`repro.ginkgo.cachestats`; :func:`clear` resets the cache (the test
suite does this around every test).

The expression layer resolves through here too: eager operator
expressions use the ``apply``/``scal``/``axpy`` symbols (one resolve +
one crossing per operation), while a ``pg.deferred()`` flush resolves
``fused_region`` once per region — that single lookup standing in for
every operation the region replaced is exactly the amortisation
:mod:`repro.ginkgo.lazy` is built around.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.bindings import overhead
from repro.bindings.registry import INDEX_TYPES, VALUE_TYPES, get_binding
from repro.ginkgo import cachestats
from repro.ginkgo.accessor import VALUE_SUFFIX_ALIASES
from repro.ginkgo.exceptions import GinkgoError

#: numpy dtype -> C++-style suffix, inverted from the registry tables.
_VALUE_SUFFIXES = {np.dtype(dt): name for name, dt in VALUE_TYPES.items()}
_INDEX_SUFFIXES = {np.dtype(dt): name for name, dt in INDEX_TYPES.items()}

#: (op, value suffix, index suffix, device family) -> bound wrapper.
_CACHE: dict = {}
#: Guards misses so concurrent worker threads resolve each key once.
_LOCK = threading.Lock()


def _suffix(dtype, names: dict, inverted: dict, kind: str) -> str | None:
    """Normalise ``dtype`` (suffix string, numpy dtype, ...) to a suffix.

    Value types additionally accept every spelling in
    :data:`repro.ginkgo.accessor.VALUE_SUFFIX_ALIASES` (``"float32"``,
    ``"single"``, ...), so anything the config validator lets through
    resolves here, and a ``(working, storage)`` tuple for mixed-precision
    symbols: ``("double", np.float32)`` -> ``"double_float"`` (collapsing
    to the plain suffix when both precisions coincide).
    """
    if dtype is None:
        return None
    if isinstance(dtype, tuple):
        if kind != "value":
            raise GinkgoError(
                f"mixed-precision suffix tuples are only valid for value "
                f"types, not {kind}"
            )
        working, storage = dtype
        ws = _suffix(working, names, inverted, kind)
        ss = _suffix(storage, names, inverted, kind)
        return ws if ss is None or ss == ws else f"{ws}_{ss}"
    if isinstance(dtype, str):
        if dtype in names:
            return dtype
        if kind == "value":
            alias = VALUE_SUFFIX_ALIASES.get(dtype.lower())
            if alias is not None:
                return alias
        raise GinkgoError(
            f"unknown {kind} suffix {dtype!r}; available: {sorted(names)}"
        )
    dt = np.dtype(dtype)
    try:
        return inverted[dt]
    except KeyError:
        raise GinkgoError(
            f"unsupported {kind} dtype {dt}; supported: "
            f"{sorted(str(k) for k in inverted)}"
        ) from None


def symbol_for(op: str, value_dtype=None, index_dtype=None) -> str:
    """The suffixed registry symbol name for an operation.

    ``value_dtype``/``index_dtype`` accept a suffix string (``"double"``,
    ``"int32"``) or anything ``np.dtype`` accepts; ``None`` omits that
    suffix (untemplated symbols like ``"CUDA"`` pass both as ``None``).
    ``value_dtype`` may also be a ``(working, storage)`` tuple naming a
    mixed-precision symbol (``jacobi_apply_double_float``).
    """
    name = op
    vs = _suffix(value_dtype, VALUE_TYPES, _VALUE_SUFFIXES, "value")
    if vs is not None:
        name = f"{name}_{vs}"
    is_ = _suffix(index_dtype, INDEX_TYPES, _INDEX_SUFFIXES, "index")
    if is_ is not None:
        name = f"{name}_{is_}"
    return name


def resolve(op: str, value_dtype=None, index_dtype=None, exec_=None):
    """Resolve ``op`` to its bound registry wrapper, memoized.

    Args:
        op: Un-suffixed operation name (``"gmres_factory"``, ``"csr"``).
        value_dtype: Value type as suffix string or numpy dtype (or None).
        index_dtype: Index type as suffix string or numpy dtype (or None).
        exec_: Optional executor; when given, the cache key additionally
            pins the device family (pre-resolving the overhead-model
            routing) and hit/miss marks land on its simulated clock.

    Returns:
        The same callable :func:`repro.bindings.registry.get_binding`
        would return — including its per-call binding-overhead charge.
    """
    vs = _suffix(value_dtype, VALUE_TYPES, _VALUE_SUFFIXES, "value")
    is_ = _suffix(index_dtype, INDEX_TYPES, _INDEX_SUFFIXES, "index")
    family = overhead.device_family(exec_) if exec_ is not None else None
    key = (op, vs, is_, family)
    entry = _CACHE.get(key)
    hit = entry is not None
    if not hit:
        with _LOCK:
            entry = _CACHE.get(key)
            if entry is None:
                name = op
                if vs is not None:
                    name = f"{name}_{vs}"
                if is_ is not None:
                    name = f"{name}_{is_}"
                try:
                    entry = get_binding(name)
                except KeyError:
                    raise GinkgoError(
                        f"no binding symbol {name!r} for op {op!r}"
                    ) from None
                # Warm the overhead model for the family so the first
                # bound call finds it pre-resolved (the jitter stream is
                # untouched: models are created lazily either way, and
                # sampling only happens inside charge_binding).
                if exec_ is not None:
                    overhead.overhead_model_for(exec_)
                _CACHE[key] = entry
    clock = exec_.clock if exec_ is not None else None
    meta = ({"op": op, "symbol": getattr(entry, "_binding_tag", op)}
            if clock is not None and clock._traced else None)
    cachestats.record("dispatch", hit, clock, meta)
    return entry


def cache_size() -> int:
    """Number of pre-resolved (op, types, family) entries."""
    return len(_CACHE)


def clear() -> None:
    """Drop all pre-resolved entries (tests call this between cases)."""
    _CACHE.clear()
