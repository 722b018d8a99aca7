"""The LinOp abstraction (paper section 4.2).

Every object that models a linear operation — matrices, solvers,
preconditioners — derives from :class:`LinOp` and is used through the same
``apply`` interface: a matrix applies an SpMV, a solver applies a linear
system solve, a preconditioner applies its approximate inverse.  This
composability is what lets pyGinkgo build solver pipelines from arbitrary
operator combinations.
"""

from __future__ import annotations

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import DimensionMismatch, ExecutorMismatch
from repro.ginkgo.executor import Executor


class LinOp:
    """Base class for all linear operators.

    Args:
        exec_: The executor this operator lives on.
        size: Operator dimensions as a :class:`Dim` (or coercible value).
    """

    #: Trace category of this operator's apply spans (profiler display
    #: and attribution grouping): solvers use ``"solver"``,
    #: preconditioners ``"precond"``, plain operators ``"op"``.
    _profile_category = "op"

    def __init__(self, exec_: Executor, size) -> None:
        self._exec = exec_
        self._size = Dim.of(size)
        self._loggers: list = []
        #: Generation counter for the operator's stored values; memoized
        #: derived objects (transposes, conversions, SciPy views) key on
        #: it so in-place mutation can never serve stale results.
        self._data_version = 0
        #: op key -> (data_version, derived object).
        self._derived_cache: dict = {}

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        return self._exec

    @property
    def size(self) -> Dim:
        return self._size

    @property
    def shape(self) -> tuple:
        """NumPy-style alias of :attr:`size`."""
        return (self._size.rows, self._size.cols)

    # ------------------------------------------------------------------
    # mutation tracking and derived-object memoization
    # ------------------------------------------------------------------
    @property
    def data_version(self) -> int:
        """Generation counter; bumps whenever stored values mutate."""
        return self._data_version

    def mark_modified(self) -> None:
        """Record an in-place value mutation, invalidating derived caches.

        Public mutators (and ``apply`` on the output operand) call this
        automatically; code writing through raw data arrays must call it
        by hand.
        """
        self._data_version += 1
        if self._derived_cache:
            self._derived_cache.clear()

    def _cached_derived(self, key: str, builder):
        """Memoize ``builder()`` under ``key`` for the current generation.

        Hits return the *same* derived object as the original call; any
        simulated conversion charge must be recorded by the caller before
        the lookup so cached conversions still cost what the performance
        model dictates.
        """
        from repro.ginkgo import cachestats

        entry = self._derived_cache.get(key)
        hit = entry is not None and entry[0] == self._data_version
        if hit:
            value = entry[1]
        else:
            value = builder()
            self._derived_cache[key] = (self._data_version, value)
        cachestats.record(
            "format", hit, clock=self._exec.clock, op=key,
            format=getattr(self, "_format_name", type(self).__name__.lower()),
        )
        return value

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def add_logger(self, logger) -> None:
        """Attach a logger receiving this operator's events."""
        self._loggers.append(logger)

    def remove_logger(self, logger) -> None:
        self._loggers.remove(logger)

    @property
    def loggers(self) -> tuple:
        return tuple(self._loggers)

    def _log(self, event: str, **kwargs) -> None:
        for logger in self._loggers:
            handler = getattr(logger, f"on_{event}", None)
            if handler is not None:
                handler(self, **kwargs)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, b, x):
        """Compute ``x = op(b)``; returns ``x``.

        ``b`` must have ``op.size.cols`` rows and ``x`` must have
        ``op.size.rows`` rows with the same number of columns as ``b``.

        With no logger on this operator and no tracer on its clock the
        span and logger bookkeeping is skipped outright; both paths
        charge the simulated clock identically.
        """
        return self._applying("apply", b, x, self._apply_impl, b, x)

    def apply_advanced(self, alpha, b, beta, x):
        """Compute ``x = alpha * op(b) + beta * x``; returns ``x``."""
        return self._applying(
            "apply_advanced", b, x, self._apply_advanced_impl,
            alpha, b, beta, x,
        )

    def _applying(self, name: str, b, x, impl, *args):
        """Validate ``b``/``x``, run ``impl(*args)`` and mark ``x`` modified.

        Spanned as ``{type}::{name}`` between ``apply_started`` and
        ``apply_completed`` logs when anything listens.
        """
        self._validate_application(b, x)
        clock = self._exec.clock
        if not self._loggers and not clock._traced:
            impl(*args)
            x.mark_modified()
            return x
        clock.push_span(f"{type(self).__name__}::{name}", self._profile_category)
        try:
            self._log("apply_started", b=b, x=x)
            impl(*args)
            self._log("apply_completed", b=b, x=x)
        finally:
            clock.pop_span()
        x.mark_modified()
        return x

    def bind(self, b, x):
        """``apply(b, x)`` as a zero-argument callable, made once per solve.

        The operands are validated once, here.  A call runs the same
        ``_apply_impl`` kernel ``apply`` runs and marks ``x`` modified —
        or, whenever this operator has loggers or its clock is traced,
        takes ``apply`` itself, so spans and logger events stay those of
        ``apply``.
        """
        self._validate_application(b, x)
        loggers, clock = self._loggers, self._exec.clock
        apply, impl = self.apply, self._apply_impl

        def run():
            if loggers or clock._traced:
                return apply(b, x)
            impl(b, x)
            x.mark_modified()
            return x

        return run

    def _validate_application(self, b, x) -> None:
        if b.size.rows != self._size.cols:
            raise DimensionMismatch(
                type(self).__name__,
                expected=f"b with {self._size.cols} rows",
                got=f"b with {b.size.rows} rows",
            )
        if x.size.rows != self._size.rows:
            raise DimensionMismatch(
                type(self).__name__,
                expected=f"x with {self._size.rows} rows",
                got=f"x with {x.size.rows} rows",
            )
        if b.size.cols != x.size.cols:
            raise DimensionMismatch(
                type(self).__name__,
                expected=f"x with {b.size.cols} columns",
                got=f"x with {x.size.cols} columns",
            )
        for operand in (b, x):
            if operand.executor is not self._exec:
                raise ExecutorMismatch(
                    type(self).__name__,
                    expected=self._exec.name,
                    got=operand.executor.name,
                )

    def _apply_impl(self, b, x) -> None:
        raise NotImplementedError

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        raise NotImplementedError

    def __matmul__(self, operand):
        """``op @ x``: apply through the expression layer.

        Eagerly this crosses the ``apply`` binding and returns a fresh
        result; inside ``pg.deferred()`` (or when ``operand`` is already
        lazy) it records a :class:`repro.ginkgo.lazy.LazyExpr` node whose
        validity is tied to this operator's ``data_version``.
        """
        from repro.ginkgo import lazy

        try:
            return lazy.matmul(self, operand)
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._size.rows}x{self._size.cols}>"


class LinOpFactory:
    """Base class of factories that generate a LinOp from a source operator.

    Mirrors Ginkgo's two-stage pattern::

        factory = Cg.build(criteria=..., preconditioner=...)   # parameters
        solver = factory.generate(matrix)                       # bind matrix
        solver.apply(b, x)                                      # run
    """

    def __init__(self, exec_: Executor) -> None:
        self._exec = exec_

    @property
    def executor(self) -> Executor:
        return self._exec

    def generate(self, op: LinOp) -> LinOp:
        """Produce the concrete operator bound to ``op``."""
        raise NotImplementedError


class Identity(LinOp):
    """The identity operator (``x = b``)."""

    def __init__(self, exec_: Executor, size) -> None:
        size = Dim.of(size)
        if not size.is_square:
            raise DimensionMismatch(
                "Identity", expected="a square dimension", got=size
            )
        super().__init__(exec_, size)

    def _apply_impl(self, b, x) -> None:
        x.copy_values_from(b)

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        x.scale(beta)
        x.add_scaled(alpha, b)


class Composition(LinOp):
    """Product of operators: ``apply(b) = op_1(op_2(... op_n(b)))``."""

    def __init__(self, *operators: LinOp) -> None:
        if not operators:
            raise ValueError("Composition needs at least one operator")
        total = operators[0].size
        for op in operators[1:]:
            total = total * op.size
        super().__init__(operators[0].executor, total)
        self._operators = tuple(operators)

    @property
    def operators(self) -> tuple:
        return self._operators

    def _apply_impl(self, b, x) -> None:
        from repro.ginkgo.matrix.dense import Dense

        current = b
        # Apply right-to-left; intermediate buffers sized per operator.
        for op in reversed(self._operators[1:]):
            out = Dense.empty(
                self._exec, Dim(op.size.rows, b.size.cols), current.dtype
            )
            op.apply(current, out)
            current = out
        self._operators[0].apply(current, x)

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        from repro.ginkgo.matrix.dense import Dense

        tmp = Dense.empty(self._exec, x.size, x.dtype)
        self._apply_impl(b, tmp)
        x.scale(beta)
        x.add_scaled(alpha, tmp)


class Combination(LinOp):
    """Linear combination: ``apply(b) = sum_i coef_i * op_i(b)``."""

    def __init__(self, coefficients, operators) -> None:
        operators = tuple(operators)
        coefficients = tuple(coefficients)
        if len(coefficients) != len(operators):
            raise ValueError(
                f"got {len(coefficients)} coefficients for "
                f"{len(operators)} operators"
            )
        if not operators:
            raise ValueError("Combination needs at least one operator")
        size = operators[0].size
        for op in operators[1:]:
            if op.size != size:
                raise DimensionMismatch(
                    "Combination", expected=size, got=op.size
                )
        super().__init__(operators[0].executor, size)
        self._coefficients = coefficients
        self._operators = operators

    @property
    def operators(self) -> tuple:
        return self._operators

    @property
    def coefficients(self) -> tuple:
        return self._coefficients

    def _apply_impl(self, b, x) -> None:
        x.fill(0.0)
        for coef, op in zip(self._coefficients, self._operators):
            op.apply_advanced(coef, b, 1.0, x)

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        x.scale(beta)
        for coef, op in zip(self._coefficients, self._operators):
            op.apply_advanced(alpha * coef, b, 1.0, x)


class Perturbation(LinOp):
    """Rank-k perturbation of the identity: ``I + scalar * basis @ proj``.

    Mirrors ``gko::Perturbation``; useful for low-rank operator updates.
    """

    def __init__(self, scalar, basis: LinOp, projector: LinOp) -> None:
        if basis.size.cols != projector.size.rows:
            raise DimensionMismatch(
                "Perturbation",
                expected=f"projector with {basis.size.cols} rows",
                got=f"projector with {projector.size.rows} rows",
            )
        if basis.size.rows != projector.size.cols:
            raise DimensionMismatch(
                "Perturbation",
                expected="basis rows == projector cols (square result)",
                got=f"{basis.size.rows} != {projector.size.cols}",
            )
        super().__init__(basis.executor, Dim(basis.size.rows))
        self._scalar = scalar
        self._basis = basis
        self._projector = projector

    def _apply_impl(self, b, x) -> None:
        from repro.ginkgo.matrix.dense import Dense

        inner = Dense.empty(
            self._exec, Dim(self._projector.size.rows, b.size.cols), b.dtype
        )
        self._projector.apply(b, inner)
        x.copy_values_from(b)
        self._basis.apply_advanced(self._scalar, inner, 1.0, x)

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        from repro.ginkgo.matrix.dense import Dense

        tmp = Dense.empty(self._exec, x.size, x.dtype)
        self._apply_impl(b, tmp)
        x.scale(beta)
        x.add_scaled(alpha, tmp)
