"""Loggers (``gko::log``).

Loggers attach to any LinOp and receive events (`apply_started`,
`iteration_complete`, ...).  The paper's Listing 1 returns a convergence
logger from ``solver.apply``, exposing iteration counts and the residual
history.  :class:`ProfilerHook` extends the same event machinery into a
full span profiler over the simulated clock; :class:`MetricsRegistry`
aggregates counters/histograms across solves.
"""

from repro.ginkgo.log.logger import (
    ConvergenceLogger,
    Logger,
    PerformanceLogger,
    RecordLogger,
    StreamLogger,
)
from repro.ginkgo.log.metrics import (
    Counter,
    Histogram,
    MetricsLogger,
    MetricsRegistry,
)
from repro.ginkgo.log.profiler import ProfilerHook

__all__ = [
    "ConvergenceLogger",
    "Counter",
    "Histogram",
    "Logger",
    "MetricsLogger",
    "MetricsRegistry",
    "PerformanceLogger",
    "ProfilerHook",
    "RecordLogger",
    "StreamLogger",
]
