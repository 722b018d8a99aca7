"""The contract every workload implements for the driver."""

from __future__ import annotations

from dataclasses import dataclass, field

from benchmarks.e2e.harness import layer_shares


@dataclass
class Inputs:
    """What set-up produces from a seed: generated data plus references.

    ``data`` holds arrays/matrices/paths the requests read, ``refs`` the
    SciPy reference answers, ``digest`` the hash of everything generated
    (same seed <=> same digest) and ``generate_s`` the share of set-up
    spent in the ``repro.suitesparse`` generators (recorded by the
    workload that owns ``suitesparse.generate_s``).
    """

    data: dict
    refs: dict
    digest: str
    generate_s: float = 0.0


@dataclass
class Outcome:
    """The answers of one request, checked outside the timed region."""

    answers: dict = field(default_factory=dict)
    #: Request-level failure found while running (non-converged solve,
    #: timed-out job, ...); the answer check adds to it.
    problems: list = field(default_factory=list)


class Workload:
    """One set of inputs plus the request the closed loop repeats.

    Subclasses set the class attributes and implement the five hooks.
    ``sizes`` maps ``"full"`` (what the driver measures) and ``"quick"``
    (smoke tests, and filling in this workload's layer metrics while
    another workload is the one being measured) to keyword dicts.

    ``dominant``/``bypassed`` are ``(layer labels, share)`` pairs the
    traced pass asserts: the dominant layers together reach their share
    of request wall and the bypassed ones stay under theirs.
    """

    name = ""
    why = ""
    sizes: dict = {}
    dominant: tuple = ((), 0.0)
    bypassed: tuple = ((), 1.0)

    def make_inputs(self, seed: int, size: dict, workdir) -> Inputs:
        """Set-up: generate from ``seed``, write files, SciPy references."""
        raise NotImplementedError

    def start(self, inputs: Inputs, tracer):
        """Create devices and stage operands; returns the request state."""
        raise NotImplementedError

    def request(self, state, tracer) -> Outcome:
        """One request, every public call wrapped in a span."""
        raise NotImplementedError

    def verify(self, state, outcome: Outcome) -> list:
        """Problems of one outcome against the references (empty: correct)."""
        raise NotImplementedError

    def sim_seconds(self, state) -> float:
        """Cumulative simulated seconds over every clock the state owns."""
        raise NotImplementedError

    def probes(self, state, tracer) -> None:
        """Direct timings of the lower layers (traced pass only)."""

    def layer_metrics(self, state, tracer) -> dict:
        """This workload's per-layer metrics from the traced spans."""
        raise NotImplementedError

    def shares(self, state, tracer) -> dict:
        """Layer -> share of request wall, for the dominance self-check."""
        return layer_shares(tracer.spans)
