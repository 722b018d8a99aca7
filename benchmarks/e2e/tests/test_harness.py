"""The percentile rule, span arithmetic and input hashing."""

import numpy as np
import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Span, Tracer


@pytest.mark.parametrize(
    "samples, expected",
    [
        (3, 50.0),      # too few for any tail: fall back to the median
        (39, 50.0),     # p75 would rest on 9.75 samples
        (40, 75.0),     # exactly ten samples beyond p75
        (99, 75.0),
        (100, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert harness.tail_percentile(samples) == expected


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 50) == 2.5
    assert harness.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) -> q1 = 11.75, q3 = 17.25, median 14.5
    assert harness.quartile_spread(values) == pytest.approx(5.5 / 14.5)


def _spans():
    # request 0: 10 s; child a covers 6 s of it, of which grandchild b 2 s;
    # child c covers 3 s; 1 s of the request is uncovered.  A probe span
    # outside any request must not count towards the shares.
    return [
        Span("request", harness.UNCOVERED, 0.0, 10.0, None, 0),
        Span("a", "solver", 1.0, 7.0, 0, 0),
        Span("b", "matrix", 2.0, 4.0, 1, 0),
        Span("c", "core", 7.0, 10.0, 0, 0),
        Span("probe", "bindings", 20.0, 25.0, None, None),
    ]


def test_self_time_subtracts_direct_children_only():
    assert harness.self_times(_spans()) == [1.0, 4.0, 2.0, 3.0, 5.0]


def test_layer_shares_and_coverage():
    spans = _spans()
    assert harness.request_seconds(spans) == 10.0
    assert harness.layer_shares(spans) == {
        harness.UNCOVERED: 0.1, "solver": 0.4, "matrix": 0.2, "core": 0.3,
    }
    assert harness.span_coverage(spans) == pytest.approx(0.9)


def test_tracer_records_parent_and_request_id():
    tracer = Tracer()
    with tracer.request(7):
        with tracer.span("outer", "core"):
            with tracer.span("inner", "bindings"):
                pass
    with tracer.span("probe", "perfmodel"):
        pass
    names = [(s.name, s.parent, s.request_id) for s in tracer.spans]
    assert names == [
        ("request", None, 7), ("outer", 0, 7), ("inner", 1, 7),
        ("probe", None, None),
    ]
    assert all(s.end >= s.start for s in tracer.spans)
    own = harness.self_times(tracer.spans)
    assert all(value >= 0.0 for value in own)
    assert tracer.median("missing") == 0.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.request(0):
        with tracer.span("x", "core"):
            pass
    assert tracer.spans == []


def test_chrome_trace_round_trips(tmp_path):
    import json

    path = tmp_path / "trace.json"
    harness.write_chrome_trace(_spans(), path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["request", "a", "b", "c", "probe"]
    assert events[1]["dur"] == pytest.approx(6e6)


def test_hash_arrays_sees_values_shape_and_dtype():
    a = np.arange(6.0)
    assert harness.hash_arrays(a) == harness.hash_arrays(a.copy())
    assert harness.hash_arrays(a) != harness.hash_arrays(a + 1e-12)
    assert harness.hash_arrays(a) != harness.hash_arrays(a.reshape(2, 3))
    assert harness.hash_arrays(a) != harness.hash_arrays(a.astype(np.float32))


def test_rel_err_is_relative_to_the_reference():
    assert harness.rel_err([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert harness.rel_err([0.0, 0.0], [3.0, 4.0]) == pytest.approx(1.0)
