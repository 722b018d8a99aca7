"""``BENCHMARK.json`` and the catalog say the same thing, within limits."""

import json
from pathlib import Path

from benchmarks.e2e import catalog

ROOT = Path(__file__).resolve().parents[3]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_catalog():
    assert CONTRACT == catalog.benchmark_json()


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    # Not ``benchmarks/``: later PRs must stay free to touch the gate
    # scripts next door.
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert CONTRACT["run_seconds"] == catalog.RUN_SECONDS
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # 4 + 22 x workloads runs, their set-up included, inside the cap.
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 10) <= 3420


def test_names_and_units_match_the_contract_regex():
    names = []
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in CONTRACT[group]:
            assert catalog.NAME_RE.match(entry["name"]), entry["name"]
            names.append(entry["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    for group in ("end_to_end", "per_layer"):
        for entry in CONTRACT[group]:
            assert catalog.UNIT_RE.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")
    assert not any("speedup" == part for n in names for part in n.split("."))


def test_workload_rationales_fit_one_line():
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200
        assert "\n" not in entry["why"]


def test_end_to_end_bounds():
    by_name = {e["name"]: e for e in CONTRACT["end_to_end"]}
    setup = by_name["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        assert entry["bound"] <= setup["bound"], "setup_s has the largest bound"
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_sim_names_are_on_the_simulated_clock():
    for metric in catalog.PER_LAYER:
        assert (metric.clock == "sim") == ("sim_" in metric.name)
        if metric.unit == "count":
            assert metric.clock == "count"
    assert "sim_s" in catalog.EXACT
    assert "solver.iterations.cg" in catalog.EXACT
    assert "solver.apply_s.cg" not in catalog.EXACT


def test_every_metric_has_an_owner_that_exists():
    workloads = {w["name"] for w in CONTRACT["workloads"]}
    for metric in catalog.PER_LAYER:
        assert metric.owner in workloads | {catalog.DRIVER}, metric
        assert metric.moves
