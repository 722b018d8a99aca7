"""Seeded inputs, the emitted names, and the two ways ``run.py`` ends."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import catalog
from benchmarks.e2e import run as runner
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    size = workload.sizes["quick"]
    first = workload.make_inputs(5, size, tmp_path)
    again = workload.make_inputs(5, size, tmp_path)
    other = workload.make_inputs(6, size, tmp_path)
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_workloads_declare_both_sizes_and_a_self_check():
    for workload in WORKLOADS.values():
        assert set(workload.sizes) == {"full", "quick"}
        layers, floor = workload.dominant
        assert layers and 0.5 <= floor <= 1.0
        layers, ceiling = workload.bypassed
        assert layers and 0.0 < ceiling <= 0.5


def test_every_layer_metric_has_exactly_one_source():
    owners = set(WORKLOADS) | {catalog.DRIVER}
    assert {m.owner for m in catalog.PER_LAYER} == owners


def test_no_harness_module_is_collected_by_the_tier1_pattern():
    # pyproject's python_files collects bench_*.py.
    assert not list((ROOT / "benchmarks" / "e2e").rglob("bench_*.py"))


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


def test_quick_smoke_emits_exactly_the_catalog_names(tmp_path, capsys):
    """All six workloads, both passes, quick sizes: under 20 s, nothing
    failed, and the emitted names are BENCHMARK.json's — both ways."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    t0 = time.perf_counter()
    for workload in contract["workloads"]:
        for trace in (0, 1):
            code = runner.main([
                "--workload", workload["name"], "--seed", "5", "--quick",
                "--trace", str(trace), "--out", str(tmp_path),
            ])
            assert code == 0
            result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == expected[trace]
            for value in result["metrics"].values():
                assert isinstance(value["value"], float)
    assert time.perf_counter() - t0 < 20.0
    assert list(tmp_path.glob("*.wall.trace.json")), "no Chrome trace written"
    assert not list(tmp_path.glob("tmp*")), "input directory left behind"


def test_driver_form_runs_in_a_fresh_process(tmp_path):
    done = _run(
        "--workload", "spmv_formats", "--seed", "9", "--quick", "--seconds",
        "0.2", "--trace", "0", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["setup_s"]["value"] > 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "call_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
        env={"PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_unknown_workload_is_refused():
    done = _run("--workload", "nope", "--seed", "1")
    assert done.returncode != 0
    assert "unknown workload" in done.stderr
