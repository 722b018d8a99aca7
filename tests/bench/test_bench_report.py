"""bench_report must survive malformed BENCH_*.json files gracefully."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_report",
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_report.py",
)
bench_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_report)


def _healthy(tmp_path, name="BENCH_good.json", failures=()):
    payload = {
        "benchmark": name.removeprefix("BENCH_").removesuffix(".json"),
        "speedup": 2.0,
        "min_speedup_gate": 1.5,
        "failures": list(failures),
    }
    (tmp_path / name).write_text(json.dumps(payload))
    return payload


class TestCollect:
    def test_truncated_file_skipped_with_warning(self, tmp_path, capsys):
        _healthy(tmp_path)
        (tmp_path / "BENCH_broken.json").write_text('{"benchmark": "tr')
        skipped = []
        reports = bench_report.collect(tmp_path, skipped=skipped)
        assert [r["benchmark"] for r in reports] == ["good"]
        assert skipped == ["BENCH_broken.json"]
        assert "skipping BENCH_broken.json" in capsys.readouterr().err

    def test_empty_file_skipped(self, tmp_path):
        _healthy(tmp_path)
        (tmp_path / "BENCH_empty.json").write_text("")
        skipped = []
        reports = bench_report.collect(tmp_path, skipped=skipped)
        assert len(reports) == 1
        assert skipped == ["BENCH_empty.json"]

    def test_non_object_json_skipped(self, tmp_path, capsys):
        _healthy(tmp_path)
        (tmp_path / "BENCH_list.json").write_text("[1, 2, 3]")
        skipped = []
        reports = bench_report.collect(tmp_path, skipped=skipped)
        assert len(reports) == 1
        assert skipped == ["BENCH_list.json"]
        assert "expected a JSON object" in capsys.readouterr().err


class TestSpeedupColumn:
    def test_wall_speedup_key_is_read(self):
        report = {"wall_speedup_x": 2.125, "cpu_count": 2}
        assert bench_report._fmt_speedup(report) == "2.12x wall (2 cpus)"

    def test_bare_speedup_keeps_its_gate(self):
        report = {"speedup": 2.0, "min_speedup_gate": 1.5}
        assert bench_report._fmt_speedup(report) == "2.00x (gate 1.50x)"

    def test_each_clock_is_labelled(self):
        report = {
            "simulated_speedup_x": 2.9,
            "min_simulated_speedup_x": 1.5,
            "wall_speedup_x": 1.18,
            "cpu_count": 2,
        }
        assert bench_report._fmt_speedup(report) == (
            "2.90x sim (gate 1.50x); 1.18x wall (2 cpus)"
        )
        assert bench_report._fmt_speedup({}) == "-"


class TestMainExitCodes:
    def _run(self, monkeypatch, tmp_path, *extra):
        monkeypatch.setattr(
            sys, "argv", ["bench_report.py", "--root", str(tmp_path), *extra]
        )
        return bench_report.main()

    def test_healthy_plus_broken_exits_zero(
        self, monkeypatch, tmp_path, capsys
    ):
        _healthy(tmp_path)
        (tmp_path / "BENCH_broken.json").write_text("{bad json")
        assert self._run(monkeypatch, tmp_path) == 0
        out = capsys.readouterr().out
        assert "good" in out
        assert "1 unreadable report(s) skipped" in out

    def test_zero_parseable_exits_nonzero(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "BENCH_only.json").write_text("{nope")
        assert self._run(monkeypatch, tmp_path) == 1
        assert "no parseable BENCH_*.json" in capsys.readouterr().err

    def test_no_reports_at_all_exits_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self._run(monkeypatch, tmp_path) == 1
        assert "no BENCH_*.json reports found" in capsys.readouterr().err

    def test_parsed_failures_still_exit_nonzero(self, monkeypatch, tmp_path):
        _healthy(tmp_path, "BENCH_bad.json", failures=["gate missed"])
        assert self._run(monkeypatch, tmp_path) == 1

    def test_combined_json_excludes_broken(self, monkeypatch, tmp_path):
        _healthy(tmp_path)
        (tmp_path / "BENCH_broken.json").write_text("")
        out_file = tmp_path / "combined.json"
        assert self._run(monkeypatch, tmp_path, "--json", str(out_file)) == 0
        combined = json.loads(out_file.read_text())
        assert [r["benchmark"] for r in combined] == ["good"]
