"""Aggregate every ``BENCH_*.json`` acceptance report into one summary.

Each acceptance benchmark (``bench_hot_path.py``, ``bench_batch.py``,
...) writes a ``BENCH_<name>.json`` next to the repo root with its
timings, its gate, and a ``failures`` list.  This tool collects them
into a single table — the one-stop view of the repo's performance
claims — and exits nonzero if any report carries failures.

Standalone::

    python benchmarks/bench_report.py             # table to stdout
    python benchmarks/bench_report.py --json out  # combined JSON too
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def collect(root: Path, skipped: list | None = None) -> list:
    """Load every BENCH_*.json under ``root`` (sorted by name).

    A missing, empty, truncated, or otherwise malformed file is skipped
    with a warning on stderr (and recorded in ``skipped`` when given)
    rather than poisoning the whole report — one bad writer must not
    take down the CI summary for every other benchmark.
    """
    reports = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(
                f"warning: skipping {path.name}: {err}", file=sys.stderr
            )
            if skipped is not None:
                skipped.append(path.name)
            continue
        if not isinstance(data, dict):
            print(
                f"warning: skipping {path.name}: expected a JSON object, "
                f"got {type(data).__name__}",
                file=sys.stderr,
            )
            if skipped is not None:
                skipped.append(path.name)
            continue
        data.setdefault("benchmark", path.stem)
        data["_file"] = path.name
        reports.append(data)
    return reports


def _fmt_ratio(value, gate, label="") -> str:
    text = f"{value:.2f}x{label}"
    if gate is not None:
        text += f" (gate {gate:.2f}x)"
    return text


def _fmt_speedup(report) -> str:
    """Each ratio named by its clock.

    ``simulated_speedup_x`` (with its ``min_simulated_speedup_x`` gate)
    and ``wall_speedup_x`` (reported beside ``cpu_count``, never gated);
    a report written before the keys were renamed shows its bare
    ``speedup``/``min_speedup_gate`` unlabelled.
    """
    cells = []
    sim = report.get("simulated_speedup_x")
    if sim is not None:
        cells.append(
            _fmt_ratio(sim, report.get("min_simulated_speedup_x"), " sim")
        )
    wall = report.get("wall_speedup_x")
    if wall is not None:
        cells.append(f"{wall:.2f}x wall ({report.get('cpu_count', '?')} cpus)")
    if not cells and report.get("speedup") is not None:
        cells.append(
            _fmt_ratio(report["speedup"], report.get("min_speedup_gate"))
        )
    return "; ".join(cells) or "-"


def _fmt_slo_cell(value, fmt) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return format(value, fmt)


def render_slo(report) -> list:
    """SLO percentile table lines for a report carrying an ``"slo"`` key.

    ``slo`` maps run labels (e.g. ``coalesced``/``baseline``) to the
    service's SLO snapshot; one row per run with the latency
    percentiles, throughput, and coalesce ratio.
    """
    slo = report.get("slo")
    if not isinstance(slo, dict) or not slo:
        return []
    rows = [
        (
            "run",
            "p50 latency",
            "p99 latency",
            "throughput",
            "coalesce",
            "miss rate",
        )
    ]
    for label in sorted(slo):
        snapshot = slo[label]
        if not isinstance(snapshot, dict):
            continue
        rows.append(
            (
                str(label),
                _fmt_slo_cell(snapshot.get("p50_latency"), ".3e"),
                _fmt_slo_cell(snapshot.get("p99_latency"), ".3e"),
                _fmt_slo_cell(snapshot.get("throughput"), ".1f"),
                _fmt_slo_cell(snapshot.get("coalesce_ratio"), ".2f"),
                _fmt_slo_cell(snapshot.get("deadline_miss_rate"), ".2f"),
            )
        )
    if len(rows) == 1:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [f"SLO — {report.get('benchmark')}:"]
    for index, row in enumerate(rows):
        lines.append(
            "  "
            + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append(
                "  " + "  ".join("-" * width for width in widths)
            )
    return lines


def render_mixed_cases(report) -> list:
    """Per-case table lines for the mixed-precision report.

    ``cases`` holds one entry per suite configuration with the
    preconditioner-phase and whole-solve speedups plus the pinned
    iteration counts (written by ``bench_mixed_precision.py``).
    """
    cases = report.get("cases")
    if not isinstance(cases, list) or not cases:
        return []
    rows = [("case", "precond speedup", "solve speedup", "iters (f64/f32)")]
    for case in cases:
        if not isinstance(case, dict):
            continue
        rows.append(
            (
                str(case.get("case")),
                _fmt_slo_cell(case.get("precond_speedup"), ".2f"),
                _fmt_slo_cell(case.get("solve_speedup"), ".2f"),
                f"{case.get('uniform_iterations')}"
                f"/{case.get('mixed_iterations')}",
            )
        )
    if len(rows) == 1:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [f"Mixed precision — {report.get('benchmark')}:"]
    for index, row in enumerate(rows):
        lines.append(
            "  "
            + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  " + "  ".join("-" * width for width in widths))
    return lines


def render(reports) -> str:
    rows = [("benchmark", "speedup", "status", "file")]
    for report in reports:
        failures = report.get("failures") or []
        status = "OK" if not failures else f"FAIL ({len(failures)})"
        rows.append(
            (
                str(report.get("benchmark")),
                _fmt_speedup(report),
                status,
                report["_file"],
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    for report in reports:
        slo_lines = render_slo(report)
        if slo_lines:
            lines.append("")
            lines.extend(slo_lines)
        mixed_lines = render_mixed_cases(report)
        if mixed_lines:
            lines.append("")
            lines.extend(mixed_lines)
    for report in reports:
        for failure in report.get("failures") or []:
            lines.append(f"  {report.get('benchmark')}: FAIL {failure}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(REPO_ROOT),
        help="directory holding the BENCH_*.json reports",
    )
    parser.add_argument(
        "--json", default=None,
        help="also write the combined reports to this JSON file",
    )
    args = parser.parse_args()
    skipped: list = []
    reports = collect(Path(args.root), skipped=skipped)
    if not reports:
        # Exit nonzero only when *zero* reports parse; skipped files
        # alongside healthy reports are a warning, not a failure.
        if skipped:
            print(
                f"no parseable BENCH_*.json reports "
                f"({len(skipped)} skipped)",
                file=sys.stderr,
            )
        else:
            print("no BENCH_*.json reports found", file=sys.stderr)
        return 1
    print(render(reports))
    if skipped:
        print(
            f"({len(skipped)} unreadable report(s) skipped: "
            f"{', '.join(skipped)})"
        )
    if args.json:
        combined = [
            {k: v for k, v in r.items() if k != "_file"} for r in reports
        ]
        Path(args.json).write_text(json.dumps(combined, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if any(r.get("failures") for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
