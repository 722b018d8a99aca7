"""Entry point of the end-to-end benchmark.

One workload, one pass — the form the benchmark driver calls; the last
line of standard output is the JSON result::

    python3 benchmarks/e2e/run.py --workload call_storm --seed 11 \
        --seconds 15 --trace 0

Every workload, both passes, each in a fresh subprocess, printed as
tables (``--quick`` shrinks the inputs for a smoke run)::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 11 [--quick] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Per-process budget the contract gives one run.
RUN_TIMEOUT_S = 180


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a checkout
    and cap native thread pools at the core count — before NumPy loads."""
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    cores = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this workload in-process and print its JSON "
                             "result; default: all six, in subprocesses")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes and a 0.2 s pass")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for .mtx inputs and Chrome traces")
    return parser.parse_args(argv)


def run_one(args) -> int:
    """The driver's form: one workload, one pass, one JSON line."""
    bootstrap()
    t0 = time.perf_counter()
    import scipy.sparse.linalg  # noqa: F401  (timed: part of set-up)
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    from benchmarks.e2e import driver
    from benchmarks.e2e.catalog import RUN_SECONDS
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size_name = "quick" if args.quick else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = 0.2 if args.quick else RUN_SECONDS
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = driver.run_per_layer(workload, args.seed, size_name, seconds, out_dir)
    else:
        result = driver.run_end_to_end(
            workload, args.seed, size_name, seconds, out_dir, import_s
        )
    print(json.dumps(result))
    return 0


def spawn(workload, seed, trace, seconds=None, quick=False, out=None) -> dict:
    """Run one pass in a fresh subprocess; returns its parsed result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    if out is not None:
        cmd += ["--out", str(out)]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_table(title, rows, names, units) -> None:
    print(f"\n{title}")
    width = max(len(n) for n in names)
    header = f"{'metric':<{width}} {'unit':<10}" + "".join(
        f" {w[:16]:>16}" for w in rows
    )
    print(header)
    for name in names:
        cells = "".join(
            f" {rows[w]['metrics'][name]['value']:>16.6g}" for w in rows
        )
        print(f"{name:<{width}} {units[name]:<10}{cells}")


def run_all(args) -> int:
    bootstrap()
    from benchmarks.e2e import catalog

    names = [w["name"] for w in catalog.benchmark_json()["workloads"]]
    end_to_end, per_layer = {}, {}
    for name in names:
        for trace, sink in ((0, end_to_end), (1, per_layer)):
            sink[name] = spawn(
                name, args.seed, trace, args.seconds, args.quick, args.out
            )
            print(f"{name} --trace {trace}: attempted "
                  f"{sink[name]['attempted']}, failed {sink[name]['failed']}",
                  file=sys.stderr)
    _print_table(
        "End-to-end (untraced pass; wall clock)", end_to_end,
        [m.name for m in catalog.END_TO_END],
        {m.name: m.unit for m in catalog.END_TO_END},
    )
    print(f"{'failed / attempted':<28}" + "".join(
        f" {r['failed']:>7}/{r['attempted']:<8}" for r in end_to_end.values()
    ))
    _print_table(
        "Per layer (traced pass; names with sim_ are on the SimClock; a "
        "workload measures\nits own layers at full size, the others at "
        "quick size)", per_layer,
        [m.name for m in catalog.PER_LAYER],
        {m.name: m.unit for m in catalog.PER_LAYER},
    )
    results = list(end_to_end.values()) + list(per_layer.values())
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
