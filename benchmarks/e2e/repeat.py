"""Is the benchmark steady?  Two checks, both on the current checkout.

Default — run every workload twice with one seed (both passes) and once
with a held-out seed, then assert:

* every end-to-end metric of the second set is within its own bound of
  the first;
* every ``sim_*`` metric and every count agrees exactly;
* nothing failed, on either set or on the held-out seed.

``--spread N`` — run every workload's untraced pass on N different
seeds and print, per end-to-end metric, the distance between the first
and third quartile as a share of the median, next to a third of the
metric's bound (the steadiness target the bounds were set against).

    PYTHONPATH=src python -m benchmarks.e2e.repeat [--seconds S] [--spread N]

Exits non-zero on any disagreement.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.e2e import run as runner

HELD_OUT_SEED = 7919


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workload", action="append", default=None,
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="measure the spread over N seeds instead")
    return parser.parse_args(argv)


def _worse_by(metric, first, second) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    delta = second - first if metric.better == "lower" else first - second
    return delta / abs(first) if first else float("inf")


def check_repeat(args, catalog, names) -> list:
    problems = []
    exact = set(catalog.EXACT)
    for name in names:
        sets = []
        for _ in range(2):
            sets.append({
                trace: runner.spawn(name, args.seed, trace, args.seconds, args.quick)
                for trace in (0, 1)
            })
        held_out = runner.spawn(name, HELD_OUT_SEED, 0, args.seconds, args.quick)
        for label, result in (
            ("first set", sets[0][0]), ("first set, traced", sets[0][1]),
            ("second set", sets[1][0]), ("second set, traced", sets[1][1]),
            ("held-out seed", held_out),
        ):
            if result["failed"] or not result["correct"]:
                problems.append(
                    f"{name}: {result['failed']} of {result['attempted']} "
                    f"requests failed on the {label}"
                )
        print(f"\n{name}")
        for metric in catalog.END_TO_END:
            first = sets[0][0]["metrics"][metric.name]["value"]
            second = sets[1][0]["metrics"][metric.name]["value"]
            worse = _worse_by(metric, first, second)
            verdict = "ok" if worse <= metric.bound else "OUTSIDE BOUND"
            print(f"  {metric.name:<16} {first:>12.6g} {second:>12.6g} "
                  f"{metric.unit:<6} {worse:+7.1%} (bound {metric.bound:.0%}) "
                  f"{verdict}")
            if worse > metric.bound:
                problems.append(
                    f"{name}: {metric.name} worse by {worse:.1%} on the "
                    f"second set, bound {metric.bound:.0%}"
                )
        for metric in catalog.PER_LAYER:
            if metric.name not in exact:
                continue
            first = sets[0][1]["metrics"][metric.name]["value"]
            second = sets[1][1]["metrics"][metric.name]["value"]
            if first != second:
                print(f"  {metric.name:<40} {first!r} != {second!r}")
                problems.append(
                    f"{name}: {metric.name} differs between same-seed runs "
                    f"({first!r} vs {second!r})"
                )
    return problems


def check_spread(args, catalog, names, harness) -> list:
    problems = []
    for name in names:
        runs = [
            runner.spawn(name, args.seed + k, 0, args.seconds, args.quick)
            for k in range(args.spread)
        ]
        failed = sum(r["failed"] for r in runs)
        print(f"\n{name}: {args.spread} seeds, {failed} failed requests")
        if failed:
            problems.append(f"{name}: {failed} requests failed across seeds")
        for metric in catalog.END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in runs]
            spread = harness.quartile_spread(values)
            target = metric.bound / 3.0
            verdict = "ok" if spread <= target else "UNSTEADY"
            print(f"  {metric.name:<16} median {harness.median(values):>12.6g} "
                  f"{metric.unit:<6} spread {spread:6.2%} "
                  f"(target {target:.2%}) {verdict}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
            if spread > target and metric.name != "setup_s":
                problems.append(
                    f"{name}: {metric.name} spread {spread:.2%} over a third "
                    f"of its bound"
                )
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    runner.bootstrap()
    from benchmarks.e2e import catalog, harness

    names = args.workload or [
        w["name"] for w in catalog.benchmark_json()["workloads"]
    ]
    if args.spread:
        problems = check_spread(args, catalog, names, harness)
    else:
        problems = check_repeat(args, catalog, names)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("\nrepeat: " + ("DISAGREEMENT" if problems else "steady"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
