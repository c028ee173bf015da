#!/usr/bin/env python3
"""Compares a BENCH_streaming.json artifact against committed baselines.

bench/bench_baselines.json pins the padded-corpus throughput (MiB/s) of
the fused-tier benchmarks — the rows the structural-index execution path
is responsible for. A run must reach at least (1 - tolerance) of each
committed figure; anything lower fails the check (and CI). Missing rows
fail too, so a silently-skipped benchmark cannot pass.

The baselines file may also carry "relative_floors": same-artifact
throughput ratios that must hold regardless of the machine. Each entry
pins one benchmark to a fraction of another from the SAME run — e.g. the
counting-sink scan must reach >= 95% of the sink-off scan, the
match-event pipeline's <=5% overhead budget.

A third optional section, "counter_floors", pins a user counter of a
named benchmark to an absolute minimum — machine-independent ratios the
benchmark computes itself, like bench_incremental's speedup_vs_rescan
(incremental edits must beat a full rescan by >= 10x). Any section may
be absent; a file may carry only counter_floors.

An artifact whose context does not record build_type "Release" (the
CMAKE_BUILD_TYPE the bench binary was compiled under) is refused before
any row is compared: figures from an unoptimised or debug-info build are
not comparable with the committed baselines.

Every figure is judged on its best repetition: the highest throughput of
an absolute row, each side of a relative floor on its own highest
throughput, the highest value of a floored counter. A shared machine
slows work in spells that hit some repetitions and not others, so the
best repetition is the run the spell missed; a real slowdown slows all of
them. The baselines file may set "min_repetitions"; an artifact that
records fewer (context "repetitions", bench/run_benches.sh), or that
holds fewer entries for any gated row, is refused.

Usage:
  check_bench_baselines.py [--artifact BENCH_streaming.json]
                           [--baselines bench/bench_baselines.json]
                           [--tolerance 0.30]
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", default="BENCH_streaming.json")
    parser.add_argument("--baselines", default="bench/bench_baselines.json")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args()

    with open(args.artifact) as handle:
        artifact = json.load(handle)
    with open(args.baselines) as handle:
        baselines = json.load(handle)

    context = artifact.get("context", {})
    build_type = context.get("build_type")
    if build_type != "Release":
        print(f"FAIL: {args.artifact} was measured on build type "
              f"{build_type!r}; only Release artifacts are checked",
              file=sys.stderr)
        sys.exit(1)

    # Every repetition of every row, by name.
    runs = {}
    for bench in artifact.get("benchmarks", []):
        runs.setdefault(bench["name"], []).append(bench)

    def best(name, field):
        values = [run[field] for run in runs.get(name, [])
                  if run.get(field) is not None]
        return max(values) if values else None

    min_reps = int(baselines.get("min_repetitions", 1))
    recorded = int(context.get("repetitions", 1))
    gated = set(baselines.get("baselines_mib_per_second", {}))
    for name, spec in baselines.get("relative_floors", {}).items():
        gated.update((name, spec["of"]))
    gated.update(baselines.get("counter_floors", {}))
    thin = sorted(name for name in gated
                  if 0 < len(runs.get(name, [])) < min_reps)
    if recorded < min_reps or thin:
        short = f" (rows short of it: {', '.join(thin)})" if thin else ""
        print(f"FAIL: {args.artifact} records {recorded} repetition(s)"
              f"{short}; the baselines ask for at least {min_reps}",
              file=sys.stderr)
        sys.exit(1)

    measured = {name: best(name, "mib_per_second") for name in runs}

    failures = []
    absolute = baselines.get("baselines_mib_per_second", {})
    if absolute:
        print(f"{'benchmark':55} {'baseline':>10} {'floor':>10} "
              f"{'measured':>10}")
    for name, baseline in sorted(absolute.items()):
        floor = baseline * (1.0 - args.tolerance)
        got = measured.get(name)
        shown = "MISSING" if got is None else f"{got:.1f}"
        print(f"{name:55} {baseline:10.1f} {floor:10.1f} {shown:>10}")
        if got is None:
            failures.append(f"{name}: not present in {args.artifact}")
        elif got < floor:
            failures.append(
                f"{name}: {got:.1f} MiB/s < floor {floor:.1f} MiB/s "
                f"(baseline {baseline:.1f}, tolerance {args.tolerance:.0%})")

    relative = baselines.get("relative_floors", {})
    if relative:
        print(f"\n{'benchmark':40} {'vs':28} {'min_ratio':>9} {'ratio':>8}")
    for name, spec in sorted(relative.items()):
        other = spec["of"]
        min_ratio = float(spec["min_ratio"])
        got = measured.get(name)
        ref = measured.get(other)
        if got is None or ref is None:
            missing = name if got is None else other
            print(f"{name:40} {other:28} {min_ratio:9.2f}  MISSING")
            failures.append(
                f"{name} vs {other}: {missing} not present in "
                f"{args.artifact}")
            continue
        ratio = got / ref if ref else 0.0
        print(f"{name:40} {other:28} {min_ratio:9.2f} {ratio:8.3f}")
        if ratio < min_ratio:
            failures.append(
                f"{name}: {got:.1f} MiB/s is {ratio:.1%} of {other} "
                f"({ref:.1f} MiB/s), below the {min_ratio:.0%} floor")

    counters = baselines.get("counter_floors", {})
    if counters:
        print(f"\n{'benchmark':45} {'counter':20} {'min':>10} "
              f"{'measured':>10}")
    for name, spec in sorted(counters.items()):
        counter = spec["counter"]
        floor = float(spec["min"])
        got = best(name, counter)
        shown = "MISSING" if got is None else f"{got:.3f}"
        print(f"{name:45} {counter:20} {floor:10.3f} {shown:>10}")
        if got is None:
            failures.append(
                f"{name}.{counter}: not present in {args.artifact}")
        elif got < floor:
            failures.append(
                f"{name}.{counter}: {got:.3f} below the committed floor "
                f"{floor:.3f}")

    if failures:
        print("\nFAIL: padded-corpus throughput regression", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nOK: all fused-tier padded-corpus benchmarks within tolerance")


if __name__ == "__main__":
    main()
