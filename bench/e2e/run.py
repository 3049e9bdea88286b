#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench/e2e/bench_e2e).

One workload per run:

    python3 bench/e2e/run.py --workload noisy_refresh --seed 7 --seconds 45 --trace 0

builds the benchmark if needed, runs the workload once (untraced with
--trace 0, the per-layer pass with --trace 1) and prints, as its last
line, {"correct", "attempted", "failed", "metrics"} with the end-to-end
or per-layer metrics named in BENCHMARK.json.

Every workload, for people:

    python3 bench/e2e/run.py [--seed S] [--seconds T] [--repeat N] [--out FILE]

runs each workload untraced and traced, N times with the same seed,
prints every metric with its unit and the "where the time went" tables,
checks that the trajectory digest and the deterministic per-layer counts
repeat exactly, and writes the merged results with a host header.

Comparing two such result files, each (workload, metric) pairing by its
own bound (see PAIRING_BOUND below), or the two sets of a file that
holds {"sets": [BASE, NEW]}, such as bench/e2e/results/seed.json:

    python3 bench/e2e/run.py compare BASE.json NEW.json
    python3 bench/e2e/run.py compare bench/e2e/results/seed.json

Standard library only. Exits non-zero on any failed check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
THREADS = "1"  # one pool worker + the calling driver

# BENCHMARK.json gives each end-to-end metric one bound for every
# workload, so it has to be as wide as the noisiest workload needs. compare
# judges the (workload, metric) pairings that held still in every recorded
# 10-seed sweep (spread at most 10%; README.md, "Host noise") by the
# benchmark's specified 10% bound, and every other pairing by the
# BENCHMARK.json bound.
PAIRING_BOUND = 0.10
STEADY = {("serve_plans", "slides_per_s"), ("serve_plans", "peak_rss_mb")}

# Per-layer counts taken at a fixed step count: they must repeat exactly.
DETERMINISTIC = [
    "refresh.path.incremental", "refresh.path.warm", "refresh.path.cold",
    "refresh.path.cold_fallback", "refresh.path.drift_fallback",
    "refresh.path.masked", "refresh.path.randomized",
    "refresh.imputed_entries", "detect.verdicts", "ingest.failed_probes",
    "ingest.stale_reused", "service.events_retained", "service.metric_count",
]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {BENCHMARK}: {error}")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build bench_e2e; returns the binary's path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "bench_e2e_build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return out / "bench_e2e"


def run_binary(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns the benchmark's parsed result object."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace:
        spans = build_dir() / f"spans-{workload}-{seed}.json"
        command += ["--trace", "--spans", str(spans)]
    env = dict(os.environ, NETCONST_THREADS=THREADS)
    try:
        done = subprocess.run(command, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.stderr:
        print(done.stderr, file=sys.stderr, end="")
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: no result (exit {done.returncode})")
    if echo:
        print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["report"] = "\n".join(lines[:-1])
    return result


def result_line(result, names):
    """The one-line result: correct, attempted, failed and the named
    metrics."""
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            fail(f"benchmark did not report {name}")
        metrics[name] = result["metrics"][name]
    return {
        "correct": bool(result["correct"]) and result["exit_code"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def run_one(args, bench):
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    binary = build()
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    line = result_line(result, names)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


def series(results):
    """{metric: (unit, [value per run])}, in the benchmark's order."""
    def value(result, name):
        v = result["metrics"][name]["value"]
        return float("nan") if v is None else v  # null: not finite

    names = results[0]["metrics"]
    return {n: (names[n]["unit"], [value(r, n) for r in results])
            for n in names}


def git_sha():
    """HEAD's sha, with -dirty when the tree has changes; "unknown"
    outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_all(args, bench):
    binary = build()
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    problems = []
    merged = {"seed": args.seed, "seconds": args.seconds,
              "repeat": args.repeat, "workloads": {}}
    host = None
    for workload in names:
        runs, traces = [], []
        for _ in range(args.repeat):
            runs.append(run_binary(binary, workload, args.seed, args.seconds,
                                   False, echo=False))
            traces.append(run_binary(binary, workload, args.seed,
                                     args.seconds, True, echo=False))
        host = host or runs[0]["host"]
        for result in runs + traces:
            if not result["correct"] or result["exit_code"] != 0:
                failed = [k for k, ok in result["checks"].items() if not ok]
                problems.append(f"{workload}: failed checks {failed}")
        digests = {r["digest"] for r in runs + traces}
        if len(digests) != 1:
            problems.append(f"{workload}: trajectory digest differs {digests}")
        for name in DETERMINISTIC:
            values = {t["metrics"][name]["value"] for t in traces}
            if len(values) != 1:
                problems.append(f"{workload}: {name} differs {values}")

        print(f"\n== {workload}  (seed {args.seed}, {args.seconds} s, "
              f"{args.repeat} run(s); digest {runs[0]['digest']}; "
              "* = gated by a bound in BENCHMARK.json)")
        end_to_end = series(runs)
        per_layer = series(traces)
        for name, (unit, values) in end_to_end.items():
            mark = "*" if name in e2e else " "
            print(f" {mark}{name:<34} {statistics.median(values):>14.6g} "
                  f"{unit:<6} runs: " + " ".join(f"{v:.6g}" for v in values))
        for name, (unit, values) in per_layer.items():
            print(f"  {name:<34} {statistics.median(values):>14.6g} {unit}")
        where = traces[-1]["report"].split("where the time went", 1)
        if len(where) == 2:
            table = where[1].split("\n\n", 1)[0]
            print("  where the time went" + table.replace("\n", "\n  "))

        merged["workloads"][workload] = {
            "digest": runs[0]["digest"],
            "end_to_end": {n: v for n, (_, v) in end_to_end.items()},
            "per_layer": {n: v for n, (_, v) in per_layer.items()},
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
        missing = [n for n in list(e2e) + list(layer)
                   if n not in end_to_end and n not in per_layer]
        if missing:
            problems.append(f"{workload}: metrics not reported {missing}")

    merged["host"] = dict(host or {}, git_sha=git_sha(),
                          nproc=len(os.sched_getaffinity(0)),
                          machine=platform.machine(),
                          NETCONST_THREADS=THREADS)
    out = Path(args.out) if args.out else build_dir() / "e2e-results.json"
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"\nwrote {out}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def spread(values):
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else float("inf")


def verdict(base, new, better, bound):
    """better / worse / same / unresolved for one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    # Positive = the new median is worse, as a share of the base median.
    worse = sign * (new_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    if spread(base) > bound or spread(new) > bound:
        # Too noisy to judge by medians: only a clean separation counts.
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", worse
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse", worse
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    if -worse > bound:
        return "better", worse
    return "same", worse


def compare(paths, bench):
    """Compare two result files, or the two sets of one combined file."""
    try:
        loaded = [json.loads(Path(p).read_text()) for p in paths]
    except (OSError, ValueError) as error:
        fail(f"cannot read results: {error}")
    if len(loaded) == 1:
        if len(loaded[0].get("sets", [])) != 2:
            fail(f"{paths[0]} does not hold two result sets")
        loaded = loaded[0]["sets"]
        paths = [f"{paths[0]}[0]", f"{paths[0]}[1]"]
    base, new = loaded
    regressions = 0
    for workload, base_w in base["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            print(f"{workload:<16} missing from {paths[1]}")
            regressions += 1
            continue
        cells, verdicts = [], []
        for spec in bench["end_to_end"]:
            name = spec["name"]
            bound = (min(PAIRING_BOUND, spec["bound"])
                     if (workload, name) in STEADY else spec["bound"])
            outcome, worse = verdict(base_w["end_to_end"][name],
                                     new_w["end_to_end"][name],
                                     spec["better"], bound)
            verdicts.append(outcome)
            cells.append(f"{name} {outcome} ({worse:+.1%}, bound {bound:.0%})")
        row = ("worse" if "worse" in verdicts else
               "better" if "better" in verdicts else
               "unresolved" if "unresolved" in verdicts else "same")
        regressions += row == "worse"
        print(f"{workload:<16} {row:<10} " + "; ".join(cells))
    sys.exit(1 if regressions else 0)


def main():
    bench = load_benchmark()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) not in (3, 4):
            fail("usage: run.py compare BASE.json NEW.json | SETS.json")
        compare(sys.argv[2:], bench)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.workload:
        # Any workload bench_e2e knows, including the two that
        # BENCHMARK.json leaves out (README.md, "Workloads").
        run_one(args, bench)
    run_all(args, bench)


if __name__ == "__main__":
    main()
