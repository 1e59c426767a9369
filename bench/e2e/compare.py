#!/usr/bin/env python3
"""Compares two sets of rockfs_bench results.

    python3 bench/e2e/compare.py <dir A: parent> <dir B: change>

Each directory holds one file per run: the stdout of run.py (any name
ending in .json). For every workload x end-to-end metric it prints each
side's median and quartiles over the plain runs, the spread (quartile
distance / median), and a verdict:

  improved    B wins >= 9/10 of the run pairs (ties count for neither) and
              the medians differ by more than A's quartile distance;
  regressed   B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json;
  unresolved  the run-to-run spread is wider than the bound, so neither
              can be told (unless every B run beats every A run);
  unchanged   otherwise.

Runs pair by seed when both sides ran the same seeds, else in file order.
It then lists the per-layer deltas of the --trace runs, largest first, and
checks that within each side the plain and --trace runs of one seed agree
exactly on every virtual-time and count metric.

Exit status: 0 when nothing regressed and nothing mismatched, 1 otherwise,
2 when the inputs cannot be compared (e.g. different CMAKE_BUILD_TYPE).
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_METRICS = {"ops_per_s", "setup_s", "peak_rss_mib"}


def is_host(metric):
    return metric in HOST_METRICS or metric.startswith("host.")


def load_runs(directory):
    """Returns a list of runs: {workload, mode, seed, build_type, metrics}."""
    runs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        run = {"file": name, "metrics": {}}
        with open(os.path.join(directory, name)) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                doc = json.loads(line)
                if "host" in doc:
                    run.update(workload=doc["workload"], mode=doc["mode"],
                               seed=doc["host"]["seed"],
                               build_type=doc["host"]["build_type"])
                elif "metric" in doc:
                    run["metrics"][doc["metric"]] = doc["value"]
                elif "correct" in doc and not doc["correct"]:
                    sys.exit("compare.py: %s/%s reports an incorrect run" % (directory, name))
        if "workload" in run:
            runs.append(run)
    if not runs:
        sys.exit("compare.py: no rockfs_bench results in %s" % directory)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs, b_runs):
    by_seed = {r["seed"]: r for r in b_runs}
    if all(r["seed"] in by_seed for r in a_runs):
        return [(r, by_seed[r["seed"]]) for r in a_runs]
    return list(zip(a_runs, b_runs))


def verdict(metric, spec, a_runs, b_runs):
    lower = spec["better"] == "lower"
    a = [r["metrics"][metric] for r in a_runs]
    b = [r["metrics"][metric] for r in b_runs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    scale = abs(a_med) or 1.0
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / scale
    worse = ((b_med - a_med) if lower else (a_med - b_med)) / scale
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    paired = pairs(a_runs, b_runs)
    wins = sum(1 for ra, rb in paired if better(rb["metrics"][metric], ra["metrics"][metric]))
    all_better = all(better(x, y) for x in b for y in a)
    if spread > spec["bound"] and not all_better:
        label = "unresolved"
    elif worse > spec["bound"]:
        label = "regressed"
    elif wins >= 0.9 * len(paired) and abs(b_med - a_med) > (a_q3 - a_q1):
        label = "improved"
    else:
        label = "unchanged"
    return (a_q1, a_med, a_q3), (b_q1, b_med, b_q3), spread, label


def mismatches(runs, side):
    """Virtual metrics of plain and trace runs of one (workload, seed) must agree."""
    found = []
    plain = {(r["workload"], r["seed"]): r for r in runs if r["mode"] == "plain"}
    for t in runs:
        p = plain.get((t["workload"], t["seed"]))
        if t["mode"] != "trace" or p is None:
            continue
        for metric, value in p["metrics"].items():
            if not is_host(metric) and metric in t["metrics"] and t["metrics"][metric] != value:
                found.append("%s: %s seed %s %s plain=%r trace=%r" % (
                    side, t["workload"], t["seed"], metric, value, t["metrics"][metric]))
    return found


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    a_all, b_all = load_runs(argv[1]), load_runs(argv[2])
    build_types = {r["build_type"] for r in a_all + b_all}
    if len(build_types) != 1:
        print("compare.py: refusing to compare different build types: %s"
              % ", ".join(sorted(build_types)), file=sys.stderr)
        return 2

    failed = False
    workloads = sorted({r["workload"] for r in a_all} & {r["workload"] for r in b_all})
    print("%-13s %-13s %33s %33s %7s  %s" % ("workload", "metric", "A q1 / median / q3",
                                             "B q1 / median / q3", "spread", "verdict"))
    for w in workloads:
        a_runs = [r for r in a_all if r["workload"] == w and r["mode"] == "plain"]
        b_runs = [r for r in b_all if r["workload"] == w and r["mode"] == "plain"]
        if not a_runs or not b_runs:
            continue
        for metric, spec in e2e.items():
            a, b, spread, label = verdict(metric, spec, a_runs, b_runs)
            failed |= label == "regressed"
            print("%-13s %-13s %33s %33s %6.2f%%  %s" % (
                w, metric, "%.4g / %.4g / %.4g" % a, "%.4g / %.4g / %.4g" % b,
                100 * spread, label))

    print("\nper-layer deltas (--trace runs, median B vs median A), largest first")
    deltas = []
    for w in workloads:
        a_runs = [r for r in a_all if r["workload"] == w and r["mode"] == "trace"]
        b_runs = [r for r in b_all if r["workload"] == w and r["mode"] == "trace"]
        if not a_runs or not b_runs:
            continue
        for metric in sorted(set(a_runs[0]["metrics"]) & set(b_runs[0]["metrics"])):
            if metric in e2e:
                continue
            a_med = statistics.median(r["metrics"][metric] for r in a_runs)
            b_med = statistics.median(r["metrics"][metric] for r in b_runs)
            rel = (b_med - a_med) / abs(a_med) if a_med else (0.0 if b_med == 0 else float("inf"))
            deltas.append((abs(rel), w, metric, a_med, b_med, rel))
    for _, w, metric, a_med, b_med, rel in sorted(deltas, key=lambda d: -d[0]):
        print("%-13s %-36s %14.6g -> %-14.6g %+8.2f%%" % (w, metric, a_med, b_med, 100 * rel))

    problems = mismatches(a_all, "A") + mismatches(b_all, "B")
    for p in problems:
        print("virtual-metric mismatch between plain and --trace runs: " + p)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
