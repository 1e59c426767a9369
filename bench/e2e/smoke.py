#!/usr/bin/env python3
"""Smoke test for rockfs_bench: python3 smoke.py <path to rockfs_bench>

Runs every workload at a tiny op budget with shrunk working sets
(--smoke --seconds 0.2), once plain and once with --trace, with every
correctness gate on. Asserts both runs succeed and agree exactly on every
virtual-time and count metric, and that bad arguments exit with status 2.
"""
import json
import subprocess
import sys

HOST_METRICS = {"ops_per_s", "setup_s", "peak_rss_mib"}
WORKLOADS = ["update-large", "small-meta", "read-mostly", "recover"]


def run(binary, *args):
    done = subprocess.run([binary, *args], capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def metrics(binary, workload, trace):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--smoke",
            "--trace", "1" if trace else "0"]
    code, out, err = run(binary, *args)
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    if code != 0 or not summary.get("correct"):
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (workload, trace, code, err))
    if set(summary) != {"correct", "attempted", "failed", "metrics"} or summary["failed"]:
        sys.exit("FAIL %s trace=%d: bad summary %s" % (workload, trace, lines[-1]))
    return {d["metric"]: d["value"] for d in map(json.loads, lines[:-1]) if "metric" in d}


def main():
    binary = sys.argv[1]
    for args in (["--workload", "update-large", "--seed", "1", "--bogus"],
                 ["--workload", "no-such-workload", "--seed", "1"],
                 ["--workload", "recover"]):
        code, out, _ = run(binary, *args)
        if code != 2 or out:
            sys.exit("FAIL: %s should print usage and exit 2, got %d" % (args, code))
    for workload in WORKLOADS:
        plain = metrics(binary, workload, False)
        traced = metrics(binary, workload, True)
        for name, value in plain.items():
            if name in HOST_METRICS or name.startswith("host."):
                continue
            if traced.get(name) != value:
                sys.exit("FAIL %s: %s is %r plain but %r traced" %
                         (workload, name, value, traced.get(name)))
        print("ok %s: %d metrics plain, %d traced" % (workload, len(plain), len(traced)))


if __name__ == "__main__":
    main()
