#!/usr/bin/env python3
"""Check short runs of the repository benchmark against a baseline.

Usage: python3 ci/perfbench_check.py ci/perfbench_baseline.json DIR

DIR holds DIR/<workload>.out for every workload the baseline names,
each the output of

    bash _perfbench/run.sh --workload <workload> --seed 1 --seconds 1 --trace 0

whose last line is the benchmark's JSON result. A workload fails when
its run is not correct, when its cycles_per_op differs from the
baseline at all (virtual cycles are deterministic), or when its
allocs_per_op exceeds the baseline's max_allocs_per_op. The host
columns are printed but never gated: they follow the machine.

A workload whose baseline has a per_layer map is also checked against
DIR/<workload>_trace.out, the output of the same run with --trace 1:
every metric in cycles must equal its per_layer row exactly, the run
may report no cycles metric the map lacks, and probe.ledger_drift (the
ledger total minus the clock) must be 0.
"""

import json
import sys

HOST = ("ops_per_s", "lat_p50_us", "lat_p99_us", "alloc_bytes_per_op", "heap_mb", "setup_s")


def load(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    return json.loads(lines[-1])


def check_layers(name, want, res, failures):
    if not res["correct"] or res["failed"]:
        failures.append("%s: traced run not correct (%d of %d ops failed)" % (name, res["failed"], res["attempted"]))
    got = {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "cycles"}
    for k in sorted(set(got) | set(want)):
        if got.get(k) != want.get(k):
            failures.append("%s: per-layer %s = %r, baseline %r" % (name, k, got.get(k), want.get(k)))
    if got.get("probe.ledger_drift") != 0:
        failures.append("%s: probe.ledger_drift %r, want 0" % (name, got.get("probe.ledger_drift")))


def main(baseline_path, out_dir):
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = []
    print("%-8s %12s %10s  %s" % ("workload", "cycles/op", "allocs/op", "  ".join(HOST)))
    for name, want in baseline.items():
        res = load("%s/%s.out" % (out_dir, name))
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print("%-8s %12g %10.4g  %s" % (name, m["cycles_per_op"], m["allocs_per_op"],
                                        "  ".join("%.4g" % m[k] for k in HOST)))
        if not res["correct"] or res["failed"]:
            failures.append("%s: run not correct (%d of %d ops failed)" % (name, res["failed"], res["attempted"]))
        if m["cycles_per_op"] != want["cycles_per_op"]:
            failures.append("%s: cycles_per_op %r, baseline %r" % (name, m["cycles_per_op"], want["cycles_per_op"]))
        if m["allocs_per_op"] > want["max_allocs_per_op"]:
            failures.append("%s: allocs_per_op %r above the ceiling %r" % (name, m["allocs_per_op"], want["max_allocs_per_op"]))
        if "per_layer" in want:
            check_layers(name, want["per_layer"], load("%s/%s_trace.out" % (out_dir, name)), failures)
    for f in failures:
        print("perfbench_check: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
