#!/usr/bin/env python3
"""Short-run self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It builds the benchmark, runs every workload at the self-test size
(`--smoke`) with tracing off and on, and checks that:

* every run passes its own correctness checks (`correct`, `failed == 0`);
* every metric `BENCHMARK.json` names prints, in the JSON line and in the
  table, with the unit `BENCHMARK.json` gives it, and the table also shows
  the request counts and the workload's own simulated metrics;
* two runs with the same seed give identical simulated metrics and
  counters (table rows whose clock is `sim` or `count`), and another seed
  changes them;
* the layers a workload does not call are reported absent, and the GC
  counters are 0 where the workload does not collect.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
ARRAY_ONLY = ("array.", "snapshot.fork_s")
GC_COUNTERS = ("gc.collections", "gc.stalls", "gc.stall_us", "gc.deferrals")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, seed, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    table = {}
    for line in lines[2:-1]:
        cols = line.split()
        if len(cols) >= 4 and not line.startswith("#"):
            table[cols[0]] = {"value": cols[1], "unit": cols[2], "clock": cols[3]}
    return result, table


def simulated(table):
    return {k: v["value"] for k, v in table.items() if v["clock"] in ("sim", "count")}


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            a, table_a = run(name, 11, trace)
            b, table_b = run(name, 11, trace)
            c, table_c = run(name, 12, trace)
            label = f"{name} --trace {trace}"
            for res in (a, b, c):
                check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                      f"{label}: correctness checks failed: {res}")
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            check(set(a["metrics"]) == set(declared),
                  f"{label}: JSON metrics {sorted(a['metrics'])} != declared {sorted(declared)}")
            for metric, unit in declared.items():
                got = a["metrics"].get(metric, {}).get("unit")
                check(got == unit, f"{label}: {metric} JSON unit {got!r}, declared {unit!r}")
                row = table_a.get(metric)
                check(row is not None and row["unit"] == unit,
                      f"{label}: {metric} table row {row}, declared unit {unit!r}")
            if trace == 0:
                extra = ["ops", "ops_failed", "read_failures"]
                extra += ["paper_gap_pp"] if name == "eval-matrix" else ["sim_read_p999_us", "sim_kiops"]
                for metric in extra:
                    check(metric in table_a, f"{label}: no {metric} row in the table")
            check(simulated(table_a) == simulated(table_b),
                  f"{label}: same seed, different simulated metrics")
            check(simulated(table_a) != simulated(table_c),
                  f"{label}: another seed, same simulated metrics")
            if trace == 1:
                for metric, row in table_a.items():
                    if metric.startswith(ARRAY_ONLY):
                        absent = row["value"] == "absent"
                        check(absent == (name != "array-replicate"),
                              f"{label}: {metric} reads {row['value']}")
                    if metric in GC_COUNTERS and name != "gc-mixed":
                        check(float(row["value"]) == 0.0, f"{label}: {metric} = {row['value']}")
                check(float(table_a["gc.collections"]["value"]) > 0 or name != "gc-mixed",
                      f"{label}: gc-mixed ran no garbage collection")
        print(f"ok: {name}", flush=True)
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
