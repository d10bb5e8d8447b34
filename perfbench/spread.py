#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed with tracing off, then prints per end-to-end
metric the median and the interquartile range as a share of the median
(statistics.quantiles, n=4), next to the metric's bound from BENCHMARK.json. Run from the repository
root:

    python3 perfbench/spread.py --workload incremental --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in a.seeds:
        t0 = time.time()
        out = subprocess.run(bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.time() - t0:.0f} s, correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / abs(med) if med else float("nan")
        print(f"{k:45s} median {med:14.6g}  iqr/median {spread:7.4f}  bound {bounds.get(k)}")


if __name__ == "__main__":
    main()
