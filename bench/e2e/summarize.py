"""Summarizes repeated e2e_bench runs: per workload and metric, the median,
the quartiles and the spread (interquartile range / median), with the
quartiles computed as statistics.quantiles(values, n=4).

Usage: python3 summarize.py [--json] <runs.jsonl> ...
Each input line is {"workload": ..., "result": <e2e_bench's last line>}.
--json prints one JSON object keyed by workload instead of tables.
"""

import json
import statistics
import sys


def summarize(path):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    if not runs:
        return None, None
    workload = runs[0]["workload"]
    metrics = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return workload, {
        "runs": len(runs),
        "all_correct": all(r["result"]["correct"] for r in runs),
        "metrics": metrics,
    }


def main(args):
    as_json = bool(args) and args[0] == "--json"
    paths = args[1:] if as_json else args
    out = {}
    for path in paths:
        workload, summary = summarize(path)
        if workload is not None:
            out[workload] = summary
    if as_json:
        print(json.dumps(out, indent=2))
        return
    for workload, s in out.items():
        print(f"== {workload}: {s['runs']} runs, all correct: "
              f"{s['all_correct']}")
        print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s}  unit")
        for name, m in s["metrics"].items():
            print(f"{name:36s} {m['median']:14.6g} {m['q1']:14.6g} "
                  f"{m['q3']:14.6g} {m['spread']:8.4f}  {m['unit']}")


if __name__ == "__main__":
    main(sys.argv[1:])
