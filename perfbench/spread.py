#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one or more workloads once per seed and prints, per metric, the
median of the runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median, next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--trace 0] [--save runs.jsonl] [workload ...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save", help="append every run's report and result lines to this file")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    ok = True
    for wl in names:
        runs = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            last = lines[-1] if lines else "{}"
            res = json.loads(last)
            steal = json.loads(lines[-2])["detail"].get("cpu_steal_share") if len(lines) > 1 else None
            if p.returncode != 0 or not res.get("correct") or res.get("failed"):
                ok = False
                print(f"{wl} seed {seed}: exit {p.returncode}, result {last}", file=sys.stderr)
            runs.append(res.get("metrics", {}))
            if args.save:
                with open(args.save, "a") as f:
                    f.write("\n".join(lines[-2:]) + "\n")
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res.get("metrics", {}).items())
                + f", cpu_steal_share={steal}", flush=True)
        for m in metrics:
            vals = [r[m["name"]]["value"] for r in runs if m["name"] in r]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and not spread <= bound:
                flag, ok = "  OVER BOUND", False
            print(f"  {wl:16s} {m['name']:16s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
