#!/usr/bin/env python3
"""Run the benchmark once per workload and seed; summarise each metric.

Usage (from the repository root):

    python3 benchmark/spread.py [--seeds 1,2,3] [--sets 1] [--trace 0|1]
                                [--workloads a,b] [--out FILE]

Each run is the command in BENCHMARK.json with `--workload W --seed S
--seconds <run_seconds> --trace T`. For every set, workload and metric the
script prints the median, the quartiles (Python's statistics.quantiles with
n=4) and the spread, (q3 - q1) / median. With --out it also writes them as
JSON together with the machine the runs were made on. Exits 1 if any run
fails or reports correct=false.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "kernel": platform.release()}


def summarise(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    sets = []
    for k in range(args.sets):
        summary = {}
        for w in workloads:
            runs = []
            for seed in seeds:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
                out = subprocess.run(cmd, capture_output=True, text=True)
                lines = out.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    ok = False
                    print(f"FAILED {w} seed {seed} (exit {out.returncode}):\n{out.stdout[-2000:]}{out.stderr[-2000:]}",
                          file=sys.stderr)
                    continue
                runs.append(result)
            metrics = {}
            for name in (runs[0]["metrics"] if runs else {}):
                metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
                metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            summary[w] = {"runs": len(runs), "failed_ops": sum(r["failed"] for r in runs),
                          "attempted_ops": sum(r["attempted"] for r in runs), "metrics": metrics}
            print(f"== set {k + 1} {w}: {len(runs)} runs", flush=True)
            for name, m in metrics.items():
                print(f"   {name:28s} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} q3 {m['q3']:<14.6g} "
                      f"spread {m['spread']:.3f} {m['unit']}", flush=True)
        sets.append(summary)
    if args.out:
        doc = {"machine": machine(), "seeds": seeds, "trace": args.trace,
               "run_seconds": bench["run_seconds"], "sets": sets}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
