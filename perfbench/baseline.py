"""Run every workload on several seeds and record the baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Each workload runs once for each of the seeds 1..RUNS, and once traced with
seed 1.  For every end-to-end metric the script prints the median over runs,
the quartiles and their distance as a share of the median (the run-to-run
spread); for the traced run it prints each layer's share of job time and any
layer predicted idle that was called.  Everything, with the machine and
commit it ran on, is written to perfbench/baseline.json.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUNS = 10
SECONDS = 30   # run_seconds in BENCHMARK.json


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "jsonschema"):
        info[pkg] = importlib.metadata.version(pkg)
    return info


def source_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, cwd=HERE)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def layer_shares(metrics: dict) -> dict:
    """Each layer's self time as a share of traced job time."""
    selfs = {k[: -len(".self_s")]: v["value"] for k, v in metrics.items()
             if k.endswith(".self_s")}
    selfs["job.unattributed"] = metrics["job.unattributed_s"]["value"]
    total = sum(selfs.values())
    return {k: v / total for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]) if v}


def main() -> int:
    seeds = list(range(1, RUNS + 1))
    report = {"machine": machine(), "commit": source_commit(), "seeds": seeds,
              "seconds": SECONDS, "workloads": {}}
    for name, w in workloads.WORKLOADS.items():
        runs = [bench(name, seed, SECONDS, 0) for seed in seeds]
        traced = bench(name, seeds[0], SECONDS, 1)["metrics"]
        end_to_end = {m: summarize([r["metrics"][m]["value"] for r in runs])
                      for m in runs[0]["metrics"]}
        units = {m: v["unit"] for m, v in runs[0]["metrics"].items()}
        shares = layer_shares(traced)
        report["workloads"][name] = {
            "why": w.why, "heavy": list(w.heavy), "idle": list(w.idle),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {m: v["value"] for m, v in traced.items()},
            "self_time_shares": shares,
        }
        print(f"{name}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} jobs failed over {len(runs)} runs")
        for m, s in end_to_end.items():
            print(f"  {m:14s} median {s['median']:.6g} {units[m]:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
        print("  traced self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.005))
        awake = [m for m in w.idle if traced[m]["value"] > 0]
        if awake:
            print("  predicted idle but called: " + ", ".join(awake))
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
