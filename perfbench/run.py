"""genequo benchmark: one workload, one closed-loop client, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload penalty-grid --seed 1 --seconds 20 --trace 0

The workload's specs are generated from ``--seed``; the genequo source under
``src/`` is imported as it stands.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced jobs
and reports per-layer metrics from the traced ones.  Human-readable lines
come first; the last line of standard output is one JSON object.  Its
``correct`` is false when any job fails: it raises, exits 1, or gives a
wrong report or one that differs from an earlier run of the same spec.  Exits 2 without a result when
the checkout holds no genequo source, and 3 when a workload process fails,
the run is too short for the workload's tail percentile, or the traced run
records no calls in a layer the workload is meant to load.
"""

from __future__ import annotations

import argparse
import json
import math
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
# Set-up is measured in this many separate workload processes, plus the one
# that runs the timed loop; the median is reported.
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 60.0
# job_s_tail needs at least this many jobs beyond the workload's percentile.
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
                    "job_s_tail": "s", "success_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def start_worker(root: Path, args, mode: str):
    """Start one workload process; returns (process, seconds until ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, ready


def stop(proc, timeout: float = SETUP_TIMEOUT_S) -> str:
    """Wait for the process to end (killing it after timeout); returns its output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        raise BenchError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def run_worker(root: Path, args, mode: str) -> tuple[dict, float]:
    proc, ready = start_worker(root, args, mode)
    out = stop(proc, timeout=args.seconds + 120.0)
    return json.loads(out.strip().splitlines()[-1]), ready


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile pct of times, and the number of jobs beyond it."""
    ordered = sorted(times)
    k = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[k], len(ordered) - k - 1


def end_to_end(root: Path, args, w) -> tuple[dict, dict, list[str]]:
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(root, args, "setup")
        stop(proc)
        setups.append(ready)
    summary, ready = run_worker(root, args, "run")
    setups.append(ready)
    times = summary["job_s"]
    tail_s, beyond = tail(times, w.tail_pct)
    if beyond < TAIL_MIN_BEYOND:
        raise BenchError(f"only {beyond} of {len(times)} jobs lie beyond p{w.tail_pct:g}; "
                         f"job_s_tail needs {TAIL_MIN_BEYOND}: the run is too short")
    attempted, ok = summary["attempted"], summary["ok"]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": ok / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "success_ratio": ok / attempted,
        "peak_rss_mb": summary["peak_rss_kib"] * 1024 / 1e6,
    }
    notes = [f"job_s_tail is p{w.tail_pct:g}: {beyond} of {len(times)} jobs beyond it",
             f"failed_ratio {(attempted - ok) / attempted:.6g} "
             f"({attempted - ok} of {attempted} jobs)"]
    return metrics, summary, notes


def per_layer(root: Path, args, w) -> tuple[dict, dict, list[str]]:
    summary, _ = run_worker(root, args, "trace")
    metrics = dict(summary["layers"])
    metrics["trace.overhead_ratio"] = (statistics.median(summary["traced_job_s"])
                                       / statistics.median(summary["job_s"]))
    missing = [m for m in w.heavy if not metrics[m] > 0]
    if missing:
        raise BenchError(f"traced run recorded no calls for {', '.join(missing)}: "
                         "a wrapper was bypassed")
    sites = ", ".join(f"{k} {v}" for k, v in sorted(summary["binding_sites"].items()))
    return metrics, summary, [f"binding sites patched: {sites}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "genequo" / "cli.py").is_file():
        print(f"error: no genequo source under {root / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, summary, notes = measure(root, args, w)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    units = END_TO_END_UNITS if not args.trace else {}
    print(f"{args.workload} seed {args.seed}: {summary['ok']} of "
          f"{summary['attempted']} jobs succeeded")
    for reason, count in sorted(summary["errors"].items()):
        print(f"  failed: {count} x {reason}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units.get(name, spans.unit(name))}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": not summary["errors"],
        "attempted": summary["attempted"],
        "failed": summary["attempted"] - summary["ok"],
        "metrics": {name: {"value": value,
                           "unit": units.get(name, spans.unit(name))}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
