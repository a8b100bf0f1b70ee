"""One workload process: set up, then run jobs in a closed loop.

Run by ``run.py``; not meant to be started by hand.  The process imports
genequo from ``<root>/src``, writes the workload's generated specs, runs one
untimed warm-up job and prints ``ready``.  In ``setup`` mode it stops there.
Otherwise one client runs jobs back to back for the given number of seconds:
a job is one ``genequo.cli.main`` call on one spec file, and every report is
checked.  In ``trace`` mode the process then counts the polyhedral
projection probes that fail.  The last line printed is a JSON summary of the
raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

# Every REPEAT_EVERY-th job re-runs one of the REPEAT_EVERY - 1 specs just
# before it, whose report must come back byte-identical; the rest are new
# specs.  Which of them is re-run cycles, so repeats favour no spec index
# (certify-polyhedral cycles cone shapes with the index).
REPEAT_EVERY = 4
WORKDIR = ".perfbench"   # under the checkout root; listed in .gitignore
WARMUP_SEED = 0


def schedule(pool: int):
    """Spec indices for successive jobs: mostly new specs, some repeats."""
    order: list[int] = []
    fresh = 0
    while True:
        j = len(order)
        group, pos = divmod(j, REPEAT_EVERY)
        if pos == REPEAT_EVERY - 1:
            idx = order[j - pos + group % pos]
        else:
            idx = fresh % pool
            fresh += 1
        order.append(idx)
        yield idx


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        from genequo import cli   # the checkout's own source tree, set up in main()

        self.cli = cli
        w = workloads.WORKLOADS[name]
        self.command, self.check = w.command, w.check
        self.specs = workloads.generate_specs(name, seed)
        # The warm-up spec does not depend on the seed, so neither does set-up.
        self.specs.append(workloads.generate_specs(name, WARMUP_SEED, 1)[0])
        self.pool = len(self.specs) - 1
        # Spec files are kept between runs and written only when missing:
        # truncating or deleting files that reached the disk costs
        # milliseconds on some file systems, which would land in set-up.
        spec_dir = workdir / f"{name}-{seed}"
        spec_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, spec in enumerate(self.specs):
            path = spec_dir / f"spec-{i:03d}.json"
            data = workloads.spec_bytes(spec)
            if not path.is_file() or path.read_bytes() != data:
                path.write_bytes(data)
            self.paths.append(str(path))
        self.out = str(workdir / f"report-{os.getpid()}.json")
        self.reports: dict[int, bytes] = {}
        self.errors: Counter = Counter()   # failed jobs by reason

    def close(self) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)

    def job(self, idx: int):
        """Run the job; returns (exit code or exception, seconds)."""
        self.close()
        argv = [self.command, "--spec", self.paths[idx], "--out", self.out]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:   # a raising job is a failed job, not a crash
            return exc, time.perf_counter() - t0
        return code, time.perf_counter() - t0

    def record(self, idx: int, code) -> bool:
        """Check one job's outcome; returns whether it succeeded."""
        reason = self.failure(idx, code)
        if reason:
            self.errors[reason] += 1
        return not reason

    def failure(self, idx: int, code) -> str:
        """Why the job failed, or "" when it succeeded."""
        if isinstance(code, Exception):
            return type(code).__name__
        if code == 1 or not os.path.exists(self.out):
            return f"exit {code}"
        data = Path(self.out).read_bytes()
        if data != self.reports.setdefault(idx, data):
            return "report differs from an earlier run"
        problems = self.check(self.specs[idx], code, json.loads(data))
        return problems[0] if problems else ""


def probe_errors() -> int:
    """How many of workloads.PROJECTION_PROBES the polyhedral projection gets wrong."""
    from genequo.geometry import PolyhedralCone

    errors = 0
    for rows, point, exact in workloads.PROJECTION_PROBES:
        try:
            got = PolyhedralCone(np.array(rows)).project(np.array(point))
            wrong = not np.linalg.norm(got - np.array(exact)) <= workloads.PROBE_TOL
        except Exception:   # ProjectionError in the seed code
            wrong = True
        errors += wrong
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = parser.parse_args()
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    workload = Workload(args.workload, args.seed, root / WORKDIR)
    try:
        return measure(workload, args)
    finally:
        workload.close()


def measure(workload: Workload, args) -> int:
    code, _ = workload.job(workload.pool)
    workload.record(workload.pool, code)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    untraced, traced, ok = [], [], []
    start = time.perf_counter()
    for idx in schedule(workload.pool):
        if time.perf_counter() - start >= args.seconds:
            break
        code, seconds = workload.job(idx)
        untraced.append(seconds)
        ok.append(workload.record(idx, code))
        if tracer is not None:
            code, seconds = tracer.run_job(lambda: workload.job(idx))
            traced.append(seconds)
            ok.append(workload.record(idx, code))
    summary = {
        "job_s": untraced,
        "traced_job_s": traced,
        "ok": sum(ok),
        "attempted": len(ok),
        "errors": dict(workload.errors),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["layers"]["geometry.cone.polyhedral.probe_errors"] = probe_errors()
        summary["binding_sites"] = tracer.binding_sites
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
