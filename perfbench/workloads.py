"""Workload definitions: seeded spec generators and per-job correctness checks.

Each workload turns a seed into a pool of genequo problem specs (plain JSON
dicts) and knows how to check the machine report of one job.  Everything here
is a pure function of its arguments, so the same seed always yields
byte-identical spec files.  This module imports numpy only; it never imports
genequo, so the oracles below are independent of the code under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TANH = "(exp(2*{x})-1)/(exp(2*{x})+1)"


def spec_bytes(spec: dict) -> bytes:
    """The exact bytes written to a spec file."""
    return (json.dumps(spec, sort_keys=True, indent=1) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# penalty-grid
# ---------------------------------------------------------------------------

PENALTY_BOX = (-1.0, 1.0)
PENALTY_RESOLUTION = 0.04
PENALTY_SEARCH_RADIUS = 0.4
PENALTY_A = 2.0
PENALTY_SAFETY = 1.25
PENALTY_LOW_FACTORS = (0.25, 0.5)   # times the smallest objective partial at x_bar
PENALTY_HIGH_FACTORS = (1.3, 2.0)   # times beta; above beta/(a-1) * safety


def penalty_spec(rng: np.random.Generator, index: int) -> dict:
    """A 2-D exact-penalty problem with a planted constrained minimizer.

    Feasible set: {x : x >= p} (the mapping x -> x - p into the orthant).
    Objective: q1 (x1-z1)^2 + q2 (x2-z2)^2 + s sin(w . x), convex on the box
    because 2 min(q) > s |w|^2.  The centre z is solved for so that the
    objective gradient at p equals a drawn positive vector G; convexity plus
    G > 0 makes p the unique constrained minimizer.  p sits exactly on the
    box grid, so the strict-global pattern search starts and stays on it.
    beta is the objective's Lipschitz bound over the whole box, so every
    lambda above beta/(a-1) is exact, and every lambda below min(G) is not.
    """
    lo, hi = PENALTY_BOX
    n_axis = int(round((hi - lo) / PENALTY_RESOLUTION)) + 1
    axis = np.linspace(lo, hi, n_axis)
    inner = np.flatnonzero(np.abs(axis) <= 0.6 + 1e-12)
    p = axis[rng.choice(inner, size=2)]
    q = rng.uniform(1.0, 2.0, size=2)
    s = float(rng.uniform(0.05, 0.2))
    w = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    grad = rng.uniform(0.5, 1.5, size=2)
    z = p - (grad - s * math.cos(float(w @ p)) * w) / (2.0 * q)
    corners = np.array([[a, b] for a in PENALTY_BOX for b in PENALTY_BOX])
    beta = float(np.max(np.linalg.norm(2.0 * q * (corners - z), axis=1))
                 + s * np.linalg.norm(w))
    p, q, w, z = p.tolist(), q.tolist(), w.tolist(), z.tolist()
    objective = (f"{q[0]!r}*(x1 - {z[0]!r})**2 + {q[1]!r}*(x2 - {z[1]!r})**2"
                 f" + {s!r}*sin({w[0]!r}*x1 + {w[1]!r}*x2)")
    lambdas = ([f * float(grad.min()) for f in PENALTY_LOW_FACTORS]
               + [f * beta for f in PENALTY_HIGH_FACTORS])
    return {
        "format_version": 1,
        "seed": int(rng.integers(0, 2**31)),
        "domain": {"dimension": 2, "box": [[lo, hi], [lo, hi]]},
        "cone": {"variant": "orthant", "dimension": 2},
        "mapping": {"constructor": "single_valued",
                    "expressions": [f"x1 - {p[0]!r}", f"x2 - {p[1]!r}"]},
        "objective": {"expression": objective},
        "penalty": {"x_bar": p, "lambdas": lambdas,
                    "search_radius": PENALTY_SEARCH_RADIUS,
                    "resolution": PENALTY_RESOLUTION, "a": PENALTY_A,
                    "beta": beta, "safety_factor": PENALTY_SAFETY,
                    "epsilon": 0.1},
    }


def check_penalty(spec: dict, code: int, report: dict) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    params = spec["penalty"]
    n_low = len(PENALTY_LOW_FACTORS)
    planted_low = params["lambdas"][:n_low]
    above = params["beta"] / (params["a"] - 1.0) * params["safety_factor"]
    verdicts = report.get("verdicts", [])
    if len(verdicts) != len(params["lambdas"]):
        errors.append("one verdict per lambda expected")
    for lam, v in zip(params["lambdas"], verdicts):
        if lam > above and not v["exact_at_x_bar"]:
            errors.append(f"lambda {lam} above the threshold is not exact")
        if lam in planted_low and v["exact_at_x_bar"]:
            errors.append(f"lambda {lam} planted below the threshold is exact")
    if report.get("strict_global", {}).get("verdict") != "solves":
        errors.append("strict_global verdict is not 'solves'")
    return errors


# ---------------------------------------------------------------------------
# solve-descent
# ---------------------------------------------------------------------------

SOLVE_TOL = 1e-8
# Steps contract phi by at least (2 - a), so reaching tol from phi(x0) < 1.1
# takes at most log(tol / 1.1) / log(2 - a) < 930 steps for a >= 1.02: the
# solver's default budget of 1000 steps always suffices.
SOLVE_A = (1.02, 1.05)


def solve_spec(rng: np.random.Generator, index: int) -> dict:
    """tanh on the 2-D orthant with a fixed rate close to 1.

    The fixed certificate has no witness, so every descent step runs the
    sphere-search fallback.  x0 has at least one clearly negative
    coordinate, so the job always takes steps, and starts away from tanh's
    saturated tails: deep in a tail no step of radius phi shrinks phi by the
    factor (2 - a), the fixed rate is false there and the solver would stall.
    Every generated job therefore converges, and any other status is a
    failure.
    """
    x0 = rng.uniform(-1.0, 0.5, size=2)
    k = int(rng.integers(0, 2))
    x0[k] = rng.uniform(-1.0, -0.1)
    return {
        "format_version": 1,
        "seed": int(rng.integers(0, 2**31)),
        "domain": {"dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]]},
        "cone": {"variant": "orthant", "dimension": 2},
        "mapping": {"constructor": "single_valued",
                    "expressions": [TANH.format(x="x1"), TANH.format(x="x2")]},
        "certificate": {"kind": "fixed", "a": float(rng.uniform(*SOLVE_A))},
        "solve": {"x0": x0.tolist(), "tol": SOLVE_TOL},
    }


def check_solve(spec: dict, code: int, report: dict) -> list[str]:
    run = report.get("run", {})
    errors = []
    if code != 0 or run.get("status") != "converged":
        return [f"exit code {code} with status {run.get('status')!r}"]
    tol = spec["solve"]["tol"]
    a = spec["certificate"]["a"]
    if not run["phi_final"]["value"] <= tol:
        errors.append("phi_final above tol")
    bound = report["phi_initial"]["value"] / (a - 1.0) * (1.0 + 1e-6)
    if not run["distance_traveled"]["value"] <= bound:
        errors.append("distance traveled exceeds phi_initial/(a-1)")
    x = np.array(run["solution"], dtype=float)
    if not float(np.linalg.norm(np.minimum(np.tanh(x), 0.0))) <= tol:
        errors.append("independent residual at the solution above tol")
    return errors


# ---------------------------------------------------------------------------
# certify-polyhedral
# ---------------------------------------------------------------------------

CERTIFY_SHAPES_SEED = 0
CERTIFY_ROWS = (3, 4, 5)
CERTIFY_N_TRIALS = 1
CERTIFY_A_MAX = 2.5        # above every planted rate, which is at most 2
CERTIFY_SPOT_CHECKS = 1


def cone_shape(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Face angles around the axis and face tilts of catalogue cone ``index``.

    The catalogue does not depend on the workload seed.  Projection cost
    depends mostly on a cone's shape (how many faces, how narrow), so a
    fixed catalogue keeps the cost mix of a run from varying between seeds;
    the seed draws each cone's orientation and everything else.  Face
    counts cycle through CERTIFY_ROWS.

    All faces of a cone share one tilt, so no face is nearly redundant:
    every three neighbouring unit rows span a volume of at least 0.18.
    With a tilt drawn per face, a face could lie almost along the edge of
    its neighbours, and Dykstra's projection onto the apex then runs out
    of sweeps (``ProjectionError``, the defect of ROADMAP item 2).  A run
    must not fail, so the workload keeps to well-conditioned cones; the
    traced run still probes the defect on PROJECTION_PROBES.
    """
    rng = np.random.default_rng([CERTIFY_SHAPES_SEED, index])
    k = CERTIFY_ROWS[index % len(CERTIFY_ROWS)]
    angles = 2.0 * math.pi * (np.arange(k) + rng.uniform(0.0, 0.5, size=k)) / k
    return angles, np.full(k, rng.uniform(0.5, 1.2))


def polyhedral_cone_rows(rng: np.random.Generator, angles, tilts) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a pointed cone {y : A y <= 0} in R^3 around a random unit axis c.

    Row i is -cos(t_i) c + sin(t_i) e_i, with e_i the unit vector orthogonal
    to c at angle phi_i (plus a random spin) around it.  Every row has
    a_i . c < 0, so c is interior; three or more rows spread around c make
    the cone pointed, with a half-angle of pi/2 - t_i towards e_i.
    """
    c = rng.normal(size=3)
    c /= np.linalg.norm(c)
    b0, b1 = np.linalg.svd(c.reshape(1, -1))[2][1:]   # orthonormal complement of c
    spin = rng.uniform(0.0, 2.0 * math.pi)
    rows = [-math.cos(t) * c + math.sin(t) * (math.cos(a + spin) * b0 + math.sin(a + spin) * b1)
            for a, t in zip(angles, tilts)]
    return np.array(rows), c


def certify_spec(rng: np.random.Generator, index: int) -> dict:
    """affine_plus_cone from R^1 into a pointed polyhedral cone in R^3.

    The cone is catalogue shape ``index`` in a random orientation.  The
    matrix column points along the cone axis with a depth of 0.3 to 1, so
    the increase rate is 1.3 to 2 and the estimate's lower end must exceed
    1.  Cones are used as drawn: none is discarded.
    """
    rows, c = polyhedral_cone_rows(rng, *cone_shape(index))
    depth = float(np.min(-(rows @ c) / np.linalg.norm(rows, axis=1)))
    matrix = (c * rng.uniform(0.3, 1.0) / depth).reshape(-1, 1)
    return {
        "format_version": 1,
        "seed": int(rng.integers(0, 2**31)),
        "domain": {"dimension": 1, "box": [[-1.0, 1.0]]},
        "cone": {"variant": "polyhedral", "matrix": rows.tolist()},
        "mapping": {"constructor": "affine_plus_cone", "matrix": matrix.tolist()},
        "certificate": {"kind": "estimate", "n_trials": CERTIFY_N_TRIALS,
                        "a_max": CERTIFY_A_MAX},
        "certify": {"n_spot_checks": CERTIFY_SPOT_CHECKS},
    }


def check_certify(spec: dict, code: int, report: dict) -> list[str]:
    errors = []
    if code not in (0, 2):
        errors.append(f"exit code {code}")
    cert = report.get("certificate", {})
    if cert.get("refused", True):
        errors.append("certificate refused")
        return errors
    a_low, a_high = cert["bracket"]
    if not a_low <= a_high:
        errors.append("a_low > a_high")
    if not a_low > 1.0:
        errors.append("a_low <= 1")
    spot = report.get("spot_checks", {})
    if sum(spot.get("counts", {}).values()) != spot.get("n", -1) \
            or spot.get("n") != spec["certify"]["n_spot_checks"]:
        errors.append("spot-check counts do not sum to n")
    return errors


# Three projections onto cones of the per-face-tilt kind the catalogue above
# avoids (rows, point, exact projection), on which Dykstra's projection in
# the seed code raises ProjectionError.  The traced run counts how many of
# them still fail, so the defect stays visible while the timed workload
# keeps to cones where no job fails.  The exact projections were computed
# by NNLS (Moreau's decomposition); test_workloads.py checks their
# optimality conditions.
PROJECTION_PROBES = [
    ([[-0.700145, -0.345908, -0.624616], [-0.219857, -0.975023, -0.031499],
      [0.682061, -0.725846, 0.089105], [0.495031, -0.5801, -0.64686],
      [-0.203328, 0.126811, -0.970864]],
     [1.669155, -1.932129, -2.088094],
     [0.008405602057, 0.007826594265, -0.000586175898]),
    ([[0.240137, 0.221379, 0.945159], [0.252684, -0.624486, 0.739031],
      [0.048308, -0.998761, 0.011913], [-0.949296, -0.208199, 0.235563],
      [-0.609869, 0.25903, 0.748975]],
     [0.46016, -1.268544, 1.349101],
     [0.0, 0.0, 0.0]),
    ([[0.4934, 0.404609, 0.769966], [0.949747, 0.31113, 0.034341],
      [0.696132, 0.026393, -0.717428], [-0.210013, 0.891768, -0.400804],
      [-0.067819, 0.931373, 0.357693]],
     [0.652092, 0.227291, 0.043211],
     [0.0, 0.0, 0.0]),
]
PROBE_TOL = 1e-6


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    command: str       # genequo subcommand
    generate: Callable[[np.random.Generator, int], dict]   # (rng, spec index)
    check: Callable[[dict, int, dict], list[str]]
    pool: int          # specs generated per run
    tail_pct: float    # the tail percentile reported for job time
    why: str
    heavy: tuple[str, ...]   # traced calls metrics that must not be zero
    idle: tuple[str, ...]    # traced calls metrics predicted to stay zero


WORKLOADS = {
    "penalty-grid": Workload(
        "penalty", penalty_spec, check_penalty, 160, 90,
        "bulk grids of phi through the expression interpreter: 2-D exact-penalty "
        "sweeps plus the strict-global check",
        ("expr.eval.calls", "mappings.phi.calls", "mappings.evaluate.calls",
         "geometry.excess_to_cone.calls", "penalty.grid.points"),
        ("sampling.sphere_directions.calls", "increase.check_inclusion.calls",
         "solver.solve.calls", "geometry.cone.polyhedral.calls")),
    "solve-descent": Workload(
        "solve", solve_spec, check_solve, 1024, 95,
        "short sequential single-point solves, where spec loading and "
        "sphere-search fallback steps are a fixed cost per call",
        ("cli.load_spec.calls", "expr.eval.calls", "mappings.phi.calls",
         "mappings.evaluate.calls", "sampling.sphere_directions.calls",
         "solver.solve.calls", "solver.descent_step.calls"),
        ("increase.check_inclusion.calls", "geometry.cone.polyhedral.calls",
         "geometry.dist_to_set.calls", "penalty.grid.points")),
    "certify-polyhedral": Workload(
        "certify", certify_spec, check_certify, 96, 75,
        "Dykstra projections on the refutation path of the inclusion check, "
        "which is all polyhedral cones get",
        ("geometry.dist_to_set.calls", "geometry.cone.polyhedral.calls",
         "sampling.sphere_directions.calls", "increase.check_inclusion.calls"),
        ("mappings.phi.calls", "expr.eval.calls", "solver.solve.calls",
         "penalty.grid.points")),
}


def generate_specs(name: str, seed: int, count: int = 0) -> list[dict]:
    """The first count specs (default: the whole pool) for a workload seed."""
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    return [w.generate(rng, i) for i in range(count or w.pool)]
