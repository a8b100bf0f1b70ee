"""Command-line front end: spec ingestion, experiment orchestration, reports.

Specs are JSON documents validated against a schema; reports are emitted as a
single machine-readable JSON document (byte-identical across reruns with the
same spec and seed) or a human-readable summary.  Exit codes: 0 success, 2
verdict-level failure (a checked claim failed), 1 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Callable, Optional

import numpy as np
import jsonschema

from . import geometry, increase, mappings, penalty as penalty_mod, solver, vecopt
from .expr import ExpressionError, compile_expression, vector_variables
from .geometry import NonnegHalfLine, NonposHalfLine, Orthant, PolyhedralCone
from .increase import CertificationRefused
from .sampling import DEFAULT_SEED

FORMAT_VERSION = 1

_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "minItems": 1, "items": {"type": "number"}}}
_POINTS = _MATRIX
_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}

SPEC_SCHEMA = {
    "type": "object",
    "required": ["format_version", "domain", "cone", "mapping"],
    "additionalProperties": False,
    "properties": {
        "format_version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "domain": {
            "type": "object",
            "required": ["dimension"],
            "additionalProperties": False,
            "properties": {
                "dimension": {"type": "integer", "minimum": 1},
                "box": _MATRIX,
            },
        },
        "cone": {
            "type": "object",
            "required": ["variant"],
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["orthant", "nonneg_half_line",
                                      "nonpos_half_line", "polyhedral"]},
                "dimension": {"type": "integer", "minimum": 1},
                "matrix": _MATRIX,
            },
        },
        "mapping": {
            "type": "object",
            "required": ["constructor"],
            "additionalProperties": False,
            "properties": {
                "constructor": {"enum": ["affine_plus_cone", "linear",
                                          "single_valued", "image_shift",
                                          "semi_infinite", "vi_residual"]},
                "matrix": _MATRIX,
                "expressions": {"type": "array", "minItems": 1,
                                 "items": {"type": "string"}},
                "expression": {"type": "string"},
                "points": _POINTS,
                "t_grid": {"type": "array", "minItems": 1,
                            "items": {"type": "number"}},
                "gradient_expressions": {"type": "array", "minItems": 1,
                                          "items": {"type": "string"}},
            },
        },
        "objective": {
            "type": "object",
            "required": ["expression"],
            "additionalProperties": False,
            "properties": {"expression": {"type": "string"}},
        },
        "certificate": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["linear_orthant", "fixed", "estimate",
                                   "local_nonlinear"]},
                "a": {"type": "number", "exclusiveMinimum": 1},
                "x_bar": _VECTOR,
                "fd_step": {"type": "number", "exclusiveMinimum": 0},
                "initial_delta": {"type": "number", "exclusiveMinimum": 0},
                "n_trials": {"type": "integer", "minimum": 1},
                "a_max": {"type": "number", "exclusiveMinimum": 1},
            },
        },
        "solve": {
            "type": "object",
            "required": ["x0"],
            "additionalProperties": False,
            "properties": {
                "x0": _VECTOR,
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
        },
        "certify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_spot_checks": {"type": "integer", "minimum": 0},
                "r_spot": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scope": {"enum": ["global", "local"]},
                "a": {"type": "number", "exclusiveMinimum": 1},
                "samples": {"type": "integer", "minimum": 1},
                "x_bar": _VECTOR,
                "initial_radius": {"type": "number", "exclusiveMinimum": 0},
                "reference_points": _POINTS,
                "reference_grid": {"type": "integer", "minimum": 2},
            },
        },
        "penalty": {
            "type": "object",
            "required": ["x_bar", "lambdas"],
            "additionalProperties": False,
            "properties": {
                "x_bar": _VECTOR,
                "lambdas": {"type": "array", "minItems": 1,
                             "items": {"type": "number", "minimum": 0}},
                "search_radius": {"type": "number", "exclusiveMinimum": 0},
                "resolution": {"type": "number", "exclusiveMinimum": 0},
                "lipschitz_radius": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 1},
                "safety_factor": {"type": "number", "minimum": 1},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "minimum": 0},
            },
        },
        "ideal": {
            "type": "object",
            "required": ["points"],
            "additionalProperties": False,
            "properties": {
                "points": _POINTS,
                "increase_bound": {"type": "number", "exclusiveMinimum": 1},
            },
        },
    },
}


class SpecError(Exception):
    """Invalid spec content, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"spec error at {path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Spec -> objects
# ---------------------------------------------------------------------------

def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError("$", f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"not valid JSON: {exc}") from None
    try:
        jsonschema.validate(spec, SPEC_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SpecError(exc.json_path, exc.message) from None
    return spec


def build_cone(spec: dict) -> geometry.Cone:
    c = spec["cone"]
    variant = c["variant"]
    try:
        if variant == "orthant":
            if "dimension" not in c:
                raise SpecError("$.cone.dimension", "orthant requires a dimension")
            return Orthant(c["dimension"])
        if variant == "nonneg_half_line":
            return NonnegHalfLine()
        if variant == "nonpos_half_line":
            return NonposHalfLine()
        if "matrix" not in c:
            raise SpecError("$.cone.matrix", "polyhedral cone requires a matrix")
        rows = c["matrix"]
        if len({len(r) for r in rows}) != 1:
            raise SpecError("$.cone.matrix", "rows have inconsistent lengths")
        return PolyhedralCone(np.array(rows, dtype=float))
    except ValueError as exc:
        raise SpecError("$.cone", str(exc)) from None


def _compiled_vector_fn(expressions: list[str], dim: int, path: str):
    try:
        fns = [compile_expression(e, vector_variables(dim)) for e in expressions]
    except ExpressionError as exc:
        raise SpecError(path, str(exc)) from None
    return lambda x: np.array([f(*x) for f in fns])


def build_mapping(spec: dict, cone: geometry.Cone) -> mappings.SetValuedMap:
    m = spec["mapping"]
    n = spec["domain"]["dimension"]
    box = None  # the domain box scopes experiments, not evaluation
    kind = m["constructor"]
    try:
        if kind in ("affine_plus_cone", "linear"):
            if "matrix" not in m:
                raise SpecError("$.mapping.matrix", f"{kind} requires a matrix")
            rows = m["matrix"]
            if len({len(r) for r in rows}) != 1:
                raise SpecError("$.mapping.matrix", "rows have inconsistent lengths")
            A = np.array(rows, dtype=float)
            if A.shape != (cone.dim, n):
                raise SpecError("$.mapping.matrix",
                                f"shape {A.shape} != ({cone.dim}, {n})")
            if kind == "affine_plus_cone":
                return mappings.affine_plus_cone(A, cone, box)
            return mappings.linear_map(A, box)
        if kind == "single_valued":
            if "expressions" not in m:
                raise SpecError("$.mapping.expressions",
                                "single_valued requires component expressions")
            exprs = m["expressions"]
            if len(exprs) != cone.dim:
                raise SpecError("$.mapping.expressions",
                                f"{len(exprs)} components != cone dimension {cone.dim}")
            f = _compiled_vector_fn(exprs, n, "$.mapping.expressions")
            return mappings.single_valued(f, n, cone.dim, box)
        if kind == "image_shift":
            if "expressions" not in m or "points" not in m:
                raise SpecError("$.mapping", "image_shift requires expressions and points")
            f = _compiled_vector_fn(m["expressions"], n, "$.mapping.expressions")
            return mappings.image_shift(f, np.array(m["points"], dtype=float),
                                        n, cone.dim, box)
        if kind == "semi_infinite":
            if "expression" not in m or "t_grid" not in m:
                raise SpecError("$.mapping", "semi_infinite requires expression and t_grid")
            try:
                g_fn = compile_expression(m["expression"], ["t"] + vector_variables(n))
            except ExpressionError as exc:
                raise SpecError("$.mapping.expression", str(exc)) from None
            return mappings.semi_infinite(lambda t, x: g_fn(t, *x),
                                          np.array(m["t_grid"], dtype=float), n, box)
        if "gradient_expressions" not in m or "points" not in m:
            raise SpecError("$.mapping",
                            "vi_residual requires gradient_expressions and points")
        grad = _compiled_vector_fn(m["gradient_expressions"], n,
                                   "$.mapping.gradient_expressions")
        return mappings.vi_residual(grad, np.array(m["points"], dtype=float), n, box)
    except (ValueError, geometry.DimensionMismatch) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError("$.mapping", str(exc)) from None


def build_objective(spec: dict) -> Callable[[np.ndarray], float]:
    if "objective" not in spec:
        raise SpecError("$.objective", "this command requires an objective")
    n = spec["domain"]["dimension"]
    try:
        fn = compile_expression(spec["objective"]["expression"], vector_variables(n))
    except ExpressionError as exc:
        raise SpecError("$.objective.expression", str(exc)) from None
    return lambda x: fn(*x)


def build_certificate(spec: dict, cone: geometry.Cone,
                      F: mappings.SetValuedMap, seed: int):
    """Returns (certificate or None, info dict)."""
    c = spec.get("certificate")
    if c is None:
        return None, {"requested": None}
    kind = c["kind"]
    info: dict = {"requested": kind}
    if kind == "fixed":
        if "a" not in c:
            raise SpecError("$.certificate.a", "fixed certificate requires a rate")
        cert = increase.IncreaseCertificate(
            a=float(c["a"]), delta=math.inf, witness=None, provenance="empirical")
        return cert, info
    if kind == "linear_orthant":
        A = F.metadata.get("matrix")
        if A is None:
            raise SpecError("$.certificate",
                            "linear_orthant needs an affine_plus_cone or linear mapping")
        cert = increase.certify_linear_orthant(A, cone)
        return cert, info
    if kind == "local_nonlinear":
        if "x_bar" not in c:
            raise SpecError("$.certificate.x_bar", "local_nonlinear requires x_bar")
        f = F.metadata.get("f")
        if f is None:
            raise SpecError("$.certificate",
                            "local_nonlinear needs a single-valued mapping")
        cert = increase.certify_local_nonlinear(
            f, np.array(c["x_bar"], dtype=float), cone,
            fd_step=c.get("fd_step", 1e-6),
            initial_delta=c.get("initial_delta", 1.0), seed=seed)
        return cert, info
    # estimate
    box = _domain_box(spec)
    est = increase.estimate_increase_bound(
        F, cone, box, n_trials=c.get("n_trials", 200),
        a_max=c.get("a_max", 8.0), seed=seed)
    info["bracket"] = [est.a_low, est.a_high]
    info["n_trials"] = est.n_trials
    cert = increase.empirical_certificate(est)
    return cert, info


def _domain_box(spec: dict) -> np.ndarray:
    d = spec["domain"]
    if "box" in d:
        box = np.array(d["box"], dtype=float)
        if box.shape != (d["dimension"], 2):
            raise SpecError("$.domain.box", f"box shape {box.shape} != ({d['dimension']}, 2)")
        return box
    return np.stack([-5.0 * np.ones(d["dimension"]), 5.0 * np.ones(d["dimension"])], axis=1)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _num(x) -> object:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def tagged(value, provenance: str) -> dict:
    """A reported number with its provenance: closed-form | sampled | certificate."""
    return {"value": _num(value), "provenance": provenance}


def _vec(v) -> list:
    return [_num(t) for t in np.atleast_1d(np.asarray(v, dtype=float))]


def _residual_tag(res: mappings.Residual) -> str:
    return "closed-form" if res.exact else "sampled"


def _table(header: list[str], rows: list[list[float]]) -> str:
    lines = [" ".join(header)]
    for row in rows:
        lines.append(" ".join(format(float(v), ".12g") for v in row))
    return "\n".join(lines)


def spec_digest(spec: dict) -> str:
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def render_machine(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_human(report: dict) -> str:
    lines = [f"genequo {report['command']} (seed {report['seed']})"]

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            if set(node) == {"value", "provenance"}:
                lines.append(f"  {prefix}: {node['value']} [{node['provenance']}]")
                return
            for k in sorted(node):
                walk(f"{prefix}.{k}" if prefix else k, node[k])
        elif isinstance(node, list):
            if node and isinstance(node[0], dict):
                for i, item in enumerate(node):
                    walk(f"{prefix}[{i}]", item)
            else:
                lines.append(f"  {prefix}: {node}")
        elif isinstance(node, str) and "\n" in node:
            lines.append(f"  {prefix}:")
            lines.extend("    " + ln for ln in node.splitlines())
        else:
            lines.append(f"  {prefix}: {node}")

    for key in sorted(report):
        if key in ("command", "seed", "format_version"):
            continue
        walk(key, report[key])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(spec: dict, seed: int) -> tuple[dict, int]:
    cone = build_cone(spec)
    F = build_mapping(spec, cone)
    cert, cert_info = build_certificate(spec, cone, F, seed)
    if cert is None:
        raise SpecError("$.certificate", "solve requires a certificate block")
    params = spec.get("solve")
    if params is None:
        raise SpecError("$.solve", "solve requires a solve block with x0")
    x0 = np.array(params["x0"], dtype=float)
    tol = params.get("tol", solver.DEFAULT_TOL)
    res0 = mappings.phi(F, cone, x0)
    body: dict = {
        "certificate": {
            "a": tagged(cert.a, "certificate"),
            "delta": _num(cert.delta),
            "provenance": cert.provenance,
            **({"bracket": cert_info["bracket"]} if "bracket" in cert_info else {}),
        },
        "phi_initial": tagged(res0.phi_value, _residual_tag(res0)),
        "error_bound_rhs": tagged(res0.phi_value / (cert.a - 1.0), "certificate"),
    }
    try:
        rep = solver.solve(F, cone, x0, cert, tol=tol,
                           max_iter=params.get("max_iter", solver.DEFAULT_MAX_ITER),
                           seed=seed)
        code = 0
    except (solver.StallError, solver.MaxIterationsError,
            solver.LocalityExceededError) as err:
        rep = err.report
        code = 2
    res_final = mappings.phi(F, cone, rep.solution)
    body["run"] = {
        "status": rep.status,
        "iterations": rep.iterations,
        "solution": _vec(rep.solution),
        "phi_final": tagged(res_final.phi_value, _residual_tag(res_final)),
        "distance_traveled": tagged(rep.distance_traveled, "certificate"),
        "bound_ratio": tagged(rep.bound_ratio, "certificate"),
    }
    rows = [[k, step.phi_x, float(np.linalg.norm(step.u - step.x))]
            for k, step in enumerate(rep.trace)]
    body["plot_data"] = _table(["iteration", "phi", "step_norm"], rows)
    return body, code


def cmd_certify(spec: dict, seed: int) -> tuple[dict, int]:
    cone = build_cone(spec)
    F = build_mapping(spec, cone)
    params = spec.get("certify", {})
    try:
        cert, cert_info = build_certificate(spec, cone, F, seed)
    except (CertificationRefused, increase.WitnessValidationError) as err:
        body = {"certificate": {"refused": True, "reason": str(err),
                                "requested": spec.get("certificate", {}).get("kind")}}
        return body, 2
    if cert is None:
        raise SpecError("$.certificate", "certify requires a certificate block")
    body: dict = {"certificate": {
        "refused": False,
        "a": tagged(cert.a, "certificate"),
        "delta": _num(cert.delta),
        "provenance": cert.provenance,
        **({"bracket": cert_info["bracket"],
            "n_trials": cert_info["n_trials"]} if "bracket" in cert_info else {}),
    }}
    n_spot = params.get("n_spot_checks", 20)
    if n_spot > 0:
        box = _domain_box(spec)
        rng = np.random.default_rng(seed)
        r_spot = params.get("r_spot", 0.25 * float(np.min(box[:, 1] - box[:, 0])))
        counts = {"certified": 0, "refuted": 0, "inconclusive": 0}
        for _ in range(n_spot):
            x = rng.uniform(box[:, 0], box[:, 1])
            r = float(rng.uniform(0.1, 1.0)) * r_spot
            a_test = cert.a * (1.0 - 1e-6)
            if not math.isinf(cert.delta):
                r = min(r, 0.5 * cert.delta)
            chk = increase.check_increase_inclusion(
                F, cone, x, r, a_test, witness=cert.witness, seed=seed)
            counts[chk.verdict] += 1
        body["spot_checks"] = {"counts": counts, "n": n_spot,
                               "provenance": "sampled"}
        if counts["refuted"] > 0:
            return body, 2
    code = 0 if cert.a > 1.0 else 2
    return body, code


def _reference_from_spec(spec: dict, F, cone, params: dict):
    """Returns (points, label, mesh_radius): distance to a discrete reference
    overestimates the true distance by at most the mesh radius."""
    if "reference_points" in params:
        return np.array(params["reference_points"], dtype=float), "points", 0.0
    grid_n = params.get("reference_grid", 41)
    box = _domain_box(spec)
    probe = solver.solution_set_probe(F, cone, box, grid_n)
    pts = probe.feasible_points
    if pts.shape[0] == 0:
        raise SpecError("$.bounds", "no feasible reference point found on the grid")
    cell = (box[:, 1] - box[:, 0]) / (grid_n - 1)
    mesh_radius = 0.5 * float(np.linalg.norm(cell))
    return pts, f"grid-{grid_n}", mesh_radius


def cmd_bounds(spec: dict, seed: int) -> tuple[dict, int]:
    cone = build_cone(spec)
    F = build_mapping(spec, cone)
    params = spec.get("bounds", {})
    scope = params.get("scope", "global")
    a = params.get("a")
    if a is None:
        cert, _ = build_certificate(spec, cone, F, seed)
        if cert is None:
            raise SpecError("$.bounds.a", "provide a rate or a certificate block")
        a = cert.a
    reference, ref_kind, mesh_radius = _reference_from_spec(spec, F, cone, params)
    box = _domain_box(spec)
    body: dict = {"rate_a": tagged(a, "certificate"),
                  "reference": ref_kind,
                  "reference_slack": tagged(mesh_radius, "closed-form"),
                  "scope": scope}
    if scope == "global":
        n = params.get("samples", 100)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))
        checks = solver.verify_global_error_bound(F, cone, a, pts, reference,
                                                  reference_slack=mesh_radius)
        violations = sum(0 if c.satisfied else 1 for c in checks)
        rows = [[*c.x, c.lhs, c.rhs, 1.0 if c.satisfied else 0.0] for c in checks]
        header = vector_variables(box.shape[0]) + ["dist_to_solutions", "bound", "satisfied"]
        body["checks"] = {"n": n, "violations": violations, "provenance": "sampled"}
        body["plot_data"] = _table(header, rows)
        return body, 0 if violations == 0 else 2
    if "x_bar" not in params:
        raise SpecError("$.bounds.x_bar", "local scope requires x_bar")
    x_bar = np.array(params["x_bar"], dtype=float)
    try:
        radius, checks = solver.verify_local_error_bound(
            F, cone, x_bar, a, reference,
            initial_radius=params.get("initial_radius", 1.0),
            tol=mappings.EPS_FEAS + mesh_radius, seed=seed)
    except solver.RadiusUnderflowError as err:
        body["local"] = {"confirmed": False, "reason": str(err)}
        return body, 2
    except ValueError as err:
        raise SpecError("$.bounds.x_bar", str(err)) from None
    body["local"] = {"confirmed": True, "radius": tagged(radius, "sampled"),
                     "n_checks": len(checks)}
    return body, 0


def cmd_penalty(spec: dict, seed: int) -> tuple[dict, int]:
    cone = build_cone(spec)
    F = build_mapping(spec, cone)
    objective = build_objective(spec)
    params = spec.get("penalty")
    if params is None:
        raise SpecError("$.penalty", "penalty requires a penalty block")
    box = _domain_box(spec)
    problem = penalty_mod.ConstrainedProblem(objective, F, cone, box,
                                             x_bar=np.array(params["x_bar"], dtype=float))
    a = params.get("a")
    if a is None:
        cert, _ = build_certificate(spec, cone, F, seed)
        if cert is None:
            raise SpecError("$.penalty.a", "provide a rate or a certificate block")
        a = cert.a
    beta = params.get("beta")
    beta_tag = "closed-form"
    if beta is None:
        beta = penalty_mod.lipschitz_estimate(
            objective, problem.x_bar,
            params.get("lipschitz_radius", 1.0), seed=seed)
        beta_tag = "sampled"
    threshold = penalty_mod.penalty_threshold(beta, a)
    safety = params.get("safety_factor", penalty_mod.DEFAULT_SAFETY_FACTOR)
    resolution = params.get("resolution", 1e-2)
    radius = params.get("search_radius", 1.0)
    try:
        verdicts = [
            penalty_mod.exactness_experiment(problem, lam, search_radius=radius,
                                             resolution=resolution, threshold=threshold)
            for lam in params["lambdas"]
        ]
    except ValueError as err:
        raise SpecError("$.penalty.x_bar", str(err)) from None
    body: dict = {
        "lipschitz_beta": tagged(beta, beta_tag),
        "threshold": {
            "at_least": tagged(threshold, "certificate"),
            "with_safety_factor": tagged(threshold * safety, "certificate"),
            "note": "threshold from a sampled lower Lipschitz estimate is itself a lower estimate"
                    if beta_tag == "sampled" else "threshold from the supplied Lipschitz bound",
        },
        "verdicts": [
            {
                "lambda": _num(v.lam),
                "exact_at_x_bar": v.is_exact_at_x_bar,
                "margin": tagged(v.margin, "sampled"),
                "threshold_boundary": v.threshold_boundary,
                "minimizer": _vec(v.minimizer_found),
            }
            for v in verdicts
        ],
    }
    rows = [[v.lam, 1.0 if v.is_exact_at_x_bar else 0.0, v.margin] for v in verdicts]
    body["plot_data"] = _table(["lambda", "exact", "margin"], rows)
    if "epsilon" in params:
        chk = penalty_mod.strict_global_check(problem, params["epsilon"], beta, a,
                                              resolution=resolution)
        body["strict_global"] = {
            "lambda_eps": tagged(chk.lam_eps, "certificate"),
            "minimizer": _vec(chk.minimizer),
            "strict": chk.strict,
            "feasible": chk.feasible,
            "verdict": chk.verdict,
        }
    return body, 0


def cmd_ideal(spec: dict, seed: int) -> tuple[dict, int]:
    cone = build_cone(spec)
    F = build_mapping(spec, cone)
    params = spec.get("ideal")
    if params is None:
        raise SpecError("$.ideal", "ideal requires an ideal block with points")
    f = F.metadata.get("f")
    if f is None:
        raise SpecError("$.mapping",
                        "ideal requires a single-valued (or linear) mapping for f")
    try:
        problem = vecopt.VectorProblem(f, np.array(params["points"], dtype=float), cone)
        report = vecopt.ideal_efficient_set(problem,
                                            increase_bound=params.get("increase_bound"))
    except ValueError as err:
        raise SpecError("$.ideal.points", str(err)) from None
    body: dict = {
        "ideal": {
            "indices": [int(i) for i in report.ideal_indices],
            "points": [_vec(p) for p in report.ideal_points],
            "empty": bool(report.is_empty),
            "cone_pointed": report.pointed,
            **({"note": report.note} if report.note else {}),
        },
        "residuals": {"provenance": "closed-form",
                       "values": [_num(v) for v in report.residuals]},
    }
    if not report.is_empty:
        body["ideal"]["pareto_confirmed"] = [
            vecopt.pareto_cross_check(problem, p) for p in report.ideal_points
        ]
    code = 0
    if report.bound_checks:
        violations = sum(0 if c.satisfied else 1 for c in report.bound_checks)
        body["bound_checks"] = {"n": len(report.bound_checks),
                                 "violations": violations,
                                 "provenance": "closed-form"}
        rows = [[c.index, c.lhs, c.rhs, 1.0 if c.satisfied else 0.0]
                for c in report.bound_checks]
        body["plot_data"] = _table(["index", "dist_to_ideal", "bound", "satisfied"], rows)
        if violations > 0:
            code = 2
    return body, code


COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "bounds": cmd_bounds,
    "penalty": cmd_penalty,
    "ideal": cmd_ideal,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genequo",
        description="Experiments on generalized equations F(x) inside a convex cone.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to a JSON problem spec")
        p.add_argument("--seed", type=int, default=None,
                       help="override the spec seed (default 42)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=["human", "machine"], default="machine")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec)
        seed = args.seed if args.seed is not None else spec.get("seed", DEFAULT_SEED)
        body, code = COMMANDS[args.command](spec, seed)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CertificationRefused, increase.WitnessValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    report = {
        "format_version": FORMAT_VERSION,
        "command": args.command,
        "seed": seed,
        "spec_sha256": spec_digest(spec),
        **body,
    }
    text = render_machine(report) if args.format == "machine" else render_human(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
