"""Certify, estimate, and refute the cone-increase property of set-valued maps.

A map F increases at rate a > 1 toward the cone C when near every point x one
can move by r and fit the a*r-enlarged image inside the r-enlargement of
F(x) + C.  Certificates carry a rate, a locality radius, and a constructive
witness step; estimates bracket the best rate empirically and never claim
exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    Cone,
    Orthant,
    PlusCone,
    as_vector,
    ball_excess,
    dist_to_set,
    flatten_setrep,
    normalize,
    same_cone,
)
from .mappings import EPS_FEAS, SetValuedMap, evaluate, in_domain, single_valued
from .sampling import DEFAULT_SEED, sphere_directions

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class CertificationRefused(Exception):
    """The sufficient condition for a certificate is not met (not a disproof)."""


class WitnessValidationError(Exception):
    """A candidate witness failed numerical validation at every tried radius."""


@dataclass(eq=False)
class IncreaseCertificate:
    """Rate a > 1, locality radius delta (inf means global), and witness step.

    ``witness(x, r)`` returns a point u with d(u, x) <= r realizing the
    enlargement inclusion at rate a; for certified provenances the inclusion
    is guaranteed, for ``empirical`` certificates witness may be None.
    """

    a: float
    delta: float
    witness: Optional[Callable[[np.ndarray, float], np.ndarray]]
    provenance: str  # linear-orthant | local-nonlinear | perturbation | empirical
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.a > 1.0:
            raise ValueError("certificate rate must exceed 1")
        if not self.delta > 0.0:
            raise ValueError("locality radius must be positive")

    @property
    def is_global(self) -> bool:
        return math.isinf(self.delta)


def openness_bound_linear(matrix) -> float:
    """Exact openness bound of a linear map: smallest singular value of its adjoint.

    Zero exactly when the map is not surjective (in particular whenever the
    range dimension exceeds the domain dimension).
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix must be 2-D")
    m, n = A.shape
    if m > n:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def certify_linear_orthant(matrix, cone: Orthant) -> IncreaseCertificate:
    """Certificate at rate sqrt(m) for a linear map whose openness bound exceeds m.

    The witness moves x by the least-norm solution of matrix @ d = e_r with
    e_r = r*sqrt(m)*(1,...,1); the image shift lands a sqrt(m)*r-ball inside
    the orthant translate, hence inside the r-enlargement of the image plus
    the orthant.  Refused whenever the openness bound is <= m (the sufficient
    condition fails; the map may still increase).
    """
    if not isinstance(cone, Orthant):
        raise CertificationRefused("linear certificate requires an orthant cone")
    m = cone.dim
    if m < 2:
        raise CertificationRefused("orthant certificate needs range dimension >= 2")
    A = np.asarray(matrix, dtype=float)
    if A.shape[0] != m:
        raise CertificationRefused("matrix rows must match the cone dimension")
    lop = openness_bound_linear(A)
    if not lop > m:
        raise CertificationRefused(
            f"openness bound {lop:.6g} <= {m}; sufficient condition not met")
    pinv = np.linalg.pinv(A)
    shift_dir = math.sqrt(m) * np.ones(m)

    def witness(x: np.ndarray, r: float) -> np.ndarray:
        return as_vector(x, A.shape[1]) + pinv @ (r * shift_dir)

    return IncreaseCertificate(
        a=math.sqrt(m), delta=math.inf, witness=witness,
        provenance="linear-orthant",
        metadata={"matrix": A, "openness_bound": lop})


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                range_dim: int, step: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    J = np.zeros((range_dim, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        J[:, j] = (as_vector(f(x + e), range_dim) - as_vector(f(x - e), range_dim)) / (2 * step)
    return J


def certify_local_nonlinear(f: Callable[[np.ndarray], np.ndarray],
                            x_bar, cone: Orthant, domain_dim: Optional[int] = None,
                            fd_step: float = 1e-6, margin: float = 0.05,
                            initial_delta: float = 1.0, max_halvings: int = 20,
                            n_validation: int = 32,
                            seed: int = DEFAULT_SEED) -> IncreaseCertificate:
    """Local certificate at rate sqrt(m) for a smooth map regular at x_bar.

    Builds a finite-difference Jacobian; requires its openness bound to clear
    m by a safety margin.  The witness solves the linearized shift equation;
    the locality radius is found by halving an initial radius until the exact
    inclusion test accepts the witness on a deterministic validation sample.
    """
    if not isinstance(cone, Orthant):
        raise CertificationRefused("local certificate requires an orthant cone")
    m = cone.dim
    if m < 2:
        raise CertificationRefused("orthant certificate needs range dimension >= 2")
    x_bar = as_vector(x_bar, domain_dim)
    n = x_bar.size
    J = fd_jacobian(f, x_bar, m, fd_step)
    lop = openness_bound_linear(J)
    if not lop > m * (1.0 + margin):
        raise CertificationRefused(
            f"Jacobian openness bound {lop:.6g} <= {m * (1 + margin):.6g}")
    pinv = np.linalg.pinv(J)
    shift_dir = math.sqrt(m) * np.ones(m)

    def witness(x: np.ndarray, r: float) -> np.ndarray:
        return as_vector(x, n) + pinv @ (r * shift_dir)

    F = single_valued(f, n, m)
    a = math.sqrt(m)
    delta = float(initial_delta)
    rng = np.random.default_rng(seed)
    dirs = sphere_directions(n, n_validation, seed=seed)
    for _ in range(max_halvings + 1):
        ok = True
        for i in range(n_validation):
            x = x_bar + delta * rng.uniform(0.0, 1.0) * dirs[i]
            r = float(rng.uniform(0.1, 1.0)) * delta
            check = check_increase_inclusion(F, cone, x, r, a, candidates=[witness(x, r)])
            if check.verdict != CERTIFIED:
                ok = False
                break
        if ok:
            return IncreaseCertificate(
                a=a, delta=delta, witness=witness, provenance="local-nonlinear",
                metadata={"jacobian": J, "openness_bound": lop})
        delta *= 0.5
    raise WitnessValidationError(
        f"witness failed validation down to radius {delta:.3g}")


def perturbation_bound(cert, beta: float) -> IncreaseCertificate:
    """Rate surviving an additive Lipschitz perturbation of modulus beta.

    Requires beta < 1 - 1/a, which makes the reduced rate (1 - beta) * a
    still exceed 1; the witness is reused at the shrunken radius
    (1 - beta) * r.  Accepts a certificate or a bare rate.
    """
    if isinstance(cert, (int, float)):
        cert = IncreaseCertificate(a=float(cert), delta=math.inf, witness=None,
                                   provenance="empirical")
    if not cert.is_global:
        raise CertificationRefused("perturbation transfer needs a global certificate")
    if beta < 0:
        raise ValueError("Lipschitz modulus must be nonnegative")
    if not beta < 1.0 - 1.0 / cert.a:
        raise CertificationRefused(
            f"beta {beta:.6g} >= 1 - 1/a = {1.0 - 1.0 / cert.a:.6g}")
    a_new = (1.0 - beta) * cert.a
    base_witness = cert.witness

    witness = None
    if base_witness is not None:
        def witness(x: np.ndarray, r: float) -> np.ndarray:
            return base_witness(x, (1.0 - beta) * r)

    return IncreaseCertificate(a=a_new, delta=cert.delta, witness=witness,
                               provenance="perturbation",
                               metadata={"beta": beta, "base_a": cert.a})


# ---------------------------------------------------------------------------
# Inclusion checking
# ---------------------------------------------------------------------------

@dataclass
class InclusionCheck:
    verdict: str
    u: Optional[np.ndarray] = None
    violation: Optional[np.ndarray] = None
    n_candidates: int = 0
    note: str = ""


def _certified_at(F: SetValuedMap, cone: Cone, x: np.ndarray, u: np.ndarray,
                  r: float, a: float, tol: float = 1e-12) -> bool:
    """Exact sufficient test pairing each generator of F(u) with one of F(x).

    B(w, s) lies in the t-enlargement of q + cone exactly when the ball
    excess of w - q over the cone is at most t; this holds for every cone.
    """
    gens_u, infl_u, cone_u = flatten_setrep(evaluate(F, u))
    gens_x, infl_x, cone_x = flatten_setrep(evaluate(F, x))
    if cone_u is not None and not same_cone(cone_u, cone):
        return False
    if cone_x is not None and not same_cone(cone_x, cone):
        return False
    s = infl_u + a * r
    t = infl_x + r
    scale = max(1.0, t)
    for w in gens_u:
        best = math.inf
        for q in gens_x:
            best = min(best, ball_excess(w - q, s, cone)[0])
            if best <= t + tol * scale:
                break
        if best > t + tol * scale:
            return False
    return True


def _refuted_at(F: SetValuedMap, cone: Cone, x: np.ndarray, u: np.ndarray,
                r: float, a: float, n_probe: int, seed: int,
                tol: float = EPS_FEAS) -> Optional[np.ndarray]:
    """Search B(F(u), a*r) for a point farther than r from F(x) + cone."""
    gens_u, infl_u, _ = flatten_setrep(evaluate(F, u))
    try:
        target = normalize(PlusCone(evaluate(F, x), cone))
    except ValueError:
        return None
    dirs = sphere_directions(cone.dim, n_probe, seed=seed)
    radius = infl_u + a * r
    best_p, best_d = None, r + tol
    for w in gens_u:
        probes = np.concatenate([w.reshape(1, -1), w + radius * dirs], axis=0)
        for p in probes:
            d = dist_to_set(p, target)
            if d > best_d:
                best_p, best_d = p, d
    return best_p


def check_increase_inclusion(F: SetValuedMap, cone: Cone, x, r: float, a: float,
                             candidates: Optional[Sequence[np.ndarray]] = None,
                             witness: Optional[Callable] = None,
                             n_candidates: int = 32, n_probe: int = 64,
                             ball_fractions: Sequence[float] = (1.0, 0.5),
                             seed: int = DEFAULT_SEED,
                             mode: str = "auto") -> InclusionCheck:
    """Check the enlargement inclusion of the increase property at one (x, r).

    Searches candidate steps u in the closed ball B(x, r) (an explicit
    witness first, then sampled sphere points).  A candidate certifies via
    the exact generator-pairing test, available for every cone; it is
    refuted when a sampled point of the enlarged image provably escapes the
    enlarged target.  ``refuted`` overall only means no sampled candidate
    works; anything else that fails to certify is inconclusive.
    """
    if r <= 0 or a <= 1:
        raise ValueError("requires r > 0 and a > 1")
    x = as_vector(x, F.domain_dim)
    cands: list[np.ndarray] = []
    if witness is not None:
        u = as_vector(witness(x, r), F.domain_dim)
        if np.linalg.norm(u - x) <= r * (1 + 1e-9):
            cands.append(u)
    if candidates is not None:
        cands.extend(as_vector(c, F.domain_dim) for c in candidates)
    else:
        count = 2 if F.domain_dim == 1 else n_candidates
        dirs = sphere_directions(F.domain_dim, count, seed=seed)
        for frac in ball_fractions:
            cands.extend(x + r * frac * d for d in dirs)
        cands.append(x.copy())
    # Admissible steps must stay in the declared domain.
    cands = [u for u in cands if in_domain(F, u)]
    if not cands:
        return InclusionCheck(INCONCLUSIVE, note="no admissible candidate step")

    if mode in ("auto", "depth"):
        for u in cands:
            if _certified_at(F, cone, x, u, r, a):
                return InclusionCheck(CERTIFIED, u=u, n_candidates=len(cands))
    if mode == "depth":
        return InclusionCheck(INCONCLUSIVE, n_candidates=len(cands),
                              note="no candidate passed the exact pairing test")

    all_refuted = True
    first_violation = None
    for u in cands:
        p = _refuted_at(F, cone, x, u, r, a, n_probe, seed)
        if p is None:
            all_refuted = False
        elif first_violation is None:
            first_violation = p
    if all_refuted and cands:
        return InclusionCheck(REFUTED, violation=first_violation,
                              n_candidates=len(cands),
                              note="every sampled candidate step was refuted")
    return InclusionCheck(INCONCLUSIVE, n_candidates=len(cands))


# ---------------------------------------------------------------------------
# Empirical rate estimation
# ---------------------------------------------------------------------------

@dataclass
class IncreaseEstimate:
    """Empirical bracket [a_low, a_high] for the best admissible rate.

    a_low is the largest tested rate at which no sampled (x, r) pair was
    refuted; a_high the smallest refuted rate.  A heuristic estimate from
    finite samples, never an exact bound; [1, 1] means no evidence of
    increase at all.
    """

    a_low: float
    a_high: float
    n_trials: int
    note: str = ""

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.a_low, self.a_high)


def _region_box(region, domain_dim: int) -> np.ndarray:
    if isinstance(region, tuple) and len(region) == 2 and np.isscalar(region[1]):
        center = as_vector(region[0], domain_dim)
        delta = float(region[1])
        return np.stack([center - delta, center + delta], axis=1)
    box = np.asarray(region, dtype=float)
    if box.ndim == 1 and box.size == 2:
        box = box.reshape(1, 2)
    return box


def estimate_increase_bound(F: SetValuedMap, cone: Cone, region,
                            n_trials: int = 200, a_max: float = 8.0,
                            tol_a: float = 0.05, r_range=None,
                            witness: Optional[Callable] = None,
                            n_candidates: int = 32, n_probe: int = 64,
                            seed: int = DEFAULT_SEED) -> IncreaseEstimate:
    """Bisect for the largest rate surviving the inclusion check on samples.

    The same deterministic (x, r) sample set is replayed at every rate
    level; a level passes when no pair is refuted (certified or
    inconclusive both count as surviving).
    """
    box = _region_box(region, F.domain_dim)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(box[:, 0], box[:, 1], size=(n_trials, box.shape[0]))
    if r_range is None:
        scale = 0.5 * float(np.min(box[:, 1] - box[:, 0]))
        r_range = (0.1 * scale, scale)
    rs = rng.uniform(r_range[0], r_range[1], size=n_trials)

    def survives(a: float) -> bool:
        for x, r in zip(xs, rs):
            check = check_increase_inclusion(
                F, cone, x, float(r), a, witness=witness,
                n_candidates=n_candidates, n_probe=n_probe, seed=seed)
            if check.verdict == REFUTED:
                return False
        return True

    lo = 1.0 + tol_a
    if not survives(lo):
        return IncreaseEstimate(1.0, 1.0, n_trials, "no evidence of increase")
    if survives(a_max):
        return IncreaseEstimate(a_max, a_max, n_trials,
                                "never refuted up to the search ceiling")
    a_pass, a_fail = lo, a_max
    while a_fail - a_pass > tol_a:
        mid = 0.5 * (a_pass + a_fail)
        if survives(mid):
            a_pass = mid
        else:
            a_fail = mid
    return IncreaseEstimate(a_pass, a_fail, n_trials)


def empirical_certificate(estimate: IncreaseEstimate,
                          delta: float = math.inf) -> IncreaseCertificate:
    """Wrap an estimate's conservative end as a witness-free certificate."""
    if not estimate.a_low > 1.0:
        raise CertificationRefused("estimate carries no evidence of increase")
    return IncreaseCertificate(a=estimate.a_low, delta=delta, witness=None,
                               provenance="empirical",
                               metadata={"bracket": estimate.bracket})
