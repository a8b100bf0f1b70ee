"""Cones, set representations, and the excess calculus in Euclidean range space.

Distances and excesses are computed in closed form wherever the Euclidean
identities allow it (finite point clouds, balls, cone sums, enlargements);
everything else falls back to a deterministic sampling oracle that reports a
certified lower bound, never an exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import nnls

from .sampling import DEFAULT_SEED, cone_ray_directions, sphere_directions

EPS_PROJ = 1e-10
# Face slack, relative to |y|, within which a point counts as a member of a
# polyhedral cone: rounding in A @ y reaches a few ulps of |y|.
EPS_MEMBER = 1e-12
DEFAULT_ORACLE_SAMPLES = 4096

# Provenance tags carried by every computed excess.
CLOSED_FORM = "closed-form"
FINITE_MAX = "finite-max"
SAMPLED = "sampled-lower-bound"
VACUOUS = "vacuous"
EMPTY_TARGET = "empty-target"


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


def as_vector(y, dim: Optional[int] = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(y, dtype=float))
    if v.ndim != 1:
        raise ValueError("expected a flat coordinate vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_point_array(points, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a (k, m) float array; k may be zero for an empty cloud."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        if dim is None:
            dim = arr.shape[1] if arr.ndim == 2 else 0
        return arr.reshape(0, dim)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("expected a list of coordinate vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[1]}")
    return arr


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

class Cone:
    """A nonempty closed convex cone in R^m with exact nearest-point projection.

    ``normals`` holds the unit outward face normals, one per row, so that the
    cone is {y : normals @ y <= 0}.
    """

    dim: int
    normals: np.ndarray

    def project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, y) -> float:
        y = as_vector(y, self.dim)
        return float(np.linalg.norm(y - self.project(y)))

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        pts = as_point_array(points, self.dim)
        return np.array([self.distance(p) for p in pts])

    def contains(self, y, tol: float = EPS_PROJ) -> bool:
        return self.distance(y) <= tol

    def depth(self, z) -> float:
        """Largest t with B(z, t) contained in the cone; negative when z is outside.

        Inside the cone this is the distance to the nearest face hyperplane.
        """
        return float(np.min(-(self.normals @ as_vector(z, self.dim))))


@dataclass(eq=False)
class Orthant(Cone):
    """Componentwise-nonnegative orthant R^m_+."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("orthant dimension must be >= 1")
        self.normals = -np.eye(self.dim)

    def project(self, y):
        return np.maximum(as_vector(y, self.dim), 0.0)

    def distance(self, y):
        y = as_vector(y, self.dim)
        return float(np.linalg.norm(np.minimum(y, 0.0)))

    def distance_many(self, points):
        pts = as_point_array(points, self.dim)
        return np.linalg.norm(np.minimum(pts, 0.0), axis=1)


@dataclass(eq=False)
class NonnegHalfLine(Cone):
    """The half-line [0, +inf) as a cone in R^1."""

    dim: int = field(default=1, init=False)
    normals = np.array([[-1.0]])

    def project(self, y):
        return np.maximum(as_vector(y, 1), 0.0)

    def distance(self, y):
        return float(max(-as_vector(y, 1)[0], 0.0))

    def distance_many(self, points):
        pts = as_point_array(points, 1)
        return np.maximum(-pts[:, 0], 0.0)


@dataclass(eq=False)
class NonposHalfLine(Cone):
    """The half-line (-inf, 0] as a cone in R^1."""

    dim: int = field(default=1, init=False)
    normals = np.array([[1.0]])

    def project(self, y):
        return np.minimum(as_vector(y, 1), 0.0)

    def distance(self, y):
        return float(max(as_vector(y, 1)[0], 0.0))

    def distance_many(self, points):
        pts = as_point_array(points, 1)
        return np.maximum(pts[:, 0], 0.0)


@dataclass(eq=False)
class PolyhedralCone(Cone):
    """Cone {y : A y <= 0}, projected exactly through Moreau's decomposition.

    The polar cone is cone(A^T), so y = P(y) + A^T lam with lam the
    nonnegative least-squares solution of A^T lam ~ y (Lawson-Hanson
    active set, finite).
    """

    matrix: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1:
            raise ValueError("constraint matrix must be 2-D with >= 1 row")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms < 1e-14):
            raise ValueError("constraint rows must be nonzero")
        self.matrix = A
        self.normals = A / norms[:, None]

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.matrix.shape[1]

    def project(self, y):
        y = as_vector(y, self.dim)
        # Members up to rounding are returned as they are: NNLS started from a
        # rounding-level gradient can end far from the projection.
        if np.all(self.normals @ y <= EPS_MEMBER * np.linalg.norm(y)):
            return y.copy()
        A = self.matrix
        return y - A.T @ nnls(A.T, y)[0]


def same_cone(c1: Cone, c2: Cone) -> bool:
    if type(c1) is not type(c2):
        return False
    if isinstance(c1, PolyhedralCone):
        return c1.matrix.shape == c2.matrix.shape and np.array_equal(c1.matrix, c2.matrix)
    return c1.dim == c2.dim


def cone_sanity_probe(cone: Cone, n_samples: int = 64, seed: int = DEFAULT_SEED,
                      tol: float = 1e-8) -> bool:
    """Sampled check that the object behaves like a closed convex cone.

    Verifies membership of the origin, closure under nonnegative scaling of
    projected sample points, and midpoint convexity.  A diagnostic, not a
    proof.
    """
    zero = np.zeros(cone.dim)
    if cone.distance(zero) > tol:
        return False
    dirs = sphere_directions(cone.dim, n_samples, seed=seed)
    members = np.array([cone.project(d) for d in dirs])
    for scale in (0.0, 0.5, 2.0, 17.0):
        for p in members:
            if cone.distance(scale * p) > tol * max(1.0, scale):
                return False
    for i in range(len(members) - 1):
        mid = 0.5 * (members[i] + members[i + 1])
        if cone.distance(mid) > tol:
            return False
    return True


def project_to_cone(y, cone: Cone) -> np.ndarray:
    """Nearest point of the cone; exact for every cone variant."""
    return cone.project(as_vector(y, cone.dim))


def dist_to_cone(y, cone: Cone) -> float:
    return cone.distance(as_vector(y, cone.dim))


def ball_excess(z, s: float, cone: Cone) -> tuple[float, np.ndarray]:
    """Exact sup of dist(., cone) over the ball B(z, s), and a point attaining it.

    Outside the cone the sup is dist(z, cone) + s, attained along z - P(z).
    Inside it is (s - depth(z))_+: B(z, depth) lies in the cone, and stepping
    s along the normal of the nearest face gets that far from its hyperplane.
    Within EPS_PROJ of the cone z - P(z) is too small to give a direction
    (rounding, underflow), so the face normal is used there as well; it
    realises the value up to EPS_PROJ.
    """
    z = as_vector(z, cone.dim)
    gap = z - cone.project(z)
    d = float(np.linalg.norm(gap))
    value = d + s if d > 0.0 else max(0.0, s - cone.depth(z))
    if d > EPS_PROJ * max(1.0, float(np.linalg.norm(z))):
        return value, z + s * gap / d
    return value, z + s * cone.normals[int(np.argmax(cone.normals @ z))]


def orthant_depth(w, q) -> float:
    """Largest t such that B(w, t) lies in q + R^m_+; equals min_i (w_i - q_i)."""
    w = as_vector(w)
    q = as_vector(q, w.size)
    return float(np.min(w - q))


# ---------------------------------------------------------------------------
# Set representations
# ---------------------------------------------------------------------------

class SetRep:
    """A representable subset of R^m."""

    dim: int

    @property
    def is_empty(self) -> bool:
        return False


@dataclass(eq=False)
class FinitePoints(SetRep):
    points: np.ndarray

    def __post_init__(self):
        self.points = as_point_array(self.points)

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.points.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0


@dataclass(eq=False)
class Ball(SetRep):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_vector(self.center)
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        self.radius = float(self.radius)

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.center.size


@dataclass(eq=False)
class PlusCone(SetRep):
    """Minkowski sum base + cone."""

    base: SetRep
    cone: Cone

    def __post_init__(self):
        if self.base.dim != self.cone.dim:
            raise DimensionMismatch("base and cone dimensions differ")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.cone.dim

    @property
    def is_empty(self) -> bool:
        return self.base.is_empty


@dataclass(eq=False)
class Enlargement(SetRep):
    """All points at distance <= r from the base set."""

    base: SetRep
    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("enlargement radius must be nonnegative")
        self.r = float(self.r)

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.base.dim

    @property
    def is_empty(self) -> bool:
        return self.base.is_empty


def normalize(s: SetRep) -> SetRep:
    """Canonical form: optional Enlargement over optional PlusCone over a base.

    Flattens stacked enlargements (radii add), collapses repeated sums with
    the same cone, pushes cone sums inside enlargements, and rewrites
    single-point enlargements as balls.  All rewrites are exact identities of
    closed sets in Euclidean space.
    """
    if isinstance(s, FinitePoints):
        return s
    if isinstance(s, Ball):
        return s
    if isinstance(s, Enlargement):
        base = normalize(s.base)
        r = s.r
        if isinstance(base, Enlargement):
            return normalize(Enlargement(base.base, base.r + r))
        if r == 0.0:
            return base
        if isinstance(base, Ball):
            return Ball(base.center, base.radius + r)
        if isinstance(base, FinitePoints) and base.points.shape[0] == 1:
            return Ball(base.points[0], r)
        return Enlargement(base, r)
    if isinstance(s, PlusCone):
        base = normalize(s.base)
        if isinstance(base, PlusCone):
            if same_cone(base.cone, s.cone):
                return PlusCone(base.base, s.cone)
            raise ValueError("nested sums with different cones are not supported")
        if isinstance(base, Enlargement):
            return normalize(Enlargement(PlusCone(base.base, s.cone), base.r))
        if isinstance(base, Ball) and base.radius > 0.0:
            # ball + cone == enlargement of (center + cone)
            return Enlargement(PlusCone(FinitePoints(base.center), s.cone), base.radius)
        if isinstance(base, Ball):
            base = FinitePoints(base.center)
        return PlusCone(base, s.cone)
    raise TypeError(f"not a set representation: {type(s).__name__}")


def dist_to_set(y, s: SetRep) -> float:
    """Euclidean distance from a point to a represented set; +inf if empty."""
    s = normalize(s)
    y = as_vector(y, s.dim)
    if s.is_empty:
        return math.inf
    if isinstance(s, FinitePoints):
        return float(np.min(np.linalg.norm(s.points - y, axis=1)))
    if isinstance(s, Ball):
        return max(0.0, float(np.linalg.norm(y - s.center)) - s.radius)
    if isinstance(s, PlusCone):
        base = s.base
        if isinstance(base, FinitePoints):
            return float(min(s.cone.distance(y - p) for p in base.points))
        raise TypeError("unexpected normalized base under cone sum")
    if isinstance(s, Enlargement):
        return max(0.0, dist_to_set(y, s.base) - s.r)
    raise TypeError(f"not a set representation: {type(s).__name__}")


def flatten_setrep(s: SetRep) -> tuple[np.ndarray, float, Optional[Cone]]:
    """Decompose a normalized set as (generator points, inflation radius, cone).

    The set equals {generators} (+ cone, if any) fattened by the inflation
    radius.  Exact for every normalized representation.
    """
    s = normalize(s)
    inflation = 0.0
    cone = None
    if isinstance(s, Enlargement):
        inflation = s.r
        s = s.base
    if isinstance(s, PlusCone):
        cone = s.cone
        s = s.base
    if isinstance(s, Ball):
        return s.center.reshape(1, -1), inflation + s.radius, cone
    if isinstance(s, FinitePoints):
        return s.points, inflation, cone
    raise TypeError("unexpected normalized form")


def cone_as_setrep(cone: Cone) -> PlusCone:
    """The cone itself, written as {0} + cone."""
    return PlusCone(FinitePoints(np.zeros((1, cone.dim))), cone)


def _is_cone_rep(s: SetRep) -> Optional[Cone]:
    if isinstance(s, PlusCone) and isinstance(s.base, FinitePoints):
        pts = s.base.points
        if pts.shape[0] == 1 and np.all(pts == 0.0):
            return s.cone
    return None


@dataclass
class ExcessValue:
    """sup over the left set of the distance to the right set.

    ``method`` records provenance: exact evaluations are tagged
    ``closed-form`` or ``finite-max``; sampling yields a certified lower
    bound tagged ``sampled-lower-bound`` with the sample count.
    """

    value: float
    attained_at: Optional[np.ndarray] = None
    method: str = FINITE_MAX
    n_samples: int = 0

    @property
    def exact(self) -> bool:
        return self.method in (CLOSED_FORM, FINITE_MAX)


def _sample_set(s: SetRep, n_dirs: int, seed: int,
                ray_scales: tuple[float, ...] = (1.0, 4.0, 16.0)) -> np.ndarray:
    """Deterministic point samples from a normalized set representation."""
    generators, inflation, cone = flatten_setrep(s)
    samples = [generators]
    if cone is not None:
        rays = cone_ray_directions(cone, min(n_dirs, 64), seed=seed)
        for scale in ray_scales:
            for g in generators:
                samples.append(g + scale * rays)
    base = np.concatenate(samples, axis=0)
    if inflation > 0.0:
        dim = s.dim
        dirs = sphere_directions(dim, n_dirs, seed=seed)
        shells = [base]
        for g in base:
            shells.append(g + inflation * dirs)
        base = np.concatenate(shells, axis=0)
    return base


def excess_sampled(s1: SetRep, s2: SetRep, n_dirs: int = DEFAULT_ORACLE_SAMPLES,
                   seed: int = DEFAULT_SEED) -> ExcessValue:
    """Sampling oracle: certified lower bound on the excess of s1 over s2."""
    s1 = normalize(s1)
    s2 = normalize(s2)
    if s1.is_empty:
        return ExcessValue(-math.inf, None, VACUOUS)
    if s2.is_empty:
        return ExcessValue(math.inf, None, EMPTY_TARGET)
    pts = _sample_set(s1, n_dirs, seed)
    dists = np.array([dist_to_set(p, s2) for p in pts])
    k = int(np.argmax(dists))
    return ExcessValue(float(dists[k]), pts[k], SAMPLED, n_samples=len(pts))


def _strip_same_cone(s: SetRep, cone: Cone) -> SetRep:
    """Erase + cone layers matching the target cone; preserves the excess."""
    if isinstance(s, PlusCone) and same_cone(s.cone, cone):
        return _strip_same_cone(s.base, cone)
    if isinstance(s, Enlargement):
        return Enlargement(_strip_same_cone(s.base, cone), s.r)
    return s


def excess_to_cone(s: SetRep, cone: Cone, n_dirs: int = DEFAULT_ORACLE_SAMPLES,
                   seed: int = DEFAULT_SEED) -> ExcessValue:
    """Excess of a represented set over a cone, closed form where available.

    Sums with the target cone are erased first (they never change the
    excess).  Finite clouds evaluate exactly; balls and enlargements of
    finite clouds take the largest ``ball_excess`` over their centers.  Only
    a sum with a different cone is sampled, tagged as a lower bound.
    """
    s = normalize(s)
    if s.dim != cone.dim:
        raise DimensionMismatch("set and cone dimensions differ")
    if s.is_empty:
        return ExcessValue(-math.inf, None, VACUOUS)
    s = normalize(_strip_same_cone(s, cone))

    if isinstance(s, FinitePoints):
        dists = cone.distance_many(s.points)
        k = int(np.argmax(dists))
        return ExcessValue(float(dists[k]), s.points[k].copy(), FINITE_MAX)

    if isinstance(s, Ball):
        value, attained = ball_excess(s.center, s.radius, cone)
        return ExcessValue(value, attained, CLOSED_FORM if s.radius > 0.0 else FINITE_MAX)

    if isinstance(s, Enlargement) and isinstance(s.base, FinitePoints):
        value, attained = max((ball_excess(p, s.r, cone) for p in s.base.points),
                              key=lambda exc: exc[0])
        return ExcessValue(value, attained, CLOSED_FORM)

    # Sum with a different cone: unbounded set, sampled lower bound only.
    return excess_sampled(s, cone_as_setrep(cone), n_dirs=n_dirs, seed=seed)


def excess(s1: SetRep, s2: SetRep, n_dirs: int = DEFAULT_ORACLE_SAMPLES,
           seed: int = DEFAULT_SEED) -> ExcessValue:
    """Excess of s1 over s2: sup over s1 of the distance to s2.

    Exact for a finite left cloud over any representable target, and for any
    left set over a cone written as a set unless it sums a different cone;
    other combinations report a sampled lower bound.  An empty right argument yields +inf; an empty left
    argument is vacuous (-inf).
    """
    s1 = normalize(s1)
    s2 = normalize(s2)
    if s1.dim != s2.dim:
        raise DimensionMismatch("set dimensions differ")
    if s1.is_empty:
        return ExcessValue(-math.inf, None, VACUOUS)
    if s2.is_empty:
        return ExcessValue(math.inf, None, EMPTY_TARGET)
    target_cone = _is_cone_rep(s2)
    if target_cone is not None:
        return excess_to_cone(s1, target_cone, n_dirs=n_dirs, seed=seed)
    if isinstance(s1, FinitePoints):
        dists = np.array([dist_to_set(p, s2) for p in s1.points])
        k = int(np.argmax(dists))
        return ExcessValue(float(dists[k]), s1.points[k].copy(), FINITE_MAX)
    return excess_sampled(s1, s2, n_dirs=n_dirs, seed=seed)


@dataclass
class InclusionRefutation:
    """Outcome of testing B(S, a*r) against B(S + cone, r) by excess comparison."""

    lhs: ExcessValue
    rhs: ExcessValue
    refuted: bool
    note: str = ""


def refute_enlargement_inclusion(s: SetRep, cone: Cone, a: float, r: float,
                                 tol: float = 1e-12) -> InclusionRefutation:
    """Refute B(S, a*r) being inside B(S + cone, r) for a > 1, r > 0.

    Were the inclusion true, the excess of the left set over the cone could
    not exceed that of the right set; the additive identities give the left
    set excess(S) + a*r and the right excess(S) + r, a contradiction whenever
    excess(S) is positive.  Inconclusive (not refuted) when S sits inside the
    cone, where the additive form does not apply.
    """
    if a <= 1.0 or r <= 0.0:
        raise ValueError("requires a > 1 and r > 0")
    base = excess_to_cone(s, cone)
    if not (base.value > 0.0):
        return InclusionRefutation(base, base, False,
                                   "base excess not positive; additivity unavailable")
    lhs = excess_to_cone(Enlargement(s, a * r), cone)
    rhs = excess_to_cone(Enlargement(PlusCone(s, cone), r), cone)
    scale = max(1.0, abs(rhs.value))
    return InclusionRefutation(lhs, rhs, lhs.value > rhs.value + tol * scale)
