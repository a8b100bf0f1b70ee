import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from genequo.geometry import (
    Ball,
    DimensionMismatch,
    Enlargement,
    FinitePoints,
    NonnegHalfLine,
    NonposHalfLine,
    Orthant,
    PlusCone,
    PolyhedralCone,
    ball_excess,
    cone_as_setrep,
    cone_sanity_probe,
    dist_to_cone,
    dist_to_set,
    excess,
    excess_sampled,
    excess_to_cone,
    normalize,
    orthant_depth,
    project_to_cone,
    refute_enlargement_inclusion,
)


def halfspace_projection_oracle(y, a):
    """Nearest point of {z : a.z <= 0}: y - (a.y)_+ a / |a|^2."""
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    return y - max(0.0, a @ y) / (a @ a) * a


# ---------------------------------------------------------------------------
# Projections and distances
# ---------------------------------------------------------------------------

def test_orthant_projection_clamps():
    assert np.allclose(project_to_cone([-3, 4], Orthant(2)), [0, 4])


def test_projection_identity_on_cone():
    assert np.allclose(project_to_cone([2, 1], Orthant(2)), [2, 1])


def test_polyhedral_halfspace_projection():
    cone = PolyhedralCone([[1, 1]])
    p = project_to_cone([1.0, 1.0], cone)
    oracle = halfspace_projection_oracle([1.0, 1.0], [1.0, 1.0])
    assert np.allclose(p, oracle, atol=1e-9)
    assert np.allclose(p, [0.0, 0.0], atol=1e-9)


def test_polyhedral_projection_variational_inequality():
    # p = proj(y) iff (y - p).(z - p) <= 0 for all z in the cone
    cone = PolyhedralCone([[1.0, 2.0], [-1.0, 0.5]])
    rng = np.random.default_rng(3)
    members = [cone.project(rng.normal(size=2) * 3) for _ in range(50)]
    for _ in range(20):
        y = rng.normal(size=2) * 4
        p = cone.project(y)
        assert np.all(cone.matrix @ p <= 1e-8)
        for z in members:
            assert (y - p) @ (z - p) <= 1e-7


# Cones with a nearly redundant face: (rows, point, exact projection by NNLS).
# Iterating half-space projections until a tolerance ran out of sweeps on
# each of them.
NEAR_REDUNDANT_PROBES = [
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


@pytest.mark.parametrize("rows, y, expected", NEAR_REDUNDANT_PROBES)
def test_projection_with_near_redundant_faces(rows, y, expected):
    A, y = np.array(rows), np.array(y)
    p = PolyhedralCone(A).project(y)
    assert np.linalg.norm(p - expected) <= 1e-9
    assert np.all(A @ p <= 1e-9)
    assert abs(p @ (y - p)) <= 1e-9


@st.composite
def polyhedral_cones(draw):
    """Random cones {y : A y <= 0} in R^2..R^4, degenerate ones included.

    Entries on a 1/16 grid still give repeated, opposite and dependent rows
    (flats, lineality spaces, the cone {0}) but keep the conditioning of the
    rows bounded, so the 1e-9 tolerances below measure the algorithm.
    """
    m = draw(st.integers(2, 4))
    entry = st.integers(-16, 16).map(lambda v: v / 16)
    row = st.lists(entry, min_size=m, max_size=m).filter(lambda r: any(r))
    return PolyhedralCone(draw(st.lists(row, min_size=1, max_size=6)))


def points(m):
    return st.lists(st.floats(-5, 5), min_size=m, max_size=m).map(np.array)


@settings(max_examples=200, deadline=None)
@given(cone=polyhedral_cones(), data=st.data())
def test_moreau_decomposition(cone, data):
    # y = P(y) + v with P(y) in the cone, v in the polar cone(A^T), P(y) . v = 0
    y = data.draw(points(cone.dim))
    p = cone.project(y)
    v = y - p
    tol = 1e-9 * max(1.0, np.linalg.norm(y))
    assert np.all(cone.matrix @ p <= tol)
    assert nnls(cone.matrix.T, v)[1] <= tol
    assert abs(p @ v) <= tol


@settings(max_examples=100, deadline=None)
@given(cone=polyhedral_cones(), data=st.data(), s=st.floats(0, 3),
       onto_cone=st.booleans())
def test_ball_excess_is_exact(cone, data, s, onto_cone):
    z = data.draw(points(cone.dim))
    if onto_cone:
        z = cone.project(z)
    value, attained = ball_excess(z, s, cone)
    tol = 1e-9 * max(1.0, np.linalg.norm(z) + s)
    assert np.linalg.norm(attained - z) <= s + tol
    assert abs(cone.distance(attained) - value) <= tol
    sampled = excess_sampled(Ball(z, s), cone_as_setrep(cone), n_dirs=64)
    assert sampled.value <= value + tol


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 4), data=st.data(), s=st.floats(0, 3))
def test_polyhedral_minus_identity_is_the_orthant(m, data, s):
    y = data.draw(points(m))
    orthant, poly = Orthant(m), PolyhedralCone(-np.eye(m))
    assert np.allclose(poly.project(y), orthant.project(y), rtol=0, atol=1e-12)
    assert poly.depth(y) == orthant.depth(y)
    (v_poly, at_poly), (v_orth, at_orth) = ball_excess(y, s, poly), ball_excess(y, s, orthant)
    assert v_poly == pytest.approx(v_orth, abs=1e-12)
    # attaining points need not coincide, but both must realise the value
    for attained in (at_poly, at_orth):
        assert orthant.distance(attained) == pytest.approx(v_orth, abs=1e-9)


def test_dist_examples():
    assert dist_to_cone([-3, 4], Orthant(2)) == pytest.approx(3.0)
    assert dist_to_cone([-1, -1], Orthant(2)) == pytest.approx(math.sqrt(2))
    assert dist_to_cone([-6, 8], Orthant(2)) == pytest.approx(6.0)


def test_halfline_distances():
    assert dist_to_cone([3.0], NonposHalfLine()) == pytest.approx(3.0)
    assert dist_to_cone([-3.0], NonposHalfLine()) == 0.0
    assert dist_to_cone([-2.0], NonnegHalfLine()) == pytest.approx(2.0)


@settings(max_examples=50, deadline=None)
@given(
    y=st.lists(st.floats(-100, 100), min_size=2, max_size=2),
    t=st.floats(1e-3, 1e3),
)
def test_positive_homogeneity(y, t):
    cone = Orthant(2)
    d1 = dist_to_cone(np.array(y) * t, cone)
    d2 = t * dist_to_cone(y, cone)
    assert abs(d1 - d2) <= 1e-9 * max(1.0, d2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_to_cone([1.0, 2.0, 3.0], Orthant(2))


def test_cone_sanity_probes():
    assert cone_sanity_probe(Orthant(3))
    assert cone_sanity_probe(NonnegHalfLine())
    assert cone_sanity_probe(NonposHalfLine())
    assert cone_sanity_probe(PolyhedralCone([[1, 1], [1, -2]]))


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------

def test_orthant_depth_examples():
    assert orthant_depth([3, 5], [1, 1]) == pytest.approx(2.0)
    assert orthant_depth([1, 1], [1, 1]) == 0.0
    assert orthant_depth([0, 5], [1, 1]) == pytest.approx(-1.0)


def test_depth_characterizes_ball_inclusion():
    # B(w, t) inside q + orthant iff t <= depth
    rng = np.random.default_rng(7)
    cone = Orthant(3)
    for _ in range(20):
        q = rng.normal(size=3)
        w = q + rng.uniform(0.1, 2.0, size=3)
        d = orthant_depth(w, q)
        inside = w - (d - 1e-9) * np.eye(3)
        for row in inside:
            assert cone.contains(row - q, tol=1e-8)
        outside = w.copy()
        outside[np.argmin(w - q)] -= d + 1e-6
        assert not cone.contains(outside - q, tol=1e-8)


# ---------------------------------------------------------------------------
# Excess calculus
# ---------------------------------------------------------------------------

def test_excess_finite_points_over_cone():
    res = excess(FinitePoints([[-3, 4], [1, 1]]), cone_as_setrep(Orthant(2)))
    assert res.value == pytest.approx(3.0)
    assert np.allclose(res.attained_at, [-3, 4])
    assert res.exact


def test_excess_ball_additivity_example():
    res = excess(Ball([-3, 4], 2), cone_as_setrep(Orthant(2)))
    assert res.value == pytest.approx(5.0, abs=1e-12)
    assert res.method == "closed-form"


def test_excess_enlargement_additivity_example():
    res = excess(Enlargement(FinitePoints([[-3, 4], [1, 1]]), 1), cone_as_setrep(Orthant(2)))
    assert res.value == pytest.approx(4.0, abs=1e-12)


def test_excess_to_cone_erases_cone_sum():
    C = Orthant(2)
    res = excess_to_cone(PlusCone(FinitePoints([[-3, 4]]), C), C)
    assert res.value == pytest.approx(3.0)
    assert excess_to_cone(FinitePoints([[1, 2]]), C).value == 0.0


def test_excess_ball_plus_cone_with_sampling_oracle():
    C = Orthant(2)
    s = PlusCone(Ball([-3, 4], 2), C)
    res = excess_to_cone(s, C)
    assert res.value == pytest.approx(5.0, abs=1e-12)
    oracle = excess_sampled(s, cone_as_setrep(C), n_dirs=2048)
    assert oracle.value <= res.value + 1e-12
    assert oracle.value >= res.value - 1e-3


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_ball_excess_additive_law_random(m):
    # closed form dist + r, attained along the outward normal direction
    cone = Orthant(m)
    rng = np.random.default_rng(m)
    hits = 0
    while hits < 50:
        y = rng.uniform(-5, 5, size=m)
        if cone.distance(y) <= 1e-9:
            continue
        hits += 1
        r = rng.uniform(1e-3, 10.0)
        res = excess_to_cone(Ball(y, r), cone)
        d = cone.distance(y)
        assert res.value == pytest.approx(d + r, abs=1e-12)
        p = cone.project(y)
        v = r * (y - p) / np.linalg.norm(y - p)
        assert cone.distance(y + v) == pytest.approx(d + r, abs=1e-9)


def test_ball_excess_additive_law_polyhedral():
    cone = PolyhedralCone([[1.0, 1.0], [0.5, -1.0]])
    rng = np.random.default_rng(11)
    hits = 0
    while hits < 20:
        y = rng.uniform(-4, 4, size=2)
        d = cone.distance(y)
        if d <= 1e-6:
            continue
        hits += 1
        r = rng.uniform(0.1, 10.0)
        res = excess_to_cone(Ball(y, r), cone)
        assert res.value == pytest.approx(d + r, abs=1e-9)


def test_enlargement_excess_additive_law_random():
    cone = Orthant(3)
    rng = np.random.default_rng(23)
    for _ in range(50):
        pts = rng.uniform(-4, 4, size=(rng.integers(1, 8), 3))
        base = excess_to_cone(FinitePoints(pts), cone)
        if base.value <= 0:
            continue
        r = rng.uniform(1e-3, 5.0)
        res = excess_to_cone(Enlargement(FinitePoints(pts), r), cone)
        assert res.value == pytest.approx(base.value + r, abs=1e-12)


def test_ball_inside_cone_is_closed_form():
    # (radius - depth)_+: zero deep inside, 0.5 when the ball pokes out by 0.5;
    # an enlarged cloud takes the shallowest of its points
    cone = Orthant(2)
    cases = ((Ball([5.0, 5.0], 1.0), 0.0), (Ball([0.5, 5.0], 1.0), 0.5),
             (Enlargement(FinitePoints([[1.0, 3.0], [4.0, 4.0]]), 2.0), 1.0))
    for s, expected in cases:
        res = excess_to_cone(s, cone)
        assert res.value == expected
        assert res.method == "closed-form"
        assert cone.distance(res.attained_at) == pytest.approx(res.value, abs=1e-9)
        oracle = excess_sampled(s, cone_as_setrep(cone))
        assert oracle.value <= res.value + 1e-12


def test_scaling_inequality_toward_cone():
    # dist(y + alpha (y - c), C) >= (1 + alpha) dist(y, C) for c in C
    cone = Orthant(2)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        y = rng.uniform(-5, 5, size=2)
        if cone.distance(y) <= 1e-9:
            continue
        checked += 1
        c = cone.project(rng.uniform(-5, 5, size=2))
        alpha = rng.uniform(1e-3, 4.0)
        lhs = cone.distance(y + alpha * (y - c))
        rhs = (1 + alpha) * cone.distance(y)
        assert lhs >= rhs - 1e-10 * max(1.0, rhs)


@pytest.mark.parametrize("a", [1.5, 2.0, 4.0])
def test_enlargement_inclusion_refuted(a):
    cone = Orthant(2)
    rng = np.random.default_rng(int(a * 10))
    refuted = 0
    for _ in range(40):
        pts = rng.uniform(-4, 4, size=(4, 2))
        pts[0] = [-abs(pts[0, 0]) - 0.5, pts[0, 1]]  # keep one point outside
        r = rng.uniform(0.1, 2.0)
        out = refute_enlargement_inclusion(FinitePoints(pts), cone, a, r)
        assert out.refuted
        # the excess gap is exactly (a - 1) r
        assert out.lhs.value - out.rhs.value == pytest.approx((a - 1) * r, abs=1e-10)
        refuted += 1
    assert refuted == 40


def test_refutation_inconclusive_inside_cone():
    out = refute_enlargement_inclusion(FinitePoints([[1.0, 2.0]]), Orthant(2), 2.0, 1.0)
    assert not out.refuted
    assert "not positive" in out.note


def test_sampled_excess_never_exceeds_closed_form():
    cone = Orthant(2)
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = rng.uniform(-5, -0.1, size=2)
        r = rng.uniform(0.5, 3.0)
        exact = excess_to_cone(Ball(y, r), cone)
        oracle = excess_sampled(Ball(y, r), cone_as_setrep(cone), n_dirs=512)
        assert oracle.value <= exact.value + 1e-12


# ---------------------------------------------------------------------------
# Empty-set conventions and normalization
# ---------------------------------------------------------------------------

def test_empty_set_conventions():
    empty = FinitePoints(np.zeros((0, 2)))
    assert dist_to_set([1.0, 1.0], empty) == math.inf
    res = excess(FinitePoints([[1.0, 1.0]]), empty)
    assert res.value == math.inf
    assert res.method == "empty-target"
    vac = excess(empty, cone_as_setrep(Orthant(2)))
    assert vac.value == -math.inf
    assert vac.method == "vacuous"


def test_normalization_flattens_layers():
    C = Orthant(2)
    s = PlusCone(PlusCone(FinitePoints([[1, 1]]), C), C)
    n = normalize(s)
    assert isinstance(n, PlusCone) and isinstance(n.base, FinitePoints)

    e = Enlargement(Enlargement(FinitePoints([[1, 1], [0, 2]]), 0.5), 0.25)
    ne = normalize(e)
    assert isinstance(ne, Enlargement) and ne.r == pytest.approx(0.75)

    b = normalize(Enlargement(Ball([1, 1], 0.5), 0.25))
    assert isinstance(b, Ball) and b.radius == pytest.approx(0.75)

    single = normalize(Enlargement(FinitePoints([[2, 2]]), 1.0))
    assert isinstance(single, Ball)


def test_normalization_rejects_mixed_cone_sums():
    with pytest.raises(ValueError):
        normalize(PlusCone(PlusCone(FinitePoints([[1.0]]), NonnegHalfLine()),
                           NonposHalfLine()))


def test_plus_cone_pushed_out_of_enlargement():
    C = Orthant(2)
    s = normalize(PlusCone(Enlargement(FinitePoints([[0, 0], [1, 1]]), 0.5), C))
    assert isinstance(s, Enlargement)
    assert isinstance(s.base, PlusCone)


def test_dist_to_set_variants():
    C = Orthant(2)
    assert dist_to_set([0, 0], FinitePoints([[3, 4]])) == pytest.approx(5.0)
    assert dist_to_set([0, 0], Ball([3, 4], 1)) == pytest.approx(4.0)
    assert dist_to_set([-1, -1], PlusCone(FinitePoints([[0, 0]]), C)) == pytest.approx(math.sqrt(2))
    assert dist_to_set([-1, -1], Enlargement(PlusCone(FinitePoints([[0, 0]]), C), 1.0)) \
        == pytest.approx(math.sqrt(2) - 1.0)
    assert dist_to_set([5, 5], PlusCone(FinitePoints([[0, 0]]), C)) == 0.0
