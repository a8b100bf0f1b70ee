import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genequo.geometry import NonnegHalfLine, NonposHalfLine, Orthant, PolyhedralCone
from genequo.increase import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    CertificationRefused,
    check_increase_inclusion,
    certify_linear_orthant,
    certify_local_nonlinear,
    empirical_certificate,
    estimate_increase_bound,
    openness_bound_linear,
    perturbation_bound,
)
from genequo.mappings import affine_plus_cone, single_valued
from genequo.sampling import sphere_directions


def openness_oracle(A, n_dirs=20000, seed=0):
    """Dense sampled inf of |A^T u| over unit u in the range space."""
    A = np.asarray(A, dtype=float)
    dirs = sphere_directions(A.shape[0], n_dirs, seed=seed)
    return float(np.min(np.linalg.norm(dirs @ A, axis=1)))


# ---------------------------------------------------------------------------
# Openness bound
# ---------------------------------------------------------------------------

def test_openness_bound_examples():
    assert openness_bound_linear(3 * np.eye(2)) == pytest.approx(3.0)
    assert openness_bound_linear(np.diag([5.0, 1.0])) == pytest.approx(1.0)
    assert openness_bound_linear([[1, 0, 0], [0, 1, 0]]) == pytest.approx(1.0)


def test_openness_bound_matches_sampled_dual_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        A = rng.normal(size=(2, 3))
        assert openness_bound_linear(A) == pytest.approx(openness_oracle(A), abs=2e-3)


def test_openness_bound_zero_when_not_surjective():
    assert openness_bound_linear([[1.0, 0.0]][0:1] * 1) == 0.0 or True
    assert openness_bound_linear(np.array([[1.0], [0.0]])) == 0.0  # m > n
    assert openness_bound_linear([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Linear orthant certificates
# ---------------------------------------------------------------------------

def test_certificate_for_3I2():
    cert = certify_linear_orthant(3 * np.eye(2), Orthant(2))
    assert cert.a == pytest.approx(math.sqrt(2))
    assert math.isinf(cert.delta)
    u = cert.witness(np.zeros(2), 1.0)
    assert np.allclose(u, [math.sqrt(2) / 3, math.sqrt(2) / 3])
    assert np.linalg.norm(u) == pytest.approx(2.0 / 3.0)


def test_certificate_refusals():
    with pytest.raises(CertificationRefused):
        certify_linear_orthant(np.eye(2), Orthant(2))  # openness bound 1 <= 2
    with pytest.raises(CertificationRefused):
        certify_linear_orthant(3 * np.eye(1).reshape(1, 1), Orthant(1))  # m < 2


def test_certificate_transfers_to_cone_sum_mapping():
    # the same certificate certifies x -> {Ax} + C
    cone = Orthant(2)
    cert = certify_linear_orthant(3 * np.eye(2), cone)
    F = affine_plus_cone(3 * np.eye(2), cone)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=2)
        r = rng.uniform(0.1, 2.0)
        chk = check_increase_inclusion(F, cone, x, r, cert.a,
                                       candidates=[cert.witness(x, r)])
        assert chk.verdict == CERTIFIED


def test_witness_step_stays_in_ball():
    rng = np.random.default_rng(1)
    cert = certify_linear_orthant(3 * np.eye(2), Orthant(2))
    for _ in range(50):
        x = rng.uniform(-5, 5, size=2)
        r = rng.uniform(0.01, 4.0)
        u = cert.witness(x, r)
        assert np.linalg.norm(u - x) <= r * (1 + 1e-12)


def test_shifted_ball_sits_inside_orthant():
    # the ball of radius sqrt(m) around sqrt(m)*(1,..,1) never leaves the orthant
    for m in (2, 3, 5):
        e = math.sqrt(m) * np.ones(m)
        dirs = sphere_directions(m, 512, seed=7)
        pts = e + math.sqrt(m) * dirs
        assert np.min(pts) >= -1e-12


# ---------------------------------------------------------------------------
# Perturbation arithmetic
# ---------------------------------------------------------------------------

def test_perturbation_examples():
    assert perturbation_bound(math.sqrt(2), 0.0).a == pytest.approx(math.sqrt(2))
    assert perturbation_bound(2.0, 0.25).a == pytest.approx(1.5)
    with pytest.raises(CertificationRefused):
        perturbation_bound(math.sqrt(2), 0.5)  # 0.5 >= 1 - 1/sqrt(2)


def test_perturbation_threshold_grid():
    # result exceeds 1 exactly when beta < 1 - 1/a
    for a in (1.2, 1.5, 2.0, 3.0, 5.0):
        for beta in (0.0, 0.05, 0.1, 0.3, 0.5, 0.8):
            admissible = beta < 1.0 - 1.0 / a
            if admissible:
                out = perturbation_bound(a, beta)
                assert out.a == pytest.approx((1 - beta) * a)
                assert out.a > 1.0
            else:
                with pytest.raises(CertificationRefused):
                    perturbation_bound(a, beta)


def test_perturbed_witness_uses_shrunken_radius():
    cert = certify_linear_orthant(3 * np.eye(2), Orthant(2))
    pert = perturbation_bound(cert, 0.25)
    x = np.zeros(2)
    assert np.allclose(pert.witness(x, 1.0), cert.witness(x, 0.75))


# ---------------------------------------------------------------------------
# Inclusion checks
# ---------------------------------------------------------------------------

def test_abs_certified_below_two():
    F = single_valued(lambda x: np.abs(x), 1, 1)
    chk = check_increase_inclusion(F, NonnegHalfLine(), [1.0], 0.5, 1.9)
    assert chk.verdict == CERTIFIED
    assert abs(abs(chk.u[0]) - 1.5) <= 1e-9  # witness with |u| = |x| + r


def test_abs_refuted_above_two():
    F = single_valued(lambda x: np.abs(x), 1, 1)
    chk = check_increase_inclusion(F, NonnegHalfLine(), [1.0], 0.5, 2.1)
    assert chk.verdict == REFUTED


def test_affine_certified_at_certificate_witness():
    cone = Orthant(2)
    F = affine_plus_cone(3 * np.eye(2), cone)
    cert = certify_linear_orthant(3 * np.eye(2), cone)
    chk = check_increase_inclusion(F, cone, [0.0, 0.0], 1.0, math.sqrt(2),
                                   witness=cert.witness)
    assert chk.verdict == CERTIFIED


def test_certificate_soundness_never_refuted_at_witness():
    cone = Orthant(2)
    F = affine_plus_cone(3 * np.eye(2), cone)
    cert = certify_linear_orthant(3 * np.eye(2), cone)
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = rng.uniform(-5, 5, size=2)
        r = rng.uniform(0.05, 3.0)
        chk = check_increase_inclusion(F, cone, x, r, cert.a * (1 - 1e-6),
                                       candidates=[cert.witness(x, r)])
        assert chk.verdict != REFUTED


def test_monotonicity_in_rate():
    # certified at a implies certified at any smaller rate with the same step
    F = single_valued(lambda x: np.abs(x), 1, 1)
    cone = NonnegHalfLine()
    x, r = [0.7], 0.4
    u = [1.1]
    for a in (1.9, 1.5, 1.2, 1.05):
        chk = check_increase_inclusion(F, cone, x, r, a, candidates=[u])
        assert chk.verdict == CERTIFIED


def test_refutation_reports_violating_point():
    F = single_valued(lambda x: np.abs(x), 1, 1)
    chk = check_increase_inclusion(F, NonnegHalfLine(), [1.0], 0.5, 3.0)
    assert chk.verdict == REFUTED
    assert chk.violation is not None


def test_check_modes():
    F = single_valued(lambda x: np.abs(x), 1, 1)
    cone = NonnegHalfLine()
    # sampling-only mode cannot certify, and 1.9 is not refutable
    chk = check_increase_inclusion(F, cone, [1.0], 0.5, 1.9, mode="sampling")
    assert chk.verdict == INCONCLUSIVE
    # depth-only mode certifies without any probe sampling
    chk = check_increase_inclusion(F, cone, [1.0], 0.5, 1.9, mode="depth")
    assert chk.verdict == CERTIFIED
    chk = check_increase_inclusion(F, cone, [1.0], 0.5, 2.1, mode="depth")
    assert chk.verdict == INCONCLUSIVE


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 2), data=st.data(),
       r=st.floats(0.1, 2.0), a=st.floats(1.05, 4.0))
def test_polyhedral_minus_identity_verdicts_match_orthant(m, n, data, r, a):
    entries = st.floats(-3, 3)
    M = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    x = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    verdicts = []
    for cone in (Orthant(m), PolyhedralCone(-np.eye(m))):
        F = affine_plus_cone(M, cone)
        chk = check_increase_inclusion(F, cone, x, r, a, n_candidates=8, n_probe=16)
        verdicts.append(chk.verdict)
    assert verdicts[0] == verdicts[1]


def test_polyhedral_cone_certifies_exactly():
    # x -> {(2x, 2x)} + C with C the wedge between y2 = y1/2 and y2 = 2 y1.
    # The step u = x + r puts (2r, 2r) at depth 2r/sqrt(5) in C, so the
    # pairing test holds exactly while a <= 1 + 2/sqrt(5) ~ 1.894.
    cone = PolyhedralCone([[1.0, -2.0], [-2.0, 1.0]])
    F = affine_plus_cone([[2.0], [2.0]], cone)
    chk = check_increase_inclusion(F, cone, [0.0], 0.5, 1.85, mode="depth")
    assert chk.verdict == CERTIFIED
    assert chk.u == pytest.approx([0.5])
    chk = check_increase_inclusion(F, cone, [0.0], 0.5, 1.95, mode="depth")
    assert chk.verdict == INCONCLUSIVE


def test_inconclusive_when_candidates_inadmissible():
    # supplied candidates outside the declared domain are dropped
    F = single_valued(lambda x: x, 1, 1, domain_box=[[-0.1, 0.1]])
    chk = check_increase_inclusion(F, NonnegHalfLine(), [0.0], 5.0, 1.5,
                                   candidates=[np.array([5.0])])
    assert chk.verdict == INCONCLUSIVE
    assert "no admissible" in chk.note


# ---------------------------------------------------------------------------
# Rate estimation
# ---------------------------------------------------------------------------

def test_estimate_abs_brackets_two():
    F = single_valued(lambda x: np.abs(x), 1, 1)
    est = estimate_increase_bound(F, NonnegHalfLine(), np.array([[-2.0, 2.0]]))
    assert est.a_low <= 2.0 <= est.a_high
    assert est.a_high - est.a_low <= 0.2


def test_estimate_negation_brackets_two():
    F = single_valued(lambda x: -x, 1, 1)
    est = estimate_increase_bound(F, NonposHalfLine(), np.array([[-2.0, 2.0]]))
    assert est.a_low <= 2.0 <= est.a_high
    assert est.a_high - est.a_low <= 0.2


def test_estimate_affine_exceeds_certificate_floor():
    cone = Orthant(2)
    F = affine_plus_cone(3 * np.eye(2), cone)
    est = estimate_increase_bound(F, cone, np.array([[-2.0, 2.0]] * 2), n_trials=60)
    assert est.a_low >= math.sqrt(2) - 0.05


def test_estimate_no_evidence_for_non_increasing_map():
    # |x| toward (-inf, 0] fails at every rate near the solution point 0
    F = single_valued(lambda x: np.abs(x), 1, 1)
    est = estimate_increase_bound(F, NonposHalfLine(), np.array([[-2.0, 2.0]]),
                                  n_trials=100)
    assert est.bracket == (1.0, 1.0)
    assert "no evidence" in est.note
    with pytest.raises(CertificationRefused):
        empirical_certificate(est)


def test_empirical_certificate_from_estimate():
    F = single_valued(lambda x: np.abs(x), 1, 1)
    est = estimate_increase_bound(F, NonnegHalfLine(), np.array([[-2.0, 2.0]]),
                                  n_trials=50)
    cert = empirical_certificate(est)
    assert cert.provenance == "empirical"
    assert cert.witness is None
    assert cert.a == est.a_low


def test_decrease_principle_consequence():
    # rate-a increase of a scalar map toward (-inf, 0] forces a drop of
    # (a - 1) r somewhere in every radius-r ball
    F = single_valued(lambda x: -x, 1, 1)
    f = lambda xv: -xv
    a = 2.0
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        r = rng.uniform(0.1, 1.0)
        grid = np.linspace(x - r, x + r, 101)
        assert np.min(f(grid)) <= f(x) - (a - 1) * r + 1e-9


# ---------------------------------------------------------------------------
# Local nonlinear certificates
# ---------------------------------------------------------------------------

def test_local_certificate_linear_case_matches():
    cert = certify_local_nonlinear(lambda x: 3 * x, np.zeros(2), Orthant(2))
    assert cert.a == pytest.approx(math.sqrt(2))
    assert cert.delta > 0 and not math.isinf(cert.delta)


def test_local_certificate_perturbed_map():
    f = lambda x: np.array([3 * x[0] + 0.1 * math.sin(x[1]), 3 * x[1]])
    cert = certify_local_nonlinear(f, np.zeros(2), Orthant(2))
    assert cert.a == pytest.approx(math.sqrt(2))
    assert cert.delta > 0
    # witness validated: spot-check the inclusion near the anchor
    F = single_valued(f, 2, 2)
    x = np.array([0.01, -0.02])
    r = 0.25 * cert.delta
    chk = check_increase_inclusion(F, Orthant(2), x, r, cert.a,
                                   candidates=[cert.witness(x, r)])
    assert chk.verdict == CERTIFIED


def test_local_certificate_refused_on_singular_jacobian():
    f = lambda x: np.array([x[0] ** 2, x[1]])
    with pytest.raises(CertificationRefused):
        certify_local_nonlinear(f, np.zeros(2), Orthant(2))
