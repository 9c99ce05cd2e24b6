"""Curvature-action tensors against brute-force loop oracles, plus the
rotation and transport experiments that probe them geometrically."""

from types import SimpleNamespace

import numpy as np
import pytest

from kahlersym import classifier
from kahlersym.classifier import (
    SamplePlan,
    direction_samples,
    plane_samples,
    sample_points,
)
from kahlersym.cli import _orthonormal_pair
from kahlersym.curvature import curvature_bundle
from kahlersym.metrics import metric_from_potential
from kahlersym.runner import run
from kahlersym.symmetry_tensors import (
    DEFAULT_EPS_LADDER,
    _complex_wedge_family,
    _endo_family_dot_bilinear,
    _extrapolate_to_zero,
    _wedge_family,
    complex_tachibana_ricci,
    dependence_scale,
    holomorphic_first_slot_check,
    parallelogram_loop,
    quad_eval,
    r_dot_s,
    rotation_experiment,
    tachibana_ricci,
    transport_experiment,
)
from kahlersym.tensor_algebra import (
    NonHermitianMetric,
    check_rs_symmetries,
    max_norm,
    standard_complex_structure,
)

from helpers import (
    brute_complex_tachibana,
    brute_r_dot_s,
    brute_tachibana,
    endo_family_dot_bilinear_einsum,
    rel_err,
)

POINTS = {
    "fs_cp2": np.array([0.3, -0.2, 0.5, 0.1]),
    "hyperbolic_ball_2": np.array([0.2, 0.1, -0.15, 0.25]),
    "product_cp1_cp1_unequal": np.array([0.4, -0.3, 0.2, 0.5]),
    "perturbed_flat": np.array([0.5, -0.4, 0.3, 0.6]),
}


@pytest.fixture(scope="module")
def bundles(fixtures):
    out = {}
    for name, point in POINTS.items():
        spec = fixtures[name]
        m = metric_from_potential(spec.potential(), point, spec.n)
        out[name] = curvature_bundle(m)
    return out


@pytest.mark.parametrize("name", sorted(POINTS))
def test_r_dot_s_matches_loop_oracle(bundles, name):
    # difference judged against the input scale: on Einstein fixtures both
    # sides are pure roundoff and a self-relative error would be meaningless
    b = bundles[name]
    fast = r_dot_s(b)
    slow = brute_r_dot_s(b.r13, b.ricci)
    scale = max_norm(b.r13) * max_norm(b.ricci)
    assert max_norm(fast - slow) < 1e-13 * scale


@pytest.mark.parametrize("name", sorted(POINTS))
def test_tachibana_matches_loop_oracle(bundles, name):
    b = bundles[name]
    fast = tachibana_ricci(b.metric.g, b.ricci)
    slow = brute_tachibana(b.metric.g, b.ricci)
    scale = max_norm(b.metric.g) * max_norm(b.ricci)
    assert max_norm(fast - slow) < 1e-13 * scale


@pytest.mark.parametrize("name", sorted(POINTS))
def test_complex_tachibana_matches_loop_oracle(bundles, name):
    b = bundles[name]
    fast = complex_tachibana_ricci(b.metric.g, b.ricci, b.metric.J)
    slow = brute_complex_tachibana(b.metric.g, b.ricci, b.metric.J)
    scale = max_norm(b.metric.g) * max_norm(b.ricci)
    assert max_norm(fast - slow) < 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivation_tensors_match_einsum_reference(n):
    # Random stacked inputs, with g Hermitian and S symmetric; the endomorphism
    # family also with the size-1 plane axes of a single endomorphism, acting
    # on a bilinear form that is not symmetric.
    rng = np.random.default_rng(30 + n)
    m = 2 * n
    j = standard_complex_structure(n)
    a = rng.standard_normal((3, m, m))
    h = np.swapaxes(a, 1, 2) @ a + m * np.eye(m)
    g = 0.5 * (h + j.T @ h @ j)
    s = rng.standard_normal((3, m, m))
    s = s + np.swapaxes(s, 1, 2)
    r13 = rng.standard_normal((3, m, m, m, m))
    cases = [
        (r_dot_s(SimpleNamespace(r13=r13, ricci=s)), np.einsum("...dabc->...dcab", r13)),
        (tachibana_ricci(g, s), _wedge_family(g)),
        (complex_tachibana_ricci(g, s, j), _complex_wedge_family(g, j)),
    ]
    for got, family in cases:
        assert rel_err(got, endo_family_dot_bilinear_einsum(family, s)) <= 1e-13
    single = rng.standard_normal((3, m, m, 1, 1))
    forms = rng.standard_normal((3, m, m))
    for family, form in ((single, forms), (single[0], forms[0])):
        got = _endo_family_dot_bilinear(family, form)
        assert got.shape == family.shape
        assert rel_err(got, endo_family_dot_bilinear_einsum(family, form)) <= 1e-13


def test_complex_tachibana_rejects_non_hermitian():
    j = standard_complex_structure(2)
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NonHermitianMetric):
        complex_tachibana_ricci(g, np.eye(4), j)


def test_tachibana_of_metric_itself_vanishes():
    """Q(g,g) = 0 and Qc(g,g) = 0: wedges are skew-adjoint."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        m = 2 * n
        a = rng.normal(size=(m, m))
        h = a @ a.T + m * np.eye(m)
        j = standard_complex_structure(n)
        g = 0.5 * (h + j.T @ h @ j)
        assert max_norm(tachibana_ricci(g, g)) < 1e-12 * max_norm(g) ** 2
        assert max_norm(complex_tachibana_ricci(g, g, j)) < 1e-12 * max_norm(g) ** 2


def test_einstein_points_kill_everything(bundles):
    """At Einstein points S = c g, so Q(g,S), Qc(g,S) and R.S all vanish."""
    for name in ("fs_cp2", "hyperbolic_ball_2"):
        b = bundles[name]
        scale = max_norm(b.metric.g) * max_norm(b.ricci)
        assert max_norm(tachibana_ricci(b.metric.g, b.ricci)) < 1e-10 * scale
        assert (
            max_norm(complex_tachibana_ricci(b.metric.g, b.ricci, b.metric.J))
            < 1e-10 * scale
        )
        rs_scale = max_norm(b.r13) * max_norm(b.ricci)
        assert max_norm(r_dot_s(b)) < 1e-10 * rs_scale


def test_product_is_semisymmetric_but_not_einstein(bundles):
    b = bundles["product_cp1_cp1_unequal"]
    rs_scale = max_norm(b.r13) * max_norm(b.ricci)
    assert max_norm(r_dot_s(b)) < 1e-10 * rs_scale
    q_scale = max_norm(b.metric.g) * max_norm(b.ricci)
    assert max_norm(tachibana_ricci(b.metric.g, b.ricci)) > 1e-2 * q_scale


def test_perturbed_flat_breaks_semisymmetry(bundles):
    b = bundles["perturbed_flat"]
    rs = r_dot_s(b)
    rs_scale = max_norm(b.r13) * max_norm(b.ricci)
    assert max_norm(rs) > 1e-3 * rs_scale


@pytest.mark.parametrize("name", sorted(POINTS))
def test_symmetry_class_membership(bundles, name):
    """R.S and Qc(g,S) live in the full J-symmetry class; the real
    Q(g,S) only keeps the pair symmetries."""
    b = bundles[name]
    g, s, j = b.metric.g, b.ricci, b.metric.J
    rs_scale = max(max_norm(b.r13) * max_norm(s), 1e-14)
    q_scale = max(max_norm(g) * max_norm(s), 1e-14)
    for t, scale in (
        (r_dot_s(b), rs_scale),
        (complex_tachibana_ricci(g, s, j), q_scale),
    ):
        violations = check_rs_symmetries(t, j, scale)
        assert max(violations.values()) < 1e-11, violations
    q = tachibana_ricci(g, s)
    violations = check_rs_symmetries(q, j, q_scale)
    assert violations["sym_first_pair"] < 1e-11
    assert violations["antisym_last_pair"] < 1e-11
    qc = complex_tachibana_ricci(g, s, j)
    assert holomorphic_first_slot_check(qc, j, scale=q_scale) < 1e-11


def test_real_tachibana_not_j_invariant(bundles):
    """Q(g,S) genuinely leaves the J-class off the Einstein locus; this is
    what the complex variant exists to repair."""
    b = bundles["perturbed_flat"]
    q = tachibana_ricci(b.metric.g, b.ricci)
    violations = check_rs_symmetries(q, b.metric.J, 0.0)
    assert violations["j_pair_invariance"] > 1e-2


def test_quad_eval_multilinear():
    rng = np.random.default_rng(42)
    t = rng.normal(size=(4, 4, 4, 4))
    u, v, x, y, w = rng.normal(size=(5, 4))
    left = quad_eval(t, u + 2 * w, v, x, y)
    right = quad_eval(t, u, v, x, y) + 2 * quad_eval(t, w, v, x, y)
    assert left == pytest.approx(right, rel=1e-12)


def _deszcz_plan():
    return SamplePlan(points=4, directions=3, planes=5, seed=11)


def test_deszcz_defined_on_perturbed_flat(fixtures):
    """The ladder's fitted f_S is half the least-squares Deszcz quotient of the
    brute-force R.S and Q(g,S) over the same samples."""
    spec = fixtures["perturbed_flat"]
    plan = _deszcz_plan()
    verdict = run(spec, plan).verdict
    details = verdict.holo_ricci_pseudosymmetric.details
    assert details["defined_samples"] == [plan.planes] * plan.points
    m = 2 * spec.n
    for i, point in enumerate(sample_points(spec.domain, plan)):
        b = curvature_bundle(metric_from_potential(spec.potential(), point, spec.n))
        rs = brute_r_dot_s(b.r13, b.ricci)
        q = brute_tachibana(b.metric.g, b.ricci)
        dirs = direction_samples(plan, i, m)
        nums, dens = [], []
        for k, x in enumerate(plane_samples(plan, i, m)):
            v = dirs[k % plan.directions]
            nums.append(quad_eval(rs, v, v, x, b.metric.J @ x))
            dens.append(quad_eval(q, v, v, x, b.metric.J @ x))
        nums, dens = np.array(nums), np.array(dens)
        assert np.min(np.abs(dens)) > 1e-3 * np.max(np.abs(dens))  # far from undefined
        oracle = 0.5 * float(nums @ dens / (dens @ dens))
        assert verdict.f_s_values[i] == pytest.approx(oracle, rel=1e-11)


def test_deszcz_undefined_at_einstein_points(fixtures):
    plan = _deszcz_plan()
    for name in ("fs_cp2", "hyperbolic_ball_2"):
        verdict = run(fixtures[name], plan).verdict
        assert verdict.holo_ricci_pseudosymmetric.details["defined_samples"] == [0] * plan.points
        assert verdict.f_s_values == (None,) * plan.points
        assert verdict.f_s_constant is None


def test_deszcz_threshold_scaling(fixtures, monkeypatch):
    """A dependence threshold far above every |Q(g,S)| sample leaves no
    sample defined, and the rung cannot pass on a nonzero R.S."""
    monkeypatch.setattr(classifier, "DEPENDENCE_THRESHOLD", 1e12)
    spec = fixtures["perturbed_flat"]
    plan = _deszcz_plan()
    verdict = run(spec, plan).verdict
    hrps = verdict.holo_ricci_pseudosymmetric
    assert hrps.details["defined_samples"] == [0] * plan.points
    assert hrps.details["attempted_samples"] == [plan.planes] * plan.points
    assert verdict.f_s_values == (None,) * plan.points
    assert hrps.status == "inconclusive"


def test_dependence_scale_floors():
    g = np.eye(4)
    s = np.zeros((4, 4))
    q = np.zeros((4, 4, 4, 4))
    assert dependence_scale(q, g, s) == pytest.approx(1e-14)
    assert dependence_scale(q, g, np.eye(4)) == pytest.approx(1.0)


def test_extrapolate_to_zero_exact_on_polynomials():
    xs = [0.4, 0.2, 0.1]
    ys = [3.0 + 2.0 * x + 5.0 * x**2 for x in xs]
    assert _extrapolate_to_zero(xs, ys) == pytest.approx(3.0, abs=1e-12)


def test_rotation_experiment_perturbed_flat(bundles):
    b = bundles["perturbed_flat"]
    g, s, j = b.metric.g, b.ricci, b.metric.J
    rng = np.random.default_rng(45)
    v = rng.normal(size=4)
    x, y = _orthonormal_pair(g, *rng.normal(size=(2, 4)))
    result = rotation_experiment(g, s, j, v, x, y)
    assert np.isfinite(result.measured)
    assert abs(result.predicted) > 1e-6  # nondegenerate probe
    # the prediction is the ladder's Qc, checked against the loop oracle
    oracle = -quad_eval(brute_complex_tachibana(g, s, j), v, v, x, y)
    assert rel_err(result.predicted, oracle) < 1e-12
    assert result.rel_error < 1e-3
    assert result.ladder == DEFAULT_EPS_LADDER
    assert len(result.defects) == len(result.ladder)


def test_rotation_experiment_flat_on_einstein(bundles):
    """Qc(g,S) = 0 at Einstein points, so the rotation response is flat."""
    b = bundles["fs_cp2"]
    g, s, j = b.metric.g, b.ricci, b.metric.J
    rng = np.random.default_rng(46)
    v = rng.normal(size=4)
    x, y = _orthonormal_pair(g, *rng.normal(size=(2, 4)))
    result = rotation_experiment(g, s, j, v, x, y)
    assert abs(result.predicted) < 1e-10
    assert abs(result.measured) < 1e-8


def test_rotation_experiment_requires_orthonormal_plane(bundles):
    b = bundles["perturbed_flat"]
    g, s, j = b.metric.g, b.ricci, b.metric.J
    with pytest.raises(ValueError, match="orthonormal"):
        rotation_experiment(g, s, j, np.ones(4), np.ones(4), np.ones(4))


def test_parallelogram_loop_geometry():
    loop = parallelogram_loop([0.1, 0.2, 0.3, 0.4], 0, 2, 0.05)
    assert len(loop) == 5
    assert np.allclose(loop[0], loop[-1])
    assert np.allclose(loop[1] - loop[0], [0.05, 0, 0, 0])
    assert np.allclose(loop[2] - loop[1], [0, 0, 0.05, 0])
    assert np.allclose(loop[3] - loop[2], [-0.05, 0, 0, 0])


def test_transport_experiment_sign_and_magnitude(fixtures, bundles):
    """The h^2 response of S(v,v) around a loop equals +(R.S)(v,v;ea,eb)."""
    spec = fixtures["perturbed_flat"]
    point = POINTS["perturbed_flat"]
    v = np.array([0.9, -0.2, 0.4, 0.7])
    result = transport_experiment(
        spec.potential(), spec.n, point, v, 0, 2, bundle=bundles["perturbed_flat"]
    )
    assert abs(result.predicted) > 1e-5
    assert result.rel_error < 1e-3
    # vector-level holonomy defect against R(ea,eb)v
    defect = np.array(result.details["vector_defects"][-1])
    predicted_vec = np.array(result.details["vector_predicted"])
    assert rel_err(defect, predicted_vec) < 1e-2


def test_transport_experiment_rejects_a_bundle_from_elsewhere(fixtures, bundles):
    spec = fixtures["perturbed_flat"]
    point = np.asarray(POINTS["perturbed_flat"], float)
    bundle = bundles["perturbed_flat"]
    v = np.array([0.9, -0.2, 0.4, 0.7])
    for n, at in ((spec.n, point + 1e-3), (spec.n + 1, np.concatenate([point, [0.0, 0.0]]))):
        with pytest.raises(ValueError, match="bundle was built at n = 2"):
            transport_experiment(spec.potential(), n, at, v, 0, 2, bundle=bundle)


def test_transport_experiment_zero_on_semisymmetric(fixtures, bundles):
    spec = fixtures["product_cp1_cp1_unequal"]
    point = POINTS["product_cp1_cp1_unequal"]
    v = np.array([0.5, 0.3, -0.6, 0.2])
    result = transport_experiment(
        spec.potential(), spec.n, point, v, 0, 1, bundle=bundles["product_cp1_cp1_unequal"]
    )
    assert abs(result.predicted) < 1e-10
    assert abs(result.measured) < 1e-5

