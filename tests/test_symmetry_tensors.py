"""Curvature-action tensors against brute-force loop oracles, plus the
rotation and transport experiments that probe them geometrically."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kahlersym import classifier, curvature
from kahlersym.classifier import (
    SamplePlan,
    _scales,
    direction_samples,
    plane_samples,
    sample_evidence,
    sample_points,
)
from kahlersym.cli import _orthonormal_pair
from kahlersym.curvature import curvature_bundle
from kahlersym.expressions import parse
from kahlersym.metrics import metric_from_potential
from kahlersym.runner import run
from kahlersym.zoo import ManifoldSpec
from kahlersym.symmetry_tensors import (
    DEFAULT_EPS_LADDER,
    _endo_family_dot_bilinear,
    _extrapolate_to_zero,
    complex_tachibana_ricci,
    parallelogram_loop,
    quad_eval,
    r_dot_s,
    rotation_experiment,
    tachibana_ricci,
    transport_experiment,
)
from kahlersym.tensor_algebra import (
    ABS_FLOOR,
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
    j_rotated_symmetric_einsum,
    rel_err,
    wedge_family,
    wedge_g_matrix,
    wedge_tachibana,
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


def _check_closed_form_tachibana(g, s):
    """Q(g,S) in closed form against the wedge definition, point by point,
    and its pair symmetries bit for bit."""
    q = tachibana_ricci(g, s)
    scale = max_norm(g, 2) * max_norm(s, 2)
    assert np.all(max_norm(q - wedge_tachibana(g, s), 4) <= 1e-13 * scale)
    assert np.array_equal(q, np.swapaxes(q, -4, -3))
    assert np.array_equal(q, -np.swapaxes(q, -2, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_tachibana_matches_wedge_definition(n):
    # Random symmetric positive-definite g and symmetric S, stacked over
    # three points and each point alone.
    rng = np.random.default_rng(60 + n)
    m = 2 * n
    a = rng.standard_normal((3, m, m))
    g = np.swapaxes(a, 1, 2) @ a + m * np.eye(m)
    s = rng.standard_normal((3, m, m))
    s = s + np.swapaxes(s, 1, 2)
    _check_closed_form_tachibana(g, s)
    for gp, sp in zip(g, s):
        _check_closed_form_tachibana(gp, sp)


def test_closed_form_tachibana_matches_wedge_definition_on_the_zoo(fixtures):
    for spec in fixtures.values():
        points = sample_points(spec.domain, SamplePlan(points=6, seed=3))
        b = curvature_bundle(metric_from_potential(spec.potential(), points, spec.n))
        _check_closed_form_tachibana(b.metric.g, b.ricci)


# Qc inputs beyond the zoo: the holomorphically Ricci-pseudosymmetric
# witnesses, the semisymmetric witness and an n = 3 potential without U(3)
# symmetry, as (potential, n, point).
QC_INPUTS = {
    "exp_rsq": ("exp(rsq)", 2, [0.3, -0.2, 0.1, 0.25]),
    "quartic_rsq": ("rsq + 0.3*rsq^2", 3, [0.2, -0.1, 0.3, 0.15, -0.25, 0.1]),
    "semisymmetric": ("log(1+absq(1)) + absq(2) + 0.2*absq(2)^2", 2, [0.4, -0.3, 0.2, 0.5]),
    "no_u3_symmetry": ("log(1+rsq) + 0.1*x1*absq(1)", 3, [0.2, -0.1, 0.3, 0.15, -0.25, 0.1]),
}


@pytest.mark.parametrize("name", sorted(POINTS) + sorted(QC_INPUTS))
def test_complex_tachibana_matches_loop_oracle(bundles, name):
    if name in QC_INPUTS:
        source, n, point = QC_INPUTS[name]
        b = curvature_bundle(metric_from_potential(parse(source, n), point, n))
    else:
        b = bundles[name]
    fast = complex_tachibana_ricci(b.metric.g, b.ricci)
    slow = brute_complex_tachibana(b.metric.g, b.ricci, b.metric.J)
    scale = max_norm(b.metric.g) * max_norm(b.ricci)
    assert max_norm(fast - slow) < 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivation_tensors_match_einsum_reference(n):
    # Random stacked inputs, with g Hermitian and S symmetric (J-invariant for
    # Qc, checked point by point against the complex-wedge loop oracle); the
    # endomorphism family also with the size-1 plane axes of a single
    # endomorphism, acting on a bilinear form that is not symmetric.
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
        (tachibana_ricci(g, s), wedge_family(g)),
    ]
    for got, family in cases:
        assert rel_err(got, endo_family_dot_bilinear_einsum(family, s)) <= 1e-13
    s_j = 0.5 * (s + j.T @ s @ j)
    qc = complex_tachibana_ricci(g, s_j)
    for i in range(len(g)):
        oracle = brute_complex_tachibana(g[i], s_j[i], j)
        assert max_norm(qc[i] - oracle) <= 1e-13 * max_norm(g[i]) * max_norm(s_j[i])
    single = rng.standard_normal((3, m, m, 1, 1))
    forms = rng.standard_normal((3, m, m))
    for family, form in ((single, forms), (single[0], forms[0])):
        got = _endo_family_dot_bilinear(family, form)
        assert got.shape == family.shape
        assert rel_err(got, endo_family_dot_bilinear_einsum(family, form)) <= 1e-13


def test_complex_tachibana_rejects_non_hermitian():
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NonHermitianMetric):
        complex_tachibana_ricci(g, np.eye(4))


def test_tachibana_of_metric_itself_vanishes():
    """Q(g,g) = 0 and Qc(g,g) = 0: wedges are skew-adjoint."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        m = 2 * n
        a = rng.normal(size=(m, m))
        h = a @ a.T + m * np.eye(m)
        j = standard_complex_structure(n)
        g = 0.5 * (h + j.T @ h @ j)
        # Closed form: every entry is the difference of one sum of two
        # products taken in both orders, so exactly zero.
        assert not tachibana_ricci(g, g).any()
        assert max_norm(complex_tachibana_ricci(g, g)) < 1e-12 * max_norm(g) ** 2


def test_einstein_points_kill_everything(bundles):
    """At Einstein points S = c g, so Q(g,S), Qc(g,S) and R.S all vanish."""
    for name in ("fs_cp2", "hyperbolic_ball_2"):
        b = bundles[name]
        scale = max_norm(b.metric.g) * max_norm(b.ricci)
        assert max_norm(tachibana_ricci(b.metric.g, b.ricci)) < 1e-10 * scale
        assert (
            max_norm(complex_tachibana_ricci(b.metric.g, b.ricci))
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
        (complex_tachibana_ricci(g, s), q_scale),
    ):
        violations = check_rs_symmetries(t, max(scale, max_norm(t, 4)))
        assert max(violations.values()) < 1e-11, violations
    q = tachibana_ricci(g, s)
    violations = check_rs_symmetries(q, max(q_scale, max_norm(q, 4)))
    assert violations["sym_first_pair"] < 1e-11
    assert violations["antisym_last_pair"] < 1e-11
    qc = complex_tachibana_ricci(g, s)
    assert j_rotated_symmetric_einsum(qc, j, max(q_scale, max_norm(qc)), 4) < 1e-11


def test_real_tachibana_not_j_invariant(bundles):
    """Q(g,S) genuinely leaves the J-class off the Einstein locus; this is
    what the complex variant exists to repair."""
    b = bundles["perturbed_flat"]
    q = tachibana_ricci(b.metric.g, b.ricci)
    violations = check_rs_symmetries(q, max_norm(q, 4))
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
    """A dependence threshold far above every |Qc(g,S)| sample leaves no
    sample defined, and the rung cannot pass on a nonzero R.S."""
    monkeypatch.setattr(classifier, "DEPENDENCE_THRESHOLD", 1e12)
    spec = fixtures["perturbed_flat"]
    plan = _deszcz_plan()
    verdict = run(spec, plan).verdict
    hrps = verdict.holo_ricci_pseudosymmetric
    assert hrps.details["defined_samples"] == [0] * plan.points
    assert verdict.f_s_values == (None,) * plan.points
    assert hrps.status == "inconclusive"


def test_dependence_scale_floors():
    # The scale table's "Qc" entry is max(|Qc|, |g||S|), floored: at points of
    # flat C^2, g = I and S = Qc = 0, and with S replaced by I it is |g||S|.
    spec = ManifoldSpec("flat", 2, "rsq", ((-1.0, 1.0),) * 4)
    data = sample_evidence(spec, SamplePlan(points=2, directions=2, planes=2))
    assert data.scales["Qc"].tolist() == [ABS_FLOOR] * 2
    bundle = replace(data.bundle, ricci=np.broadcast_to(np.eye(4), (2, 4, 4)))
    assert _scales(bundle, data.rs, data.qc)["Qc"].tolist() == [1.0] * 2


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


def test_rotation_dimension_mismatch(bundles):
    """A v or x of the wrong length raises ValueError from its first product."""
    b = bundles["perturbed_flat"]
    g, s, j = b.metric.g, b.ricci, b.metric.J
    x, y = _orthonormal_pair(g, *np.random.default_rng(47).normal(size=(2, 4)))
    with pytest.raises(ValueError):
        rotation_experiment(g, s, j, np.ones(3), x, y)
    with pytest.raises(ValueError):
        rotation_experiment(g, s, j, np.ones(4), np.ones(3), y)


def _zoo_rotation_probes(fixtures, seeds):
    """(g, S, J, v, x, y) at the point, direction and plane pair that
    ``kahlersym experiment rotation`` uses, per zoo fixture and seed."""
    for spec in fixtures.values():
        m = 2 * spec.n
        for seed in seeds:
            plan = SamplePlan(seed=seed)
            point = sample_points(spec.domain, plan)[0]
            b = curvature_bundle(metric_from_potential(spec.potential(), point, spec.n))
            planes = plane_samples(plan, 0, m)
            x, y = _orthonormal_pair(b.metric.g, planes[0], planes[1])
            yield b.metric.g, b.ricci, b.metric.J, direction_samples(plan, 0, m)[0], x, y


def test_rotation_generator_matches_the_wedge_matrices(fixtures):
    """The generator applied to v equals the sum of the two wedge matrices
    x wedge_g y + Jx wedge_g Jy (the helpers' oracle) applied to v: the
    defects agree bit for bit with J and with -J."""
    for g, s, j, v, x, y in _zoo_rotation_probes(fixtures, range(6)):
        rot = wedge_g_matrix(g, x, y) + wedge_g_matrix(g, j @ x, j @ y)
        base = float(v @ s @ v)
        oracle = []
        for eps in DEFAULT_EPS_LADDER:
            w = v + eps * (rot @ v)
            oracle.append(float(w @ s @ w) - base)
        for sign in (1.0, -1.0):
            result = rotation_experiment(g, s, sign * j, v, x, y)
            assert result.defects == tuple(oracle)


def test_rotation_requires_the_standard_complex_structure(fixtures):
    """The prediction Qc(g,S) is formed for the standard J: -J spans the same
    holomorphic planes and gives the same bits, while another complex
    structure J' (J composed with the swap x1 <-> x2, y1 <-> y2, so that
    J'^2 = -I) raises ValueError."""
    swap = np.eye(4)[[1, 0, 3, 2]]
    probes = [p for p in _zoo_rotation_probes(fixtures, range(2)) if p[0].shape == (4, 4)]
    for g, s, j, v, x, y in probes:
        plus = rotation_experiment(g, s, j, v, x, y)
        minus = rotation_experiment(g, s, -j, v, x, y)
        assert (minus.defects, minus.measured, minus.predicted) == (
            plus.defects, plus.measured, plus.predicted)
        j_prime = j @ swap
        assert np.array_equal(j_prime @ j_prime, -np.eye(4))
        with pytest.raises(ValueError, match="standard complex structure"):
            rotation_experiment(g, s, j_prime, v, x, y)


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


def test_transport_experiment_expands_each_loop_once(fixtures, bundles, monkeypatch):
    """One depth-1 expansion per call, over the distinct RK4 stage times of
    the four edges of both ladder loops: 2 * 32 + 1 of them at steps = 32."""
    spec = fixtures["perturbed_flat"]
    expanded = []

    def spy(potential, point, n, depth=3):
        expanded.append((np.shape(point), depth))
        return metric_from_potential(potential, point, n, depth)

    monkeypatch.setattr(curvature, "metric_from_potential", spy)
    transport_experiment(spec.potential(), spec.n, POINTS["perturbed_flat"],
                         np.array([0.9, -0.2, 0.4, 0.7]), 0, 2,
                         bundle=bundles["perturbed_flat"])
    assert expanded == [((2 * 4 * 65, 4), 1)]
    # The stage-time table is built once per step count, read-only.
    times, where = curvature._stage_times(32)
    assert curvature._stage_times(32)[0] is times and where.shape == (32, 3)
    assert len(times) == 65 and not times.flags.writeable and not where.flags.writeable


@pytest.mark.parametrize("h", [1e-200, 1e-20])
def test_transport_experiment_rejects_a_degenerate_loop(fixtures, bundles, h):
    """h^2 underflowing to 0 would divide by zero; a loop whose corners
    equal the base point in floats would measure a defect of exactly 0."""
    spec = fixtures["perturbed_flat"]
    with pytest.raises(ValueError, match=f"loop size h = {h!r} is degenerate"):
        transport_experiment(spec.potential(), spec.n, POINTS["perturbed_flat"],
                             np.array([0.9, -0.2, 0.4, 0.7]), 0, 2, ladder=(0.01, h),
                             bundle=bundles["perturbed_flat"])
    # At a zero coordinate the corner moves, but h^2 still underflows.
    at_origin = curvature_bundle(metric_from_potential(spec.potential(), np.zeros(4), 2))
    with pytest.raises(ValueError, match="loop size h = 1e-200"):
        transport_experiment(spec.potential(), spec.n, np.zeros(4), np.ones(4), 0, 2,
                             ladder=(1e-200,), bundle=at_origin)


def test_transport_experiment_zero_on_semisymmetric(fixtures, bundles):
    spec = fixtures["product_cp1_cp1_unequal"]
    point = POINTS["product_cp1_cp1_unequal"]
    v = np.array([0.5, 0.3, -0.6, 0.2])
    result = transport_experiment(
        spec.potential(), spec.n, point, v, 0, 1, bundle=bundles["product_cp1_cp1_unequal"]
    )
    assert abs(result.predicted) < 1e-10
    assert abs(result.measured) < 1e-5

