"""Ladder classification: sampling, preflight, verdicts, lattice checks."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from kahlersym import classifier
from kahlersym.classifier import (
    DEPENDENCE_THRESHOLD,
    FAIL,
    INCONCLUSIVE,
    PASS,
    CriterionVerdict,
    LatticeError,
    PreflightError,
    SamplePlan,
    _check_lattice,
    _holo_pseudosymmetric,
    _paired_values,
    _parallel_plane_values,
    _plane_reduce,
    direction_samples,
    plane_samples,
    preflight_from_metrics,
    sample_evidence,
    sample_points,
)
from kahlersym.curvature import christoffel, curvature_bundle
from kahlersym.metrics import MetricJet, metric_from_potential
from kahlersym.runner import run
from kahlersym.symmetry_tensors import complex_tachibana_ricci, r_dot_s, tachibana_ricci
from kahlersym.tensor_algebra import max_norm, standard_complex_structure
from kahlersym.zoo import ManifoldSpec

from helpers import deszcz_fit_loop, parallel_values_loop, plane_values_loop, stack_metrics


EXPECTED = {
    "flat_c2": "ricci_flat",
    "fs_cp1": "einstein",
    "fs_cp2": "einstein",
    "hyperbolic_ball_2": "einstein",
    "product_cp1_cp1_unequal": "ricci_parallel",
    "perturbed_flat": "none",
}


def test_verdict_matrix(fixtures, full_reports):
    for name, spec in fixtures.items():
        verdict = full_reports[name].verdict
        assert verdict.classification == EXPECTED[name], name
        assert verdict.classification == spec.expected_class or (
            spec.expected_class is None
        )


def test_no_route_mismatch_anywhere(full_reports):
    for name, report in full_reports.items():
        assert not report.verdict.any_route_mismatch, name
        for criterion in report.verdict.criteria():
            assert criterion.status in (PASS, FAIL), (name, criterion.name)


# Holomorphically Ricci-pseudosymmetric witnesses with a non-constant f_S.
WITNESSES = (
    ManifoldSpec("exp_rsq", 2, "exp(rsq)", ((-0.5, 0.5),) * 4),
    ManifoldSpec("quartic_rsq", 2, "rsq + 0.3*rsq^2", ((-0.5, 0.5),) * 4),
)


@pytest.fixture(scope="module")
def unscaled_reports(fixtures, full_reports, full_plan):
    return [(spec, full_reports[name]) for name, spec in fixtures.items()] + [
        (spec, run(spec, full_plan)) for spec in WITNESSES
    ]


@pytest.mark.parametrize("c", [1e-9, 1e-3, 1e3, 1e9])
def test_classification_invariant_under_potential_scaling(unscaled_reports, c):
    """K -> cK scales g by c and leaves R^a_bcd, S, every rung and the
    verdict on f_S constancy unchanged."""
    for spec, reference in unscaled_reports:
        name = spec.name
        scaled = replace(spec, potential_source=f"{c!r}*({spec.potential_source})")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run(scaled, reference.plan)
        assert report.identities_passed, (name, report.worst_identity())
        assert not report.verdict.any_route_mismatch, name
        assert report.verdict.classification == reference.verdict.classification, name
        assert report.verdict.f_s_constant == reference.verdict.f_s_constant, name


def test_witnesses_have_non_constant_f_s(unscaled_reports):
    for spec, report in unscaled_reports[-len(WITNESSES):]:
        assert report.verdict.classification == "holo_ricci_pseudosymmetric", spec.name
        assert report.verdict.f_s_constant is False, spec.name


def test_deszcz_fit_finite_for_huge_samples():
    """exp(300 rsq) is exp(rsq) in w = sqrt(300) z, a holomorphically Ricci-
    pseudosymmetric witness; its Q(g,S) samples are so large that the fit's
    plain dot products overflow, yet every fitted f_S stays finite and nonzero."""
    spec = ManifoldSpec("steep", 2, "exp(300*rsq)", ((-0.76, 0.76),) * 4)
    verdict = run(spec).verdict
    assert verdict.classification == "holo_ricci_pseudosymmetric"
    assert all(np.isfinite(f) and f != 0.0 for f in verdict.f_s_values)


def test_failing_rungs_fail_clearly(full_reports):
    """Every FAIL stands at least 10x above the pass tolerance."""
    for name, report in full_reports.items():
        tol = report.plan.tolerance
        for criterion in report.verdict.criteria():
            if criterion.status == FAIL:
                assert criterion.direct > 10 * tol, (name, criterion.name)


def test_preflight_green_on_zoo(full_reports):
    for name, report in full_reports.items():
        assert report.preflight.passed, name
        for check, entry in report.preflight.checks.items():
            assert entry["max"] <= 1e-9, (name, check)


def test_flat_evidence_is_exactly_zero(full_reports):
    """Polynomial jets are exact, so the flat fixture yields exact zeros."""
    verdict = full_reports["flat_c2"].verdict
    for values in verdict.evidence.values():
        assert max(values) == 0.0
    assert verdict.lambda_hat == 0.0


def test_einstein_constants(full_reports):
    assert full_reports["fs_cp2"].verdict.lambda_hat == pytest.approx(6.0, abs=1e-9)
    assert full_reports["hyperbolic_ball_2"].verdict.lambda_hat == pytest.approx(
        -6.0, abs=1e-9
    )
    assert full_reports["fs_cp1"].verdict.lambda_hat == pytest.approx(4.0, abs=1e-9)
    spread = full_reports["fs_cp2"].verdict.einstein.details["lambda_spread"]
    assert spread < 1e-8


def test_lambda_values_per_point(full_reports):
    verdict = full_reports["fs_cp2"].verdict
    assert len(verdict.lambda_values) == full_reports["fs_cp2"].plan.points
    assert all(v == pytest.approx(6.0, abs=1e-8) for v in verdict.lambda_values)


def test_below_theorem_dimension_flag(full_reports):
    assert full_reports["fs_cp1"].verdict.below_theorem_dimension
    for name in ("flat_c2", "fs_cp2", "perturbed_flat"):
        assert not full_reports[name].verdict.below_theorem_dimension


def test_product_fails_einstein_passes_parallel(full_reports):
    verdict = full_reports["product_cp1_cp1_unequal"].verdict
    assert verdict.einstein.status == FAIL
    assert verdict.einstein.direct > 0.1
    assert verdict.ricci_parallel.status == PASS
    assert verdict.ricci_semisymmetric.status == PASS
    assert verdict.lambda_hat == pytest.approx(3.0, abs=1e-9)
    assert verdict.f_s_constant is True


def test_perturbed_fails_all_rungs(full_reports):
    verdict = full_reports["perturbed_flat"].verdict
    for criterion in verdict.criteria():
        assert criterion.status == FAIL, criterion.name
    hrps = verdict.holo_ricci_pseudosymmetric
    assert sum(hrps.details["defined_samples"]) > 0


def test_einstein_fixture_hrps_vacuous(full_reports):
    """Einstein points have Q(g,S) = 0, so no Deszcz sample is defined and
    the rung passes vacuously with R.S at roundoff."""
    hrps = full_reports["fs_cp2"].verdict.holo_ricci_pseudosymmetric
    assert hrps.status == PASS
    assert sum(hrps.details["defined_samples"]) == 0
    assert full_reports["fs_cp2"].verdict.f_s_values == (None,) * 25


def test_verdict_deterministic(fixtures, small_plan):
    a = run(fixtures["fs_cp2"], small_plan).verdict
    b = run(fixtures["fs_cp2"], small_plan).verdict
    assert a.classification == b.classification
    assert a.evidence == b.evidence
    assert a.lambda_values == b.lambda_values


def test_classify_seed_sensitivity(fixtures):
    base = run(fixtures["perturbed_flat"], SamplePlan(points=4, directions=4, planes=4, seed=0)).verdict
    other = run(fixtures["perturbed_flat"], SamplePlan(points=4, directions=4, planes=4, seed=9)).verdict
    assert base.classification == other.classification == "none"
    assert base.evidence != other.evidence


# -- sampling ---------------------------------------------------------------


def test_sample_points_random_box_and_margin(monkeypatch):
    monkeypatch.setattr(classifier, "MARGIN", 0.1)
    domain = ((-2.0, 2.0), (0.0, 1.0))
    plan = SamplePlan(points=40, directions=2, planes=2)
    pts = sample_points(domain, plan)
    assert pts.shape == (40, 2)
    assert np.all(pts[:, 0] >= -2.0 + 0.4) and np.all(pts[:, 0] <= 2.0 - 0.4)
    assert np.all(pts[:, 1] >= 0.1) and np.all(pts[:, 1] <= 0.9)
    again = sample_points(domain, plan)
    assert np.array_equal(pts, again)


def test_direction_and_plane_samples_determinism():
    plan = SamplePlan(points=3, directions=5, planes=6, seed=4)
    d0 = direction_samples(plan, 0, 4)
    d0_again = direction_samples(plan, 0, 4)
    d1 = direction_samples(plan, 1, 4)
    p0 = plane_samples(plan, 0, 4)
    assert np.array_equal(d0, d0_again)
    assert not np.array_equal(d0, d1)
    assert d0.shape == (5, 4)
    assert p0.shape == (6, 4)
    # separate streams: directions and planes at the same point differ
    assert not np.array_equal(d0[:5], p0[:5])
    assert np.allclose(np.linalg.norm(d0, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(p0, axis=1), 1.0, atol=1e-12)


def test_point_samples_do_not_depend_on_the_number_of_points():
    few, many = SamplePlan(points=5, seed=6), SamplePlan(points=400, seed=6)
    for i in range(5):
        assert np.array_equal(direction_samples(few, i, 4), direction_samples(many, i, 4))
        assert np.array_equal(plane_samples(few, i, 4), plane_samples(many, i, 4))


def test_plan_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SamplePlan(points=1)
    with pytest.raises(ValueError, match="seed"):
        SamplePlan(seed=-1)
    for tolerance in (0.0, -1e-7, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SamplePlan(tolerance=tolerance)


# -- preflight ---------------------------------------------------------------


def _fake_metric(g, n=2):
    m = 2 * n
    return MetricJet(
        point=np.zeros(m),
        n=n,
        g=np.asarray(g, float),
        dg=np.zeros((m, m, m)),
        ddg=None,
        dddg=None,
        J=standard_complex_structure(n),
    )


def _preflight(m):
    return preflight_from_metrics(m, christoffel(m).gamma)


def test_preflight_accepts_potential_metrics(fixtures):
    spec = fixtures["fs_cp2"]
    pts = sample_points(spec.domain, SamplePlan(points=5, directions=2, planes=2))
    report = _preflight(metric_from_potential(spec.potential(), pts, spec.n, depth=1))
    assert report.passed
    assert set(report.checks) == {"hermitian", "closed_form", "parallel_j"}


def test_shared_jet_preflight_matches_preflight_kahler(fixtures, full_reports):
    """The preflight on the depth-3 jets of a run matches one on depth-1
    jets expanded afresh at the same points."""
    for name, spec in fixtures.items():
        report = full_reports[name]
        alone = _preflight(metric_from_potential(spec.potential(), report.points, spec.n,
                                                 depth=1))
        assert report.preflight == alone, name


def test_preflight_flags_non_hermitian_metric():
    good = _fake_metric(np.eye(4))
    bad = _fake_metric(np.diag([1.0, 2.0, 3.0, 4.0]))
    report = _preflight(stack_metrics([good, bad]))
    assert not report.passed
    assert report.checks["hermitian"]["max"] > 0.1
    assert report.checks["hermitian"]["point_index"] == 1
    err = PreflightError(report)
    assert "not Kahler within" in str(err)
    assert "hermitian" in str(err)
    assert "point #1" in str(err)
    assert err.report is report


def test_preflight_flags_nonclosed_form():
    # hand-built dg with a d(omega) != 0 component but symmetric derivative
    good = _fake_metric(np.eye(4))
    dg = np.zeros((4, 4, 4))
    dg[2, 0, 1] = dg[2, 1, 0] = 0.3  # d_{x2} g_{x1 y1}
    bad = MetricJet(
        point=np.zeros(4), n=2, g=np.eye(4), dg=dg, ddg=None, dddg=None,
        J=standard_complex_structure(2),
    )
    report = _preflight(stack_metrics([good, bad]))
    assert report.checks["closed_form"]["max"] > 1e-3
    assert report.checks["closed_form"]["point_index"] == 1


def test_preflight_accepts_stacked_jets(fixtures):
    spec = fixtures["product_cp1_cp1_unequal"]
    pts = sample_points(spec.domain, SamplePlan(points=9, directions=2, planes=2))
    singles = [metric_from_potential(spec.potential(), p, spec.n, depth=1) for p in pts]
    stacked = metric_from_potential(spec.potential(), pts, spec.n, depth=1)
    assert _preflight(stacked) == _preflight(stack_metrics(singles))
    bad = _fake_metric(np.diag([1.0, 2.0, 3.0, 4.0]))
    worse = _fake_metric(np.diag([1.0, 3.0, 5.0, 4.0]))
    good = _fake_metric(np.eye(4))
    report = _preflight(stack_metrics([good, bad, worse, worse]))
    assert report.checks["hermitian"]["point_index"] == 2  # first of the largest


# Non-Einstein potentials of n = 1, 3 and 4, the points sampled from
# each, and the points of a block at that n.
BLOCK_SPECS = {
    1: (ManifoldSpec("surface", 1, "log(1+absq(1)) + 0.1*absq(1)^2", ((-1.0, 1.0),) * 2),
        5, 2),
    3: (ManifoldSpec("gen3", 3, "rsq + 0.2*absq(1)*absq(2) + 0.1*absq(3)^2 + 0.05*x1*x2*y3",
                     ((-0.5, 0.5),) * 6), 6, 4),
    4: (ManifoldSpec("gen4", 4, "rsq + 0.2*absq(1)*absq(4) + 0.1*absq(3)^2 + 0.05*x2*y3*y4",
                     ((-0.5, 0.5),) * 8), 3, 2),
}


def test_evidence_across_blocks_matches_each_point(fixtures, monkeypatch):
    # 70 points at n = 2 make blocks of 32, 32 and 6.
    _check_evidence_across_blocks(monkeypatch, fixtures["perturbed_flat"], 70, 32)


@pytest.mark.parametrize("n", sorted(BLOCK_SPECS))
def test_evidence_across_blocks_matches_each_point_at_every_n(n, monkeypatch):
    # The BLAS kernels behind the matmuls differ with the tensor size.
    _check_evidence_across_blocks(monkeypatch, *BLOCK_SPECS[n])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_report_does_not_depend_on_block_budget(n, fixtures, monkeypatch):
    # Budgets of 2^13, 2^15 and 2^17 entries: blocks of 8, 32 and 128
    # points at n = 2, of 1, 4 and 16 at n = 3, of 1, 1 and 4 at n = 4,
    # each run ending on a partial block.
    spec, count = {2: (fixtures["perturbed_flat"], 140), 3: (BLOCK_SPECS[3][0], 20),
                   4: (BLOCK_SPECS[4][0], 9)}[n]
    plan = SamplePlan(points=count, directions=4, planes=4, seed=5)
    reports = set()
    for budget in (2**13, 2**15, 2**17):
        monkeypatch.setattr(classifier, "_BLOCK_ENTRIES", budget)
        reports.add(run(spec, plan).to_json())
    assert len(reports) == 1


def _check_evidence_across_blocks(monkeypatch, spec, count, per_block):
    # A budget of per_block points, fewer than count and not dividing it,
    # so that the points span several blocks and the last is partial.
    assert per_block < count and count % per_block
    monkeypatch.setattr(classifier, "_BLOCK_ENTRIES", per_block * (2 * spec.n) ** 5)
    plan = SamplePlan(points=count, directions=4, planes=4, seed=3)
    points, report, data = sample_evidence(spec, plan)
    potential = spec.potential()
    first_order = []
    for i, point in enumerate(points):
        m = metric_from_potential(potential, point, spec.n)
        first_order.append(m)
        b = curvature_bundle(m)
        assert np.array_equal(data.bundle.metric.point[i], point)
        assert np.array_equal(data.dirs[i], direction_samples(plan, i, 2 * spec.n))
        assert np.array_equal(data.planes[i], plane_samples(plan, i, 2 * spec.n))
        assert np.array_equal(data.bundle.metric.g[i], b.metric.g)
        assert np.array_equal(data.bundle.metric.dg[i], b.metric.dg)
        assert np.array_equal(data.bundle.connection.gamma[i], b.connection.gamma)
        assert np.array_equal(data.bundle.connection.dgamma[i], b.connection.dgamma)
        for field in ("r13", "r04", "ricci", "dricci", "nabla_ricci", "scal"):
            assert np.array_equal(getattr(data.bundle, field)[i], getattr(b, field)), (i, field)
        assert np.array_equal(data.rs[i], r_dot_s(b))
        assert np.array_equal(data.q[i], tachibana_ricci(b.metric.g, b.ricci))
        assert np.array_equal(data.qc[i], complex_tachibana_ricci(b.metric.g, b.ricci, b.metric.J))
    assert report == _preflight(stack_metrics(first_order))


def _contraction_inputs(n, points, directions, planes):
    rng = np.random.default_rng(n)
    m = 2 * n
    return (rng.standard_normal((points, m, m, m, m)),
            rng.standard_normal((points, m, m, m)),
            rng.standard_normal((points, directions, m)),
            rng.standard_normal((points, planes, m)),
            standard_complex_structure(n))


@pytest.mark.parametrize("n", [2, 4])
def test_sample_contractions_match_index_loops(n):
    # The plane values of three rungs and the identity suite, the Deszcz
    # samples R.S(v_k,v_k;x_k,Jx_k) and Q(g,S)(...) (the diagonal of the
    # plane values), and the ricci_parallel values, against sums taken one
    # index at a time; the gate is relative to the sum of |terms|.
    t, nabla_s, u, x, j = _contraction_inputs(n, 2, 3, 4)
    planes = _plane_reduce(t, u, x, j)
    paired = _paired_values(t, u, x[:, :3], j)
    parallel = _parallel_plane_values(nabla_s, u, x, j)
    for p in range(2):
        a = [np.abs(v) for v in (t[p], nabla_s[p], u[p], x[p], j)]
        expected = plane_values_loop(t[p], u[p], x[p], j)
        bound = 1e-13 * plane_values_loop(a[0], a[2], a[3], a[4])
        assert np.all(np.abs(planes[p] - expected) <= bound)
        assert np.all(np.abs(paired[p] - np.diagonal(expected[:, :3]))
                      <= np.diagonal(bound[:, :3]))
        expected = parallel_values_loop(nabla_s[p], u[p], x[p], j)
        bound = 1e-13 * parallel_values_loop(a[1], a[2], a[3], a[4])
        assert np.all(np.abs(parallel[p] - expected) <= bound)


@pytest.mark.parametrize("n", [2, 4])
def test_sample_contractions_over_points_match_one_point_at_a_time(n):
    t, nabla_s, u, x, j = _contraction_inputs(n, 40 if n == 2 else 6, 20, 20)
    stacked = (_plane_reduce(t, u, x, j), _paired_values(t, u, x, j),
               _parallel_plane_values(nabla_s, u, x, j))
    for p in range(len(t)):
        singles = (_plane_reduce(t[p], u[p], x[p], j), _paired_values(t[p], u[p], x[p], j),
                   _parallel_plane_values(nabla_s[p], u[p], x[p], j))
        for values, single in zip(stacked, singles):
            assert np.array_equal(values[p], single), p


def test_deszcz_fit_over_points_matches_the_point_loop(fixtures):
    # Points 1 and 4 lose every defined sample: f_S is None there and the
    # spread falls back to |R.S|, with no RuntimeWarning from the fit.  Point
    # 2 keeps the 4 samples whose |Q(g,S)| lies above the middle ones.
    plan = SamplePlan(points=6, directions=5, planes=7, seed=2)
    _, _, data = sample_evidence(fixtures["perturbed_flat"], plan)
    v = data.dirs[2, np.arange(plan.planes) % plan.directions]
    dens = np.abs(_paired_values(data.q[2], v, data.planes[2], data.bundle.metric.J))
    q = data.q.copy()
    q[[1, 4]] = 0.0
    q[2] *= DEPENDENCE_THRESHOLD * data.dep_scale[2] / np.sort(dens)[2:4].mean()
    data = replace(data, q=q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict, spread, residual, f_hats = _holo_pseudosymmetric(data, plan)
    assert verdict.details["defined_samples"] == [7, 0, 4, 7, 0, 7]
    vacuous = max_norm(data.rs, 4) / data.scale_rs
    expected = deszcz_fit_loop(data, plan)
    for p in range(6):
        if p in (1, 4):
            assert f_hats[p] is None
            assert spread[p] == residual[p] == vacuous[p]
            assert expected[2][p] is None
            continue
        for got, want in zip((spread[p], residual[p], f_hats[p]),
                             (expected[0][p], expected[1][p], expected[2][p])):
            assert abs(got - want) <= 1e-14 * abs(want)


# -- lattice ------------------------------------------------------------------


def _verdict(name, status):
    return CriterionVerdict(name, status, 0.0, None, False, {})


def test_lattice_consistent_chains_pass():
    chain = [
        _verdict("ricci_flat", FAIL),
        _verdict("einstein", FAIL),
        _verdict("ricci_parallel", PASS),
        _verdict("ricci_semisymmetric", PASS),
        _verdict("holo_ricci_pseudosymmetric", PASS),
    ]
    _check_lattice(chain)  # no raise
    _check_lattice([_verdict("a", FAIL), _verdict("b", FAIL)])
    _check_lattice([_verdict("a", FAIL), _verdict("b", INCONCLUSIVE)])


def test_lattice_violation_raises():
    chain = [
        _verdict("einstein", PASS),
        _verdict("ricci_parallel", FAIL),
    ]
    with pytest.raises(LatticeError, match="einstein passed but implied"):
        _check_lattice(chain)
    # inconclusive downstream is tolerated, only FAIL trips the check
    _check_lattice([_verdict("einstein", PASS), _verdict("x", INCONCLUSIVE)])


def test_route_agreement_margins(full_reports):
    """Beyond mere agreement: both routes land on the same side with room."""
    for name, report in full_reports.items():
        verdict = report.verdict
        tol = report.plan.tolerance
        for criterion in verdict.criteria():
            if criterion.characterization is None:
                continue
            if criterion.status == PASS:
                assert criterion.direct <= tol
                assert criterion.characterization <= tol
            elif criterion.status == FAIL:
                assert criterion.direct > tol
                assert criterion.characterization > tol
