"""Ladder classification: sampling, evidence, verdicts, lattice checks."""

import os
import re
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
    SamplePlan,
    _check_lattice,
    _fit_samples,
    _holo_pseudosymmetric,
    _outer_rows,
    _parallel_plane_values,
    _plane_reduce,
    _routes,
    _scales,
    direction_samples,
    plane_samples,
    sample_evidence,
    sample_points,
)
from kahlersym.curvature import christoffel, curvature_bundle
from kahlersym.expressions import parse, pretty
from kahlersym.metrics import metric_from_potential
from kahlersym.runner import run
from kahlersym.symmetry_tensors import complex_tachibana_ricci, r_dot_s
from kahlersym.tensor_algebra import max_norm, standard_complex_structure
from kahlersym.zoo import ManifoldSpec, load_spec

from helpers import (
    deszcz_fit_loop,
    evidence_at,
    kahler_checks_matmul,
    parallel_values_loop,
    plane_values_loop,
)


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


@pytest.mark.parametrize("plan", [SamplePlan(), SamplePlan(points=30, directions=7, planes=11,
                                                           seed=3)], ids=["default", "30x7x11"])
def test_criterion_numbers_are_the_worst_of_their_evidence(fixtures, full_reports, plan):
    """A rung's direct and characterization are the largest values of its
    evidence series: <rung>.direct and <rung>.holo, or the spread and the
    residual of holo_ricci_pseudosymmetric.  Einstein's direct also reads
    the lambda spread; ricci_flat has no holo route."""
    for name, spec in fixtures.items():
        verdict = (full_reports[name] if plan == SamplePlan() else run(spec, plan)).verdict
        evidence = verdict.evidence
        for c in verdict.criteria():
            routes = (("spread", "residual") if c.name == "holo_ricci_pseudosymmetric"
                      else ("direct", "holo"))
            direct, holo = (evidence.get(f"{c.name}.{route}") for route in routes)
            worst = max(direct)
            if c.name == "einstein":
                worst = max(worst, c.details["lambda_spread"])
            assert c.direct == worst, (name, c.name)
            assert (holo is None) == (c.name == "ricci_flat"), (name, c.name)
            assert c.characterization == (None if holo is None else max(holo)), (name, c.name)
        assert len(evidence) == 9, name


# Holomorphically Ricci-pseudosymmetric witnesses with a non-constant f_S.
WITNESSES = (
    ManifoldSpec("exp_rsq", 2, "exp(rsq)", ((-0.5, 0.5),) * 4),
    ManifoldSpec("quartic_rsq", 2, "rsq + 0.3*rsq^2", ((-0.5, 0.5),) * 4),
)


# A curved Ricci-flat metric: S is roundoff, so every scale must rest on the curvature.
EGUCHI_HANSON = load_spec(os.path.join(os.path.dirname(__file__), "manifests",
                                       "eguchi_hanson.txt"))


@pytest.fixture(scope="module")
def unscaled_reports(fixtures, full_reports, full_plan):
    return [(spec, full_reports[name]) for name, spec in fixtures.items()] + [
        (spec, run(spec, full_plan)) for spec in (EGUCHI_HANSON, *WITNESSES)
    ]


def _scaled(c):
    return lambda source, n: f"{c!r}*({source})"


def _plus_pluriharmonic(source, n):
    """K + Re(h) for a holomorphic quadratic h: ddbar of it vanishes, but
    its monomials change the supports of the potential's jets."""
    if n >= 2:
        return f"({source}) + 0.3*(x1^2 - y1^2) + x1*x2 - y1*y2"
    return f"({source}) + 0.3*(x1^2 - y1^2) + 0.7*x1*y1"


POTENTIAL_MAPS = {repr(c): _scaled(c) for c in (1e-9, 1e-3, 1e3, 1e9)}
POTENTIAL_MAPS["pluriharmonic"] = _plus_pluriharmonic


def _assert_same_verdict(mapped, reference):
    name = mapped.name
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run(mapped, reference.plan)
    assert report.identities_passed, (name, report.worst_identity())
    assert not report.verdict.any_route_mismatch, name
    assert report.verdict.classification == reference.verdict.classification, name
    assert ([c.status for c in report.verdict.criteria()]
            == [c.status for c in reference.verdict.criteria()]), name
    assert report.verdict.f_s_constant == reference.verdict.f_s_constant, name


@pytest.mark.parametrize("potential_map", POTENTIAL_MAPS.values(), ids=POTENTIAL_MAPS)
def test_classification_invariant_under_potential_scaling(unscaled_reports, potential_map):
    """K -> cK scales g by c, and K -> K + Re(h) for a holomorphic h leaves
    g as it is; both leave R^a_bcd, S, every rung and the verdict on f_S
    constancy unchanged."""
    for spec, reference in unscaled_reports:
        mapped = replace(spec, potential_source=potential_map(spec.potential_source, spec.n))
        _assert_same_verdict(mapped, reference)


def _substitute(spec, coords, factor):
    """K o phi for the complex-linear phi that ``coords`` gives, as a map from
    a coordinate name to its image, on the domain scaled by ``factor``.
    The source is macro-expanded first, so every coordinate is spelled out."""
    source = re.sub(r"\b[xy]\d+\b", lambda c: f"({coords.get(c[0], c[0])})",
                    pretty(parse(spec.potential_source, spec.n)))
    domain = tuple((lo * factor, hi * factor) for lo, hi in spec.domain)
    return replace(spec, potential_source=source, domain=domain)


def _dilation(lam):
    def chart(spec):
        coords = {f"{a}{k}": f"{lam!r}*{a}{k}" for a in "xy" for k in range(1, spec.n + 1)}
        return _substitute(spec, coords, 1 / lam)
    return chart


def _unitary(spec):
    """z -> ((z1 + z2)/sqrt 2, (z1 - i z2)/sqrt 2), on the halved domain, so
    that the image of every sample lies in the original box."""
    r = 0.5 ** 0.5
    coords = {"x1": f"{r!r}*(x1+x2)", "y1": f"{r!r}*(y1+y2)",
              "x2": f"{r!r}*(x1+y2)", "y2": f"{r!r}*(y1-x2)"}
    return _substitute(spec, coords, 0.5)


CHART_MAPS = {f"dilation_{lam!r}": _dilation(lam) for lam in (1e-3, 1e-2, 1e2, 1e3)}
CHART_MAPS["unitary"] = _unitary


@pytest.mark.parametrize("c", [1e-9, 1e-3, 1e3, 1e9])
def test_lambda_spread_is_invariant_under_potential_scaling(c):
    """At n = 1 every metric is pointwise Einstein (S = K g), so the einstein
    rung rests on the lambda spread alone.  K -> cK scales lambda and the
    scale "lambda" alike, by 1/c, so the spread and the rung stay put."""
    spec = ManifoldSpec("surface", 1, "absq(1) + 0.3*absq(1)^2", ((-0.8, 0.8),) * 2)
    reference = run(spec).verdict.einstein
    scaled = run(replace(spec, potential_source=f"{c!r}*({spec.potential_source})"))
    einstein = scaled.verdict.einstein
    assert einstein.status == reference.status
    spread = reference.details["lambda_spread"]
    assert abs(einstein.details["lambda_spread"] - spread) <= 1e-12 * spread


@pytest.mark.parametrize("chart_map", CHART_MAPS.values(), ids=CHART_MAPS)
def test_classification_invariant_under_linear_changes_of_chart(unscaled_reports, chart_map):
    """K o phi for a complex-linear phi is the pullback of the metric by a
    biholomorphism: a dilation z -> lam z (on the domain divided by lam)
    scales g by lam^2, and a unitary map is an isometry of flat C^n, so
    the class, every rung and the verdict on f_S constancy stay put."""
    for spec, reference in unscaled_reports:
        if chart_map is _unitary and spec.n < 2:
            continue
        _assert_same_verdict(chart_map(spec), reference)


def test_witnesses_have_non_constant_f_s(unscaled_reports):
    for spec, report in unscaled_reports[-len(WITNESSES):]:
        assert report.verdict.classification == "holo_ricci_pseudosymmetric", spec.name
        assert report.verdict.f_s_constant is False, spec.name


def test_deszcz_fit_finite_for_huge_samples():
    """exp(300 rsq) is exp(rsq) in w = sqrt(300) z, a holomorphically Ricci-
    pseudosymmetric witness; its Qc(g,S) samples are so large that the fit's
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


def test_point_samples_draw_only_the_points_up_to_theirs():
    # direction_samples and plane_samples draw the stream for points 0..i
    # alone; the rows equal those of the plan's full draw and of its table.
    plan = SamplePlan(points=400, directions=5, planes=6, seed=7)
    dirs, x = (classifier._unit_rows(plan.seed, stream, plan.points, count, 4)
               for stream, count in ((classifier._DIRECTION_STREAM, plan.directions),
                                     (classifier._PLANE_STREAM, plan.planes)))
    dir_rows = classifier._sample_table(plan.seed, plan.points, plan.directions, plan.planes, 2)[1]
    for i in (0, 1, 199, 399):
        d = direction_samples(plan, i, 4)
        assert np.array_equal(d, dirs[i])
        assert np.array_equal(plane_samples(plan, i, 4), x[i])
        assert np.array_equal(_outer_rows(d, d), dir_rows[i])


@pytest.mark.parametrize("directions, planes", [(5, 3), (4, 4), (3, 5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sample_table_is_held_once_per_plan_and_n(n, directions, planes):
    table = classifier._sample_table
    plan = SamplePlan(points=3, directions=directions, planes=planes, seed=n)
    m = 2 * n
    dirs = np.stack([direction_samples(plan, i, m) for i in range(plan.points)])
    x = np.stack([plane_samples(plan, i, m) for i in range(plan.points)])
    fresh = (x, _outer_rows(dirs, dirs), _outer_rows(x, x @ standard_complex_structure(n).T))
    table.cache_clear()
    held = table(plan.seed, plan.points, plan.directions, plan.planes, n)
    for rows, built in zip(held, fresh):
        assert rows.shape == built.shape and rows.tobytes() == built.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rows[...] = 0.0

    spec = ManifoldSpec(f"fs_cp{n}", n, "log(1+rsq)", ((-0.5, 0.5),) * m)
    loose = replace(plan, tolerance=1e-3)
    data = sample_evidence(spec, loose)
    assert all(a is b for a, b in zip((data.planes, data.dir_rows, data.plane_rows), held))
    assert table.cache_info().misses == 1 and table.cache_info().currsize == 1

    # Runs alternating n and another dimension at one plan build each table once.
    other_n = 3 if n == 4 else n + 1
    other = ManifoldSpec(f"fs_cp{other_n}", other_n, "log(1+rsq)",
                         ((-0.5, 0.5),) * (2 * other_n))
    table.cache_clear()
    seen = {}
    for s in (spec, other, spec, other):
        data = sample_evidence(s, plan)
        rows = (data.planes, data.dir_rows, data.plane_rows)
        first = seen.setdefault(s.n, rows)
        assert all(a is b for a, b in zip(rows, first))
    assert table.cache_info().misses == 2 and table.cache_info().currsize == 2

    # One key beyond the bound drops the least recently used one.
    table.cache_clear()
    keys = [(plan.seed + k, plan.points, plan.directions, plan.planes, n)
            for k in range(classifier._SAMPLE_TABLES + 1)]
    tables = [table(*key) for key in keys]
    assert table.cache_info().currsize == classifier._SAMPLE_TABLES
    assert table(*keys[-1]) is tables[-1] and table(*keys[1]) is tables[1]
    assert table.cache_info().misses == len(keys)
    again = table(*keys[0])
    assert again is not tables[0] and table.cache_info().misses == len(keys) + 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, tables[0]))

    # Hits on a seen plan, a miss on each new seed; every report as a cold run gives it.
    runs = [plan, loose, replace(plan, seed=plan.seed + 10), plan]
    warm = []
    for p in runs:
        warm.append(run(spec, p).to_json())
        assert table.cache_info().currsize <= classifier._SAMPLE_TABLES
    cold = []
    for p in runs:
        table.cache_clear()
        cold.append(run(spec, p).to_json())
    assert warm == cold


def test_plan_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SamplePlan(points=1)
    with pytest.raises(ValueError, match="seed"):
        SamplePlan(seed=-1)
    for tolerance in (0.0, -1e-7, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SamplePlan(tolerance=tolerance)


# -- the metric's Kahler conditions -----------------------------------------

KAHLER_KEYS = ("kahler_form_closed", "kahler_j_parallel")


def _kahler_checks(m):
    """d(omega) and nabla J of a depth>=1 jet, one value per point."""
    return kahler_checks_matmul(m, christoffel(m).gamma)


def test_kahler_conditions_hold_on_zoo(fixtures, full_reports):
    """The Kahler form is closed and J parallel within 1e-9 on every fixture."""
    for name, spec in fixtures.items():
        report = full_reports[name]
        assert report.identities_passed, name
        checks = _kahler_checks(metric_from_potential(spec.potential(), report.points, spec.n,
                                                      depth=1))
        for check in KAHLER_KEYS:
            assert np.max(checks[check]) <= 1e-9, (name, check)


def test_kahler_checks_of_depth_one_jets_match_the_bundle(fixtures):
    spec = fixtures["fs_cp2"]
    pts = sample_points(spec.domain, SamplePlan(points=5, directions=2, planes=2))
    m = metric_from_potential(spec.potential(), pts, spec.n, depth=1)
    checks = _kahler_checks(m)
    assert set(checks) == set(KAHLER_KEYS)
    for key, values in checks.items():
        assert values.shape == (5,) and (values <= 1e-9).all(), key
    b = evidence_at(spec.potential(), pts, spec.n).bundle
    closed = kahler_checks_matmul(b.metric, b.connection.gamma)["kahler_form_closed"]
    assert np.array_equal(closed, checks["kahler_form_closed"])


def test_kahler_checks_of_evidence_jets_match_depth_one_jets(fixtures, full_reports):
    """The Kahler conditions on the depth-3 jets of a run's evidence match
    the same conditions on depth-1 jets expanded afresh at the same points."""
    for name, spec in fixtures.items():
        report = full_reports[name]
        b = sample_evidence(spec, report.plan).bundle
        shared = kahler_checks_matmul(b.metric, b.connection.gamma)
        alone = _kahler_checks(metric_from_potential(spec.potential(), report.points, spec.n,
                                                     depth=1))
        for key, values in alone.items():
            assert np.array_equal(shared[key], values), (name, key)


def test_kahler_checks_of_stacked_jets_match_single_points(fixtures):
    spec = fixtures["product_cp1_cp1_unequal"]
    pts = sample_points(spec.domain, SamplePlan(points=9, directions=2, planes=2))
    singles = [metric_from_potential(spec.potential(), p, spec.n, depth=1) for p in pts]
    stacked = metric_from_potential(spec.potential(), pts, spec.n, depth=1)
    for key, values in _kahler_checks(stacked).items():
        assert values.tolist() == [float(_kahler_checks(m)[key]) for m in singles], key
    # Hand-built stack: d(omega) != 0 at points 1-3, largest at 2 and 3.
    dg = np.zeros((4, 4, 4, 4))
    dg[1:, 2, 0, 1] = dg[1:, 2, 1, 0] = [0.1, 0.3, 0.3]  # d_{x2} g_{x1 y1}
    flat = evidence_at(parse("rsq", 2), np.zeros((4, 4)), 2, dg=dg).bundle
    closed = kahler_checks_matmul(flat.metric, flat.connection.gamma)["kahler_form_closed"]
    assert closed[0] == 0.0
    assert 1e-3 < closed[1] < closed[2] == closed[3]


# Non-Einstein potentials of n = 1, 3 and 4 and the points sampled from each.
STACK_SPECS = {
    1: (ManifoldSpec("surface", 1, "log(1+absq(1)) + 0.1*absq(1)^2", ((-1.0, 1.0),) * 2), 5),
    3: (ManifoldSpec("gen3", 3, "rsq + 0.2*absq(1)*absq(2) + 0.1*absq(3)^2 + 0.05*x1*x2*y3",
                     ((-0.5, 0.5),) * 6), 6),
    4: (ManifoldSpec("gen4", 4, "rsq + 0.2*absq(1)*absq(4) + 0.1*absq(3)^2 + 0.05*x2*y3*y4",
                     ((-0.5, 0.5),) * 8), 3),
}


def test_evidence_across_blocks_matches_each_point(fixtures):
    _check_stacked_evidence(fixtures["perturbed_flat"], 70)


@pytest.mark.parametrize("n", sorted(STACK_SPECS))
def test_evidence_across_blocks_matches_each_point_at_every_n(n):
    # The BLAS kernels behind the matmuls differ with the tensor size.
    _check_stacked_evidence(*STACK_SPECS[n])


def test_run_holds_no_tensor_above_rank_four_per_point():
    # No (2n)^5 tensor at n = 4: every array of the evidence run() gathers,
    # its curvature bundle, metric jet and connection included, holds at
    # most (2n)^4 entries per point; so do the depth-3 jet and the connection
    # with d(gamma) that the bundle is built from, as metric_from_potential
    # and christoffel give them.
    spec, count = STACK_SPECS[4]
    data = sample_evidence(spec, SamplePlan(points=count, directions=4, planes=4, seed=3))
    b = data.bundle
    jet = metric_from_potential(spec.potential(), b.metric.point, spec.n)
    parts = (data, b, b.metric, b.connection, jet, christoffel(jet))
    arrays = [v for part in parts for v in vars(part).values()
              if isinstance(v, np.ndarray) and v.ndim > 2]
    assert arrays and all(v.size <= count * 8**4 for v in arrays)
    assert jet.t.shape == (count, 8, 8, 8)


def _check_stacked_evidence(spec, count):
    """The evidence over all points stacked equals each point evaluated alone."""
    plan = SamplePlan(points=count, directions=4, planes=4, seed=3)
    data = sample_evidence(spec, plan)
    points = sample_points(spec.domain, plan)
    b = data.bundle
    kahler = kahler_checks_matmul(b.metric, b.connection.gamma, b.dricci, data.scales["S"])
    potential = spec.potential()
    # The bundle keeps no ddg, t or d(gamma); those of the stacked jet the
    # run expands are checked point by point as metric_from_potential and
    # christoffel give them.
    jet = metric_from_potential(potential, points, spec.n)
    dgamma = christoffel(jet).dgamma
    assert data.bundle.metric.ddg is None and data.bundle.metric.t is None
    assert data.bundle.connection.dgamma is None
    assert np.array_equal(data.bundle.norm_dgamma, max_norm(dgamma, 4))
    for i, point in enumerate(points):
        m = metric_from_potential(potential, point, spec.n)
        b = curvature_bundle(m)
        assert np.array_equal(data.bundle.metric.point[i], point)
        dirs, planes = direction_samples(plan, i, 2 * spec.n), plane_samples(plan, i, 2 * spec.n)
        assert np.array_equal(data.planes[i], planes)
        assert np.array_equal(data.dir_rows[i], _outer_rows(dirs, dirs))
        assert np.array_equal(data.plane_rows[i], _outer_rows(planes, planes @ m.J.T))
        for field in ("g", "G", "dg"):
            assert np.array_equal(getattr(data.bundle.metric, field)[i],
                                  getattr(b.metric, field)), (i, field)
        for field in ("g", "G", "dg", "ddg", "t"):
            assert np.array_equal(getattr(jet, field)[i], getattr(m, field)), (i, field)
        assert np.array_equal(data.bundle.connection.gamma[i], b.connection.gamma)
        assert np.array_equal(dgamma[i], christoffel(m).dgamma)
        for field in ("r13", "r04", "ricci", "dricci", "nabla_ricci", "scal", "norm_dgamma"):
            assert np.array_equal(getattr(data.bundle, field)[i], getattr(b, field)), (i, field)
        rs = r_dot_s(b)
        qc = complex_tachibana_ricci(b.metric.g, b.ricci)
        assert np.array_equal(data.rs[i], rs)
        assert np.array_equal(data.qc[i], qc)
        single = _scales(b, rs, qc)
        assert data.scales.keys() == single.keys()
        for key, value in single.items():
            assert data.scales[key][i] == value, (i, key)
        for key, value in kahler_checks_matmul(m, b.connection.gamma, b.dricci,
                                               single["S"]).items():
            assert kahler[key][i] == value, (i, key)


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
    # The plane values of three rungs and the identity suite, and the
    # ricci_parallel values, against sums taken one index at a time; the
    # gate is relative to the sum of |terms|.  The Deszcz samples are the
    # plane values of direction k mod (directions) on plane seed k.
    for directions, planes in ((7, 5), (6, 6), (5, 7)):
        t, _, u, x, j = _contraction_inputs(n, 2, directions, planes)
        values = _plane_reduce(t, _outer_rows(u, u), _outer_rows(x, x @ j.T))
        samples = _fit_samples(values)
        assert samples.shape == (2, planes)
        for p, k in np.ndindex(samples.shape):
            assert samples[p, k] == values[p, k % directions, k]
    t, nabla_s, u, x, j = _contraction_inputs(n, 2, 3, 4)
    u_outer, x_outer = _outer_rows(u, u), _outer_rows(x, x @ j.T)
    planes = _plane_reduce(t, u_outer, x_outer)
    parallel = _parallel_plane_values(nabla_s, u_outer, x, j)
    for p in range(2):
        for k in range(3):
            assert np.array_equal(u_outer[p, k], np.outer(u[p, k], u[p, k]).ravel())
        for k in range(4):
            assert np.array_equal(x_outer[p, k], np.outer(x[p, k], j @ x[p, k]).ravel())
        a = [np.abs(v) for v in (t[p], nabla_s[p], u[p], x[p], j)]
        expected = plane_values_loop(t[p], u[p], x[p], j)
        bound = 1e-13 * plane_values_loop(a[0], a[2], a[3], a[4])
        assert np.all(np.abs(planes[p] - expected) <= bound)
        expected = parallel_values_loop(nabla_s[p], u[p], x[p], j)
        bound = 1e-13 * parallel_values_loop(a[1], a[2], a[3], a[4])
        assert np.all(np.abs(parallel[p] - expected) <= bound)


@pytest.mark.parametrize("n", [2, 4])
def test_sample_contractions_over_points_match_one_point_at_a_time(n):
    t, nabla_s, u, x, j = _contraction_inputs(n, 40 if n == 2 else 6, 20, 20)
    u_outer, x_outer = _outer_rows(u, u), _outer_rows(x, x @ j.T)
    stacked = (u_outer, x_outer, _plane_reduce(t, u_outer, x_outer),
               _parallel_plane_values(nabla_s, u_outer, x, j))
    for p in range(len(t)):
        u1, x1 = _outer_rows(u[p], u[p]), _outer_rows(x[p], x[p] @ j.T)
        singles = (u1, x1, _plane_reduce(t[p], u1, x1),
                   _parallel_plane_values(nabla_s[p], u1, x[p], j))
        for values, single in zip(stacked, singles):
            assert np.array_equal(values[p], single), p


def _deszcz_fit(data, plan):
    """The holo_ricci_pseudosymmetric rung on the samples that the
    ricci_semisymmetric and einstein rungs read off their plane values."""
    nums, dens = _routes(data)[2:]
    return _holo_pseudosymmetric(data, plan, nums, dens)


def test_deszcz_fit_over_points_matches_the_point_loop(fixtures):
    # Points 1 and 4 lose every defined sample: f_S is None there and the
    # spread falls back to |R.S|, with no RuntimeWarning from the fit.  Point
    # 2 keeps the 4 samples whose |Qc(g,S)| lies above the middle ones.
    plan = SamplePlan(points=6, directions=5, planes=7, seed=2)
    data = sample_evidence(fixtures["perturbed_flat"], plan)
    dens = np.abs(_routes(data)[-1][2])
    qc = data.qc.copy()
    qc[[1, 4]] = 0.0
    qc[2] *= DEPENDENCE_THRESHOLD * data.scales["Qc"][2] / np.sort(dens)[2:4].mean()
    data = replace(data, qc=qc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict, spread, residual, f_hats = _deszcz_fit(data, plan)
    assert verdict.details["defined_samples"] == [7, 0, 4, 7, 0, 7]
    vacuous = max_norm(data.rs, 4) / data.scales["R.S"]
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


@pytest.mark.parametrize("directions, planes", [(7, 5), (6, 6), (5, 7)])
def test_deszcz_samples_pair_direction_i_mod_count_with_plane_i(fixtures, directions, planes):
    # Fewer, as many and more planes than directions: the fit reads the
    # plane values (k mod directions, k); the loop pairs the vectors.
    plan = SamplePlan(points=3, directions=directions, planes=planes, seed=4)
    data = sample_evidence(fixtures["perturbed_flat"], plan)
    got = _deszcz_fit(data, plan)[1:]
    for values, expected in zip(got, deszcz_fit_loop(data, plan)):
        for value, want in zip(values, expected):
            assert abs(value - want) <= 1e-14 * abs(want)


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
