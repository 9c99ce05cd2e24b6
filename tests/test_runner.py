"""Identity suite and report plumbing."""

import dataclasses
import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlersym import classifier, symmetry_tensors, tensor_algebra
from kahlersym.classifier import (
    SamplePlan,
    _plane_reduce,
    direction_samples,
    plane_samples,
    sample_evidence,
)
from kahlersym.curvature import curvature_bundle
from kahlersym.expressions import parse
from kahlersym.metrics import metric_from_potential
from kahlersym.runner import (
    IDENTITY_TOLERANCE,
    _json_text,
    identity_checks,
    identity_suite,
    run,
)
from kahlersym.symmetry_tensors import complex_tachibana_ricci, r_dot_s, tachibana_ricci
from kahlersym.tensor_algebra import check_rs_symmetries, j_conjugate_last_pair
from kahlersym.zoo import ManifoldSpec, zoo

from helpers import (
    evidence_at,
    j_rotated_symmetric_einsum,
    kahler_checks_matmul,
    rel_violation_oracle,
)
from test_acceptance import ALGEBRAIC_IDENTITIES
from test_classifier import WITNESSES

EXPECTED_CHECKS = {
    "ricci_symmetric",
    "ricci_j_invariant",
    "rs_antisym_last_pair",
    "rs_sym_first_pair",
    "rs_j_pair_invariance",
    "qc_j_pair_invariance",
    "riemann_antisym_first_pair",
    "riemann_antisym_last_pair",
    "riemann_pair_symmetry",
    "riemann_first_bianchi",
    "kahler_j_invariance",
}


def test_identity_check_names_are_frozen(fixtures, small_plan):
    data = sample_evidence(fixtures["perturbed_flat"], small_plan)
    checks = identity_checks(data)
    assert set(checks) == EXPECTED_CHECKS
    assert ALGEBRAIC_IDENTITIES <= EXPECTED_CHECKS
    for values in checks.values():
        assert np.shape(values) == (small_plan.points,)


def test_identity_suite_takes_worst_case(fixtures, small_plan):
    data = sample_evidence(fixtures["perturbed_flat"], small_plan)
    worst = identity_suite(data)
    per_point = identity_checks(data)
    for name in EXPECTED_CHECKS:
        assert worst[name] == max(per_point[name])


def test_identities_pass_across_zoo(full_reports):
    for name, report in full_reports.items():
        assert report.identities_passed, (name, report.worst_identity())
        for check, value in report.identities.items():
            assert value <= IDENTITY_TOLERANCE, (name, check, value)


def _flat_kahler_checks_with(**changes):
    """The matmul Kahler conditions of a flat metric at two points, gathered
    with ``dg`` of its metric jet, or ``gamma`` or ``dricci`` of its
    curvature bundle, replaced."""
    d = evidence_at(parse("rsq", 2), np.zeros((2, 4)), 2, **changes)
    b = d.bundle
    return kahler_checks_matmul(b.metric, b.gamma, b.dricci, d.scales["S"])


def test_kahler_checks_flag_nonclosed_form():
    # A hand-built dg (or dS) at point 1 with a d(omega) (or d(rho)) != 0
    # component, symmetric in its metric slots.
    db = np.zeros((2, 4, 4, 4))
    db[1, 2, 0, 1] = db[1, 2, 1, 0] = 0.3  # d_{x2} of the (x1, y1) entry
    for field, check in (("dg", "kahler_form_closed"), ("dricci", "ricci_form_closed")):
        closed = _flat_kahler_checks_with(**{field: db})[check]
        assert closed[0] == 0.0, check
        assert closed[1] > 1e-3, check


def test_kahler_checks_flag_j_not_parallel():
    # Gamma^{x1}_{x1 x1} alone does not commute with J: nabla J != 0 at point 1.
    gamma = np.zeros((2, 4, 4, 4))
    gamma[1, 0, 0, 0] = 0.5
    parallel = _flat_kahler_checks_with(gamma=gamma)["kahler_j_parallel"]
    assert parallel[0] == 0.0
    assert parallel[1] == 1.0


# For each identity check, an entry of a field of the curvature bundle that
# it reads: raised by 1 at point 1 of the product metric, it carries the
# check over its gate there, while point 0 keeps its roundoff.
_BREAKING_ENTRY = {
    "ricci_symmetric": ("ricci", (0, 1)),
    "ricci_j_invariant": ("ricci", (0, 0)),
    "rs_antisym_last_pair": ("r13", (0, 1, 1, 0)),
    "rs_sym_first_pair": ("ricci", (0, 1)),
    "rs_j_pair_invariance": ("r13", (0, 1, 1, 0)),
    "qc_j_pair_invariance": ("ricci", (0, 0)),
    "riemann_antisym_first_pair": ("r04", (0, 1, 2, 3)),
    "riemann_antisym_last_pair": ("r04", (0, 1, 2, 3)),
    "riemann_pair_symmetry": ("r04", (0, 1, 2, 3)),
    "riemann_first_bianchi": ("r04", (0, 1, 2, 3)),
    "kahler_j_invariance": ("r04", (0, 1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CHECKS))
def test_every_identity_check_can_fail(name):
    """Every check can cross its gate on its own: one entry of one bundle
    field is changed, and R.S, Q, Qc and the scales are gathered again."""
    potential = parse("log(1+absq(1)) + 2*log(1+absq(2))", 2)
    points = np.array([[0.1, 0.2, -0.3, 0.4], [0.3, -0.1, 0.2, 0.5]])
    field, entry = _BREAKING_ENTRY[name]
    b = evidence_at(potential, points, 2).bundle
    value = next(getattr(part, field) for part in (b, b.metric)
                 if hasattr(part, field)).copy()
    value[(1, *entry)] += 1.0
    check = identity_checks(evidence_at(potential, points, 2, **{field: value}))[name]
    assert check[0] <= IDENTITY_TOLERANCE < check[1]


@pytest.mark.parametrize("spec", [*zoo().values(), *WITNESSES], ids=lambda spec: spec.name)
def test_facts_that_hold_by_construction(spec):
    """What the identity suite does not check, because its construction
    keeps it: Qc(g,S) = Q + J^T Q J, by a signed gather of the closed-form
    Q, has Q's pair symmetries and J-invariance on its last pair bit for
    bit; the holomorphic-plane identities follow from checked ones."""
    d = sample_evidence(spec, SamplePlan())
    j, sc, qc = d.bundle.metric.J, d.scales, d.qc
    checks = identity_checks(d)
    assert np.array_equal(qc, np.swapaxes(qc, -4, -3))
    assert np.array_equal(qc, -np.swapaxes(qc, -2, -1))
    assert np.array_equal(qc, j_conjugate_last_pair(qc))
    # Qc(x, Jx; ., .) = 0 reads half the first pair's J-defect of Qc, since
    # Qc is (u,v)-symmetric.
    assert np.array_equal(j_rotated_symmetric_einsum(qc, j, sc["Qc"], 4),
                          0.5 * checks["qc_j_pair_invariance"])
    # S(x, Jx) = 0 is bounded by the J-invariance and symmetry of S.
    holomorphic = j_rotated_symmetric_einsum(d.bundle.ricci, j, sc["S"], 2)
    assert np.all(holomorphic <= (checks["ricci_j_invariant"] + checks["ricci_symmetric"]) / 2)
    # Qc = 2Q on holomorphic planes, since Q is (x,y)-antisymmetric.
    q = tachibana_ricci(d.bundle.metric.g, d.bundle.ricci)
    double = _plane_reduce(qc - 2.0 * q, d.dir_rows, d.plane_rows)
    assert np.all(rel_violation_oracle(double, sc["Qc"], 2) <= 1e-15)


# Eguchi-Hanson, the curved Ricci-flat metric whose S is roundoff, and
# exp(300 rsq), whose jet is near the edge of its float range.
EGUCHI_HANSON = ManifoldSpec("eguchi_hanson", 2,
                             "sqrt(rsq^2 + 1) + log(rsq / (1 + sqrt(rsq^2 + 1)))",
                             ((0.3, 1.2),) + ((-1.2, 1.2),) * 3)
STEEP = ManifoldSpec("steep", 2, "exp(300*rsq)", ((-0.76, 0.76),) * 4)
KAHLER_BOUNDS = {"kahler_form_closed": 1e-12, "kahler_j_parallel": 1e-11,
                 "ricci_form_closed": 1e-12}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", [*zoo().values(), *WITNESSES, EGUCHI_HANSON, STEEP],
                         ids=lambda spec: spec.name)
def test_kahler_conditions_hold_by_construction(spec, seed):
    """g, dg and dS are J-pairings of fully symmetric partials, so the
    Kahler form and the Ricci form are closed and J is parallel by
    construction; the identity suite leaves them to this test.  d(omega)
    is over max(|dg|, |g|), nabla J over |Gamma| and d(rho) over
    max(|dS|, m |Gamma| "S"), since |dS| alone is roundoff on
    Eguchi-Hanson."""
    d = sample_evidence(spec, SamplePlan(seed=seed))
    b = d.bundle
    checks = kahler_checks_matmul(b.metric, b.gamma, b.dricci, d.scales["S"])
    assert checks.keys() == KAHLER_BOUNDS.keys()
    for name, bound in KAHLER_BOUNDS.items():
        assert np.max(checks[name]) <= bound, (name, np.max(checks[name]))


def test_one_gate_decides_the_identity_verdict(fixtures, small_plan):
    """IDENTITY_TOLERANCE alone decides identities_passed, and the worst
    identity is the largest value, whatever its check."""
    report = run(fixtures["flat_c2"], small_plan)
    assert IDENTITY_TOLERANCE == 1e-8
    over = np.nextafter(IDENTITY_TOLERANCE, 1.0)
    for check in report.identities:
        for value, passed in ((IDENTITY_TOLERANCE, True), (over, False)):
            doctored = dataclasses.replace(report, identities={**report.identities, check: value})
            assert doctored.identities_passed is passed, check
            assert doctored.worst_identity() == (check, value)
            state = "ok" if passed else "FAILED"
            assert (f"identities [{state}]: worst {check} = 1.00e-08 (gate 1e-08)"
                    in doctored.human_summary())
    doctored = dataclasses.replace(report, identities={
        **report.identities, "ricci_symmetric": 5e-9, "kahler_j_invariance": 9e-9})
    assert doctored.worst_identity() == ("kahler_j_invariance", 9e-9)


def test_algebraic_identities_reach_machine_precision(full_reports):
    for name, report in full_reports.items():
        for check in ALGEBRAIC_IDENTITIES:
            assert report.identities[check] <= 1e-12, (name, check)


def test_flat_identities_exactly_zero(full_reports):
    report = full_reports["flat_c2"]
    for check, value in report.identities.items():
        assert value == 0.0, check


def test_worst_identity_reporting(full_reports):
    report = full_reports["fs_cp2"]
    name, value = report.worst_identity()
    assert report.identities[name] == value
    assert value == max(report.identities.values())


def test_verify_identities_skips_verdict(fixtures, small_plan):
    report = run(fixtures["fs_cp1"], small_plan, with_classification=False)
    assert report.verdict is None
    assert report.identities_passed
    summary = report.human_summary()
    assert "identities [ok]" in summary
    assert "ladder:" not in summary


def test_json_round_trip_and_schema(fixtures, small_plan):
    report = run(fixtures["product_cp1_cp1_unequal"], small_plan)
    blob = report.to_json()
    assert blob.endswith("\n")
    payload = json.loads(blob)
    assert payload["schema"] == "kahlersym-report/6"
    assert payload["spec"]["name"] == "product_cp1_cp1_unequal"
    assert payload["spec"]["n"] == 2
    assert payload["plan"] == dataclasses.asdict(small_plan)
    assert set(payload) == {"schema", "spec", "plan", "points", "identities",
                            "identity_tolerance", "identities_passed", "verdict"}
    assert payload["identities_passed"] is True
    assert payload["verdict"]["classification"] == "ricci_parallel"
    assert payload["verdict"]["lambda"]["mean"] == pytest.approx(3.0, abs=1e-9)
    criteria = payload["verdict"]["criteria"]
    assert set(criteria) == {
        "ricci_flat",
        "einstein",
        "ricci_parallel",
        "ricci_semisymmetric",
        "holo_ricci_pseudosymmetric",
    }
    assert criteria["einstein"]["status"] == "fail"
    assert len(payload["points"]) == small_plan.points
    # no timing key anywhere: byte stability must not depend on the clock
    assert "elapsed" not in blob
    assert "seconds" not in blob


REPORT_SCHEMA_DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                 "docs", "report-schema.md")


def test_report_schema_doc_matches_the_report(fixtures, small_plan):
    """docs/report-schema.md names exactly the checks identity_checks
    returns in its `identities` section, and the schema tag to_json writes."""
    with open(REPORT_SCHEMA_DOC, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## `identities`", 1)[1].split("\n## ", 1)[0]
    checks = identity_checks(sample_evidence(fixtures["fs_cp2"], small_plan))
    assert set(re.findall(r"`([a-z][a-z_]*)`", section)) == set(checks)
    schema = json.loads(run(fixtures["fs_cp2"], small_plan, with_classification=False)
                        .to_json())["schema"]
    tags = re.findall(r"schema tag `([^`]+)`", text) + re.findall(r'always `"([^"]+)"`', text)
    assert tags == [schema, schema]


def test_json_byte_stability(fixtures, small_plan):
    a = run(fixtures["fs_cp2"], small_plan).to_json()
    b = run(fixtures["fs_cp2"], small_plan).to_json()
    assert a == b
    other = run(
        fixtures["fs_cp2"],
        SamplePlan(
            points=small_plan.points,
            directions=small_plan.directions,
            planes=small_plan.planes,
            seed=small_plan.seed + 1,
        ),
    ).to_json()
    assert a != other


def test_human_summary_content(full_reports):
    text = full_reports["fs_cp2"].human_summary()
    assert "manifold fs_cp2" in text
    assert "identities [ok]" in text
    assert "classification: einstein" in text
    assert "expected: einstein" in text
    assert "lambda_hat = +6" in text
    assert "elapsed:" in text
    for rung in (
        "ricci_flat",
        "einstein",
        "ricci_parallel",
        "ricci_semisymmetric",
        "holo_ricci_pseudosymmetric",
    ):
        assert rung in text


def test_human_summary_below_dimension_note(full_reports):
    assert "below the reach" in full_reports["fs_cp1"].human_summary()
    assert "below the reach" not in full_reports["fs_cp2"].human_summary()


def test_report_points_match_plan(full_reports):
    for name, report in full_reports.items():
        assert report.points.shape == (report.plan.points, 2 * report.spec.n)
        assert report.elapsed_seconds >= 0.0


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, float("nan"), float("inf"), -float("inf")]
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS
_STRINGS = st.text(max_size=8) | st.sampled_from(
    ["", ", ", "a, b", "[1, 2]", "\"q\"\n", "\u00e9, \u2603"]
)
# Lists of non-empty scalar rows, as a report's points and domain, which the
# writer encodes in one call.
_ROWS = st.lists(
    st.lists(_SCALARS | st.sampled_from([2**64, -(10**30)]), min_size=1, max_size=5)
    | st.tuples(_FLOATS, _SCALARS), min_size=1, max_size=5)
_JSON_VALUES = st.recursive(
    _SCALARS | _STRINGS | st.lists(_FLOATS, max_size=12) | st.tuples(_FLOATS, _FLOATS) | _ROWS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_STRINGS, _JSON_VALUES, max_size=4))
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_zoo_reports_match_json_dumps(full_reports):
    for name, report in full_reports.items():
        text = report.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


def test_identity_only_json_has_null_verdict(fixtures, small_plan):
    report = run(fixtures["flat_c2"], small_plan, with_classification=False)
    payload = json.loads(report.to_json())
    assert payload["verdict"] is None


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind every kahlersym module attribute bound to ``original``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("kahlersym"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


def test_run_expands_one_metric_jet_per_point(fixtures, small_plan, monkeypatch):
    import kahlersym
    from kahlersym import metrics

    original = metrics.metric_from_potential
    expanded = []  # (points, depth) of every expansion

    def counted(potential, point, n, depth=3):
        expanded.append((len(np.atleast_2d(point)), depth))
        return original(potential, point, n, depth)

    _patch_everywhere(monkeypatch, original, counted)
    assert kahlersym.metrics.metric_from_potential is counted
    run(fixtures["product_cp1_cp1_unequal"], small_plan)
    assert sum(points for points, _ in expanded) == small_plan.points
    assert {depth for _, depth in expanded} == {3}


def test_run_forms_each_shared_intermediate_once(fixtures, small_plan, monkeypatch):
    # One run inverts g once, forms Q(g,S) once and Qc(g,S) from it once,
    # through complex_tachibana_ricci, and takes one max-norm of each
    # (P, m^4) tensor.  The direction rows u(x)u and the plane rows x(x)Jx
    # are built once per (plan, n) in a process: a second run at the plan
    # builds none, a run at another seed both.
    inverted, rows, normed, formed, complexes = [], [], [], [], []
    inv, outer_rows, max_norm = np.linalg.inv, classifier._outer_rows, tensor_algebra.max_norm
    tachibana = symmetry_tensors.tachibana_ricci
    complex_tachibana = symmetry_tensors.complex_tachibana_ricci

    def counted_inv(a):
        inverted.append(a.shape)
        return inv(a)

    def counted_rows(u, v):
        rows.append(u.shape)
        return outer_rows(u, v)

    def counted_norm(t, rank=None):
        if np.ndim(t) == 5:
            normed.append(t)
        return max_norm(t, rank)

    def counted_tachibana(g, s):
        formed.append((g.shape, s.shape))
        return tachibana(g, s)

    def counted_complex(g, s):
        complexes.append((g.shape, s.shape))
        return complex_tachibana(g, s)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    _patch_everywhere(monkeypatch, tachibana, counted_tachibana)
    _patch_everywhere(monkeypatch, complex_tachibana, counted_complex)
    _patch_everywhere(monkeypatch, outer_rows, counted_rows)
    _patch_everywhere(monkeypatch, max_norm, counted_norm)
    classifier._sample_table.cache_clear()
    spec = fixtures["product_cp1_cp1_unequal"]
    run(spec, small_plan)
    p = small_plan.points
    assert inverted == [(p, 4, 4)]
    assert formed == complexes == [((p, 4, 4), (p, 4, 4))]
    built = [(p, small_plan.directions, 4), (p, small_plan.planes, 4)]
    assert sorted(rows) == built
    assert normed and all(t.shape == (p,) + (4,) * 4 for t in normed)
    addresses = [t.__array_interface__["data"][0] for t in normed]
    assert len(set(addresses)) == len(addresses)
    rows.clear()
    run(spec, small_plan)
    assert rows == []
    run(spec, dataclasses.replace(small_plan, seed=small_plan.seed + 1))
    assert sorted(rows) == built
    assert formed == complexes == [((p, 4, 4), (p, 4, 4))] * 3


def test_run_working_set_stays_below_seven_and_a_half_tensors():
    # T is one (P, m^4) float tensor.  numpy registers its buffers with
    # tracemalloc, so the traced peak of a run (set-up caches warmed by a
    # first run) counts every tensor held at once: the bundle's R in two
    # layouts, R.S and Qc and the temporaries of whichever step peaks.
    n = 4
    spec = ManifoldSpec("fs_cp4", n, "log(1+rsq)", ((-0.5, 0.5),) * (2 * n))
    plan = SamplePlan(points=10, directions=4, planes=4, seed=3)
    run(spec, plan)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run(spec, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    tensor = plan.points * (2 * n) ** 4 * 8
    assert peak <= 7.5 * tensor, peak / tensor


def test_stacked_evidence_matches_single_points(fixtures, small_plan):
    spec = fixtures["perturbed_flat"]
    data = sample_evidence(spec, small_plan)
    points = data.bundle.metric.point
    m = 2 * spec.n
    for i, point in enumerate(points):
        b = curvature_bundle(metric_from_potential(spec.potential(), point, spec.n))
        assert np.array_equal(data.bundle.metric.G[i], b.metric.G)
        rs = r_dot_s(b)
        qc = complex_tachibana_ricci(b.metric.g, b.ricci)
        assert np.array_equal(data.rs[i], rs)
        assert np.array_equal(data.qc[i], qc)
        assert np.array_equal(data.bundle.r04[i], b.r04)
        dirs, planes = direction_samples(small_plan, i, m), plane_samples(small_plan, i, m)
        assert np.array_equal(data.dir_rows[i], classifier._outer_rows(dirs, dirs))
        assert np.array_equal(data.plane_rows[i],
                              classifier._outer_rows(planes, planes @ b.metric.J.T))
        single = classifier._scales(b, rs, qc)
        assert data.scales.keys() == single.keys()
        for key, value in single.items():
            assert data.scales[key][i] == value, key
        for tensor, scale, name in ((data.rs, data.scales["R.S"], "rs"),
                                    (data.qc, data.scales["Qc"], "qc")):
            single = check_rs_symmetries(tensor[i], scale[i])
            stacked = check_rs_symmetries(tensor, scale)
            for key, value in single.items():
                assert stacked[key][i] == value, (name, key)
