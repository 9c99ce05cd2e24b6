"""Identity suite and report plumbing."""

import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlersym import classifier, symmetry_tensors, tensor_algebra
from kahlersym.classifier import SamplePlan, direction_samples, plane_samples, sample_evidence
from kahlersym.curvature import curvature_bundle
from kahlersym.expressions import parse
from kahlersym.metrics import metric_from_potential
from kahlersym.runner import (
    IDENTITY_TOLERANCE,
    KAHLER_TOLERANCE,
    _json_text,
    identity_checks,
    identity_suite,
    run,
)
from kahlersym.symmetry_tensors import complex_tachibana_ricci, r_dot_s, tachibana_ricci
from kahlersym.tensor_algebra import check_rs_symmetries
from kahlersym.zoo import ManifoldSpec

from helpers import evidence_at
from test_acceptance import ALGEBRAIC_IDENTITIES

EXPECTED_CHECKS = {
    "ricci_symmetric",
    "ricci_j_invariant",
    "ricci_holomorphic_zero",
    "rs_antisym_last_pair",
    "rs_sym_first_pair",
    "rs_j_pair_invariance",
    "qc_antisym_last_pair",
    "qc_sym_first_pair",
    "qc_j_pair_invariance",
    "tachibana_holomorphic_double",
    "holomorphic_first_slot_zero",
    "riemann_antisym_first_pair",
    "riemann_antisym_last_pair",
    "riemann_pair_symmetry",
    "riemann_first_bianchi",
    "kahler_j_invariance",
    "ricci_form_closed",
    "kahler_form_closed",
    "kahler_j_parallel",
}
KAHLER_CHECKS = {"kahler_form_closed", "kahler_j_parallel"}


def _gate(check):
    return KAHLER_TOLERANCE if check in KAHLER_CHECKS else IDENTITY_TOLERANCE


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
            assert value <= _gate(check), (name, check, value)


def _flat_evidence_with(**changes):
    """Evidence of a flat metric at two points, gathered with ``dg`` of its
    metric jet or ``gamma`` of its connection replaced."""
    return evidence_at(parse("rsq", 2), np.zeros((2, 4)), 2, **changes)


def test_identity_suite_flags_nonclosed_form():
    # A hand-built dg at point 1 with a d(omega) != 0 component, symmetric
    # in its metric slots.
    dg = np.zeros((2, 4, 4, 4))
    dg[1, 2, 0, 1] = dg[1, 2, 1, 0] = 0.3  # d_{x2} g_{x1 y1}
    closed = identity_checks(_flat_evidence_with(dg=dg))["kahler_form_closed"]
    assert closed[0] == 0.0
    assert closed[1] > 1e-3


def test_identity_suite_flags_j_not_parallel():
    # Gamma^{x1}_{x1 x1} alone does not commute with J: nabla J != 0 at point 1.
    gamma = np.zeros((2, 4, 4, 4))
    gamma[1, 0, 0, 0] = 0.5
    parallel = identity_checks(_flat_evidence_with(gamma=gamma))["kahler_j_parallel"]
    assert parallel[0] == 0.0
    assert parallel[1] == 1.0


def test_kahler_checks_gate_at_kahler_tolerance(fixtures, small_plan):
    report = run(fixtures["flat_c2"], small_plan)
    assert KAHLER_TOLERANCE == 1e-9
    between = 5e-9  # over the Kahler gate, under the suite's
    for check in ("ricci_symmetric", *sorted(KAHLER_CHECKS)):
        doctored = dataclasses.replace(report, identities={**report.identities, check: between})
        kahler = check in KAHLER_CHECKS
        assert doctored.identities_passed is not kahler, check
        assert doctored.worst_identity() == (check, between)
        gate = "(gate 1e-09)" if kahler else "(gate 1e-08)"
        assert f"worst {check} = 5.00e-09 {gate}" in doctored.human_summary()
    # Ranked by value over gate: 5e-9 of a Kahler check outranks 9e-9 of
    # another check.
    doctored = dataclasses.replace(report, identities={
        **report.identities, "ricci_symmetric": 9e-9, "kahler_j_parallel": between})
    assert doctored.worst_identity() == ("kahler_j_parallel", between)


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
    assert value / _gate(name) == max(v / _gate(k) for k, v in report.identities.items())


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
    assert payload["schema"] == "kahlersym-report/3"
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
_JSON_VALUES = st.recursive(
    _SCALARS | _STRINGS | st.lists(_FLOATS, max_size=12) | st.tuples(_FLOATS, _FLOATS),
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
    # One run inverts g once, builds the direction rows u(x)u and the plane
    # rows x(x)Jx once each, forms Q(g,S) once (for Q and Qc alike), and
    # takes one max-norm of each (P, m^4) tensor.
    inverted, rows, normed, formed = [], [], [], []
    inv, outer_rows, max_norm = np.linalg.inv, classifier._outer_rows, tensor_algebra.max_norm
    tachibana = symmetry_tensors.tachibana_ricci

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

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    _patch_everywhere(monkeypatch, tachibana, counted_tachibana)
    _patch_everywhere(monkeypatch, outer_rows, counted_rows)
    _patch_everywhere(monkeypatch, max_norm, counted_norm)
    run(fixtures["product_cp1_cp1_unequal"], small_plan)
    p = small_plan.points
    assert inverted == [(p, 4, 4)]
    assert formed == [((p, 4, 4), (p, 4, 4))]
    assert sorted(rows) == [(p, small_plan.directions, 4), (p, small_plan.planes, 4)]
    assert normed and all(t.shape == (p,) + (4,) * 4 for t in normed)
    addresses = [t.__array_interface__["data"][0] for t in normed]
    assert len(set(addresses)) == len(addresses)


def test_run_working_set_stays_below_eight_and_a_half_tensors():
    # T is one (P, m^4) float tensor.  numpy registers its buffers with
    # tracemalloc, so the traced peak of a run (set-up caches warmed by a
    # first run) counts every tensor held at once: the bundle's R in two
    # layouts, R.S, Q and Qc and the temporaries of whichever step peaks.
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
    assert peak <= 8.5 * tensor, peak / tensor


def test_stacked_evidence_matches_single_points(fixtures, small_plan):
    spec = fixtures["perturbed_flat"]
    data = sample_evidence(spec, small_plan)
    points = data.bundle.metric.point
    m = 2 * spec.n
    for i, point in enumerate(points):
        b = curvature_bundle(metric_from_potential(spec.potential(), point, spec.n))
        assert np.array_equal(data.bundle.metric.G[i], b.metric.G)
        rs = r_dot_s(b)
        qc = complex_tachibana_ricci(b.metric.g, b.ricci, b.metric.J)
        assert np.array_equal(data.rs[i], rs)
        assert np.array_equal(data.q[i], tachibana_ricci(b.metric.g, b.ricci))
        assert np.array_equal(data.qc[i], qc)
        assert np.array_equal(data.bundle.r04[i], b.r04)
        dirs, planes = direction_samples(small_plan, i, m), plane_samples(small_plan, i, m)
        assert np.array_equal(data.dir_rows[i], classifier._outer_rows(dirs, dirs))
        assert np.array_equal(data.plane_rows[i],
                              classifier._outer_rows(planes, planes @ b.metric.J.T))
        single = classifier._scales(b, rs, tachibana_ricci(b.metric.g, b.ricci), qc)
        assert data.scales.keys() == single.keys()
        for key, value in single.items():
            assert data.scales[key][i] == value, key
        for tensor, scale, name in ((data.rs, data.scales["R.S"], "rs"),
                                    (data.qc, data.scales["Qc"], "qc")):
            single = check_rs_symmetries(tensor[i], scale[i])
            stacked = check_rs_symmetries(tensor, scale)
            for key, value in single.items():
                assert stacked[key][i] == value, (name, key)
