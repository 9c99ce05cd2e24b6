"""Identity suite and report plumbing."""

import json
import sys

import numpy as np
import pytest

from kahlersym.classifier import SamplePlan, sample_evidence
from kahlersym.curvature import curvature_bundle
from kahlersym.metrics import metric_from_potential
from kahlersym.runner import (
    ALGEBRAIC_IDENTITIES,
    IDENTITY_TOLERANCE,
    identity_checks,
    identity_suite,
    run,
)
from kahlersym.symmetry_tensors import complex_tachibana_ricci, r_dot_s, tachibana_ricci
from kahlersym.tensor_algebra import check_rs_symmetries

EXPECTED_CHECKS = {
    "ricci_symmetric",
    "ricci_j_invariant",
    "ricci_j_skew",
    "ricci_holomorphic_zero",
    "rs_antisym_last_pair",
    "rs_sym_first_pair",
    "rs_j_pair_invariance",
    "rs_j_skew_first_pair",
    "rs_j_skew_last_pair",
    "qc_antisym_last_pair",
    "qc_sym_first_pair",
    "qc_j_pair_invariance",
    "qc_j_skew_first_pair",
    "qc_j_skew_last_pair",
    "tachibana_complex_split",
    "tachibana_holomorphic_double",
    "holomorphic_first_slot_zero",
    "riemann_antisym_first_pair",
    "riemann_antisym_last_pair",
    "riemann_pair_symmetry",
    "riemann_first_bianchi",
    "kahler_j_invariance",
    "ricci_form_closed",
}


def test_identity_check_names_are_frozen(fixtures, small_plan):
    _, _, data = sample_evidence(fixtures["perturbed_flat"], small_plan)
    checks = identity_checks(data)
    assert set(checks) == EXPECTED_CHECKS
    assert ALGEBRAIC_IDENTITIES <= EXPECTED_CHECKS
    for values in checks.values():
        assert np.shape(values) == (small_plan.points,)


def test_identity_suite_takes_worst_case(fixtures, small_plan):
    _, _, data = sample_evidence(fixtures["perturbed_flat"], small_plan)
    worst = identity_suite(data)
    per_point = identity_checks(data)
    for name in EXPECTED_CHECKS:
        assert worst[name] == max(per_point[name])


def test_identities_pass_across_zoo(full_reports):
    for name, report in full_reports.items():
        assert report.identities_passed, (name, report.worst_identity())
        for check, value in report.identities.items():
            assert value <= IDENTITY_TOLERANCE, (name, check, value)


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
    assert payload["schema"] == "kahlersym-report/1"
    assert payload["spec"]["name"] == "product_cp1_cp1_unequal"
    assert payload["spec"]["n"] == 2
    assert payload["plan"]["points"] == small_plan.points
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
    assert "preflight [ok]" in text
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


def test_identity_only_json_has_null_verdict(fixtures, small_plan):
    report = run(fixtures["flat_c2"], small_plan, with_classification=False)
    payload = json.loads(report.to_json())
    assert payload["verdict"] is None


def test_run_expands_one_metric_jet_per_point(fixtures, small_plan, monkeypatch):
    import kahlersym
    from kahlersym import metrics

    original = metrics.metric_from_potential
    expanded = []  # (points, depth) of every expansion

    def counted(potential, point, n, depth=3):
        expanded.append((len(np.atleast_2d(point)), depth))
        return original(potential, point, n, depth)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("kahlersym"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    assert kahlersym.metrics.metric_from_potential is counted
    run(fixtures["product_cp1_cp1_unequal"], small_plan)
    assert sum(points for points, _ in expanded) == small_plan.points
    assert {depth for _, depth in expanded} == {3}


def test_stacked_evidence_matches_single_points(fixtures, small_plan):
    spec = fixtures["perturbed_flat"]
    points, _, data = sample_evidence(spec, small_plan)
    for i, point in enumerate(points):
        b = curvature_bundle(metric_from_potential(spec.potential(), point, spec.n))
        assert np.array_equal(data.rs[i], r_dot_s(b))
        assert np.array_equal(data.q[i], tachibana_ricci(b.metric.g, b.ricci))
        assert np.array_equal(
            data.qc[i], complex_tachibana_ricci(b.metric.g, b.ricci, b.metric.J)
        )
        assert np.array_equal(data.bundle.r04[i], b.r04)
        for tensor, scale, name in ((data.rs, data.scale_rs, "rs"),
                                    (data.qc, data.scale_qc, "qc")):
            single = check_rs_symmetries(tensor[i], b.metric.J, scale[i])
            stacked = check_rs_symmetries(tensor, b.metric.J, scale)
            for key, value in single.items():
                assert stacked[key][i] == value, (name, key)
