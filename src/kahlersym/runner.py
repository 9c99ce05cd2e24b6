"""Orchestration: preflight, identity suite, classification, reports.

The identity suite re-derives the algebraic facts the classifier leans on
(symmetries of S, R.S and the Tachibana tensors, the complex split, the
holomorphic doubling, Riemann symmetries, the closed Ricci form) at every
sampled point, as a permanent cross-check of the tensor bookkeeping.

Reports serialize to JSON deterministically: keys sorted, no timings, all
values plain Python floats, so byte-identical runs are reproducible from
the seed alone.  Wall-clock time is carried on the report object for the
human-readable summary but never serialized.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .classifier import (
    LadderVerdict,
    PointData,
    PreflightReport,
    SamplePlan,
    _plane_reduce,
    classify_evidence,
    sample_evidence,
)
from .symmetry_tensors import holomorphic_first_slot_check
from .tensor_algebra import (
    _j_last_pair,
    check_rs_symmetries,
    floored_scale,
    max_norm,
    rel_violation,
)
from .zoo import ManifoldSpec

IDENTITY_TOLERANCE = 1e-8

# Checks that are pure slot algebra on already-computed tensors; these sit
# at machine precision and get a tighter gate in the acceptance tests.
ALGEBRAIC_IDENTITIES = frozenset(
    {
        "tachibana_complex_split",
        "tachibana_holomorphic_double",
        "holomorphic_first_slot_zero",
        "rs_sym_first_pair",
        "rs_antisym_last_pair",
        "rs_j_pair_invariance",
        "rs_j_skew_first_pair",
        "rs_j_skew_last_pair",
        "qc_sym_first_pair",
        "qc_antisym_last_pair",
        "qc_j_pair_invariance",
        "qc_j_skew_first_pair",
        "qc_j_skew_last_pair",
    }
)


def _permute_slots(t: np.ndarray, *order: int) -> np.ndarray:
    """Reorder the trailing len(order) axes of t, leaving point axes in front."""
    lead = t.ndim - len(order)
    return np.transpose(t, (*range(lead), *(lead + k for k in order)))


def identity_checks(d: PointData) -> dict[str, np.ndarray]:
    """Every identity violation at each point, keyed by frozen check names."""
    b = d.bundle
    g, s, j = b.metric.g, b.ricci, b.metric.J
    m = j.shape[0]
    r04 = b.r04

    scale_s = floored_scale(max_norm(s, 2), m * max_norm(b.r13, 4))
    scale_r = floored_scale(
        max_norm(r04, 4),
        max_norm(g, 2)
        * (max_norm(b.connection.dgamma, 4) + m * max_norm(b.connection.gamma, 3) ** 2),
    )

    out: dict[str, np.ndarray] = {}
    out["ricci_symmetric"] = rel_violation(s - np.swapaxes(s, -1, -2), scale_s, 2)
    out["ricci_j_invariant"] = rel_violation(j.T @ s @ j - s, scale_s, 2)
    out["ricci_j_skew"] = rel_violation(j.T @ s + s @ j, scale_s, 2)
    sj = s @ j
    out["ricci_holomorphic_zero"] = rel_violation(
        0.5 * (sj + np.swapaxes(sj, -1, -2)), scale_s, 2
    )

    for prefix, tensor, scale in (
        ("rs", d.rs, d.scale_rs),
        ("qc", d.qc, d.scale_qc),
    ):
        report = check_rs_symmetries(tensor, j, scale=scale)
        for key, value in report.violations.items():
            out[f"{prefix}_{key}"] = value

    out["tachibana_complex_split"] = rel_violation(
        d.qc - d.q - _j_last_pair(d.q, j), d.scale_qc, 4
    )
    out["tachibana_holomorphic_double"] = rel_violation(
        _plane_reduce(d.qc - 2.0 * d.q, d.dirs, d.planes, j), d.scale_qc, 2
    )
    out["holomorphic_first_slot_zero"] = holomorphic_first_slot_check(
        d.qc, j, scale=d.scale_qc
    )

    out["riemann_antisym_first_pair"] = rel_violation(
        r04 + np.swapaxes(r04, -4, -3), scale_r, 4
    )
    out["riemann_antisym_last_pair"] = rel_violation(
        r04 + np.swapaxes(r04, -2, -1), scale_r, 4
    )
    out["riemann_pair_symmetry"] = rel_violation(
        r04 - _permute_slots(r04, 2, 3, 0, 1), scale_r, 4
    )
    out["riemann_first_bianchi"] = rel_violation(
        r04 + _permute_slots(r04, 1, 2, 0, 3) + _permute_slots(r04, 2, 0, 1, 3),
        scale_r, 4,
    )
    out["kahler_j_invariance"] = rel_violation(
        np.einsum("ma,nb,...mncd->...abcd", j, j, r04) - r04, scale_r, 4
    )

    drho = np.einsum("ma,...cmb->...cab", j, b.dricci)
    closed = drho - _permute_slots(drho, 1, 0, 2) + _permute_slots(drho, 1, 2, 0)
    out["ricci_form_closed"] = rel_violation(
        closed, max_norm(b.dricci, 3), 3
    )
    return out


def identity_suite(data: PointData) -> dict[str, float]:
    """Worst violation of every identity over all sampled points."""
    return {
        name: float(np.max(values, initial=0.0))
        for name, values in identity_checks(data).items()
    }


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced.  ``verdict`` is None for identity-only runs."""

    spec: ManifoldSpec
    plan: SamplePlan
    points: np.ndarray
    preflight: PreflightReport
    identities: dict[str, float]
    identity_tolerance: float
    verdict: LadderVerdict | None
    elapsed_seconds: float

    @property
    def identities_passed(self) -> bool:
        return all(v <= self.identity_tolerance for v in self.identities.values())

    def worst_identity(self) -> tuple[str, float]:
        name = max(self.identities, key=self.identities.get)
        return name, self.identities[name]

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": "kahlersym-report/1",
            "spec": {
                "name": self.spec.name,
                "n": self.spec.n,
                "potential": self.spec.potential_source,
                "domain": [[float(lo), float(hi)] for lo, hi in self.spec.domain],
                "expected_class": self.spec.expected_class,
            },
            "plan": _plan_dict(self.plan),
            "points": [[float(x) for x in p] for p in self.points],
            "preflight": {
                "tolerance": float(self.preflight.tolerance),
                "passed": self.preflight.passed,
                "checks": {
                    name: {
                        "max": float(entry["max"]),
                        "point_index": int(entry["point_index"]),
                    }
                    for name, entry in self.preflight.checks.items()
                },
            },
            "identities": {k: float(v) for k, v in self.identities.items()},
            "identity_tolerance": float(self.identity_tolerance),
            "identities_passed": self.identities_passed,
            "verdict": _verdict_dict(self.verdict) if self.verdict else None,
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def human_summary(self) -> str:
        lines = []
        spec = self.spec
        lines.append(f"manifold {spec.name}  (n={spec.n}, potential: {spec.potential_source})")
        lines.append(
            f"plan: {self.plan.points} points, {self.plan.directions} directions, "
            f"{self.plan.planes} planes, seed {self.plan.seed}, source {self.plan.source}"
        )
        pf = " ".join(
            f"{name}={entry['max']:.2e}"
            for name, entry in sorted(self.preflight.checks.items())
        )
        state = "ok" if self.preflight.passed else "FAILED"
        lines.append(f"preflight [{state}]: {pf}")
        worst_name, worst_value = self.worst_identity()
        state = "ok" if self.identities_passed else "FAILED"
        lines.append(
            f"identities [{state}]: worst {worst_name} = {worst_value:.2e} "
            f"(gate {self.identity_tolerance:.0e})"
        )
        if self.verdict is not None:
            lines.append("ladder:")
            for c in self.verdict.criteria():
                holo = (
                    ""
                    if c.characterization is None
                    else f"  holo {c.characterization:.2e}"
                )
                flag = "  ROUTE MISMATCH" if c.route_mismatch else ""
                lines.append(
                    f"  {c.name:28s} {c.status:12s} direct {c.direct:.2e}{holo}{flag}"
                )
            expected = spec.expected_class or "unspecified"
            lines.append(
                f"classification: {self.verdict.classification}  (expected: {expected})"
            )
            lines.append(
                f"lambda_hat = {self.verdict.lambda_hat:+.9g}  "
                f"(spread {self.verdict.einstein.details['lambda_spread']:.2e})"
            )
            defined = self.verdict.holo_ricci_pseudosymmetric.details[
                "defined_samples"
            ]
            lines.append(
                f"deszcz quotient: defined samples per point {defined}; "
                f"f_S constant: {self.verdict.f_s_constant}"
            )
            if self.verdict.below_theorem_dimension:
                lines.append(
                    "note: n = 1 sits below the reach of the holomorphic-plane "
                    "characterization theorems; treat holo routes as heuristics"
                )
        lines.append(f"elapsed: {self.elapsed_seconds:.2f} s")
        return "\n".join(lines) + "\n"


def _plan_dict(plan: SamplePlan) -> dict[str, Any]:
    return {
        "points": plan.points,
        "directions": plan.directions,
        "planes": plan.planes,
        "seed": plan.seed,
        "source": plan.source,
        "tolerance": float(plan.tolerance),
        "tolerances": (
            {k: float(v) for k, v in sorted(plan.tolerances.items())}
            if plan.tolerances
            else None
        ),
        "dependence_threshold": float(plan.dependence_threshold),
        "preflight_tolerance": float(plan.preflight_tolerance),
        "margin": float(plan.margin),
    }


def _verdict_dict(v: LadderVerdict) -> dict[str, Any]:
    return {
        "classification": v.classification,
        "below_theorem_dimension": v.below_theorem_dimension,
        "criteria": {
            c.name: {
                "status": c.status,
                "direct": float(c.direct),
                "characterization": (
                    None if c.characterization is None else float(c.characterization)
                ),
                "route_mismatch": c.route_mismatch,
                "details": _jsonable(c.details),
            }
            for c in v.criteria()
        },
        "lambda": {
            "mean": float(v.lambda_hat),
            "values": [float(x) for x in v.lambda_values],
        },
        "f_s": {
            "values": [None if f is None else float(f) for f in v.f_s_values],
            "constant": v.f_s_constant,
        },
        "evidence": {k: [float(x) for x in vals] for k, vals in sorted(v.evidence.items())},
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


# -- drivers ---------------------------------------------------------------------


def run(spec: ManifoldSpec, plan: SamplePlan = SamplePlan(),
        with_classification: bool = True) -> RunReport:
    """Preflight, identity suite and (optionally) full ladder classification.

    Raises PreflightError when the Kahler checks fail and LatticeError when
    rung verdicts violate the inclusion chain.
    """
    start = time.perf_counter()
    points, preflight, data = sample_evidence(spec, plan)
    identities = identity_suite(data)
    verdict = classify_evidence(data, plan, spec.n) if with_classification else None
    elapsed = time.perf_counter() - start
    return RunReport(
        spec=spec,
        plan=plan,
        points=np.asarray(points, dtype=float),
        preflight=preflight,
        identities=identities,
        identity_tolerance=IDENTITY_TOLERANCE,
        verdict=verdict,
        elapsed_seconds=elapsed,
    )


def verify_identities(spec: ManifoldSpec, plan: SamplePlan = SamplePlan()) -> RunReport:
    """Identity suite only; the report's verdict is None."""
    return run(spec, plan, with_classification=False)
