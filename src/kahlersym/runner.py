"""Orchestration: preflight, identity suite, classification, reports.

The identity suite re-derives the algebraic facts the classifier leans on
(symmetries of S, R.S and the Tachibana tensors, the complex split, the
holomorphic doubling, Riemann symmetries, the closed Ricci form) at every
sampled point, as a permanent cross-check of the tensor bookkeeping.  The
J-invariance, J-skew, complex-split and holomorphic checks apply J by
half-swap slices, not by products; the J-skew violation of a slot pair is
read off its J-invariance violation, the same numbers bit for bit, and
reported under both keys.

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
    DEPENDENCE_THRESHOLD,
    MARGIN,
    PREFLIGHT_TOLERANCE,
    LadderVerdict,
    PointData,
    PreflightReport,
    SamplePlan,
    _plane_reduce,
    classify_evidence,
    sample_evidence,
)
from .metrics import rotated_form_differential
from .symmetry_tensors import holomorphic_first_slot_check
from .tensor_algebra import (
    _permute_slots,
    check_rs_symmetries,
    floored_scale,
    j_conjugate_last_pair,
    j_invariance_violation,
    j_rotated_symmetric_violation,
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


def identity_checks(d: PointData) -> dict[str, np.ndarray]:
    """Every identity violation at each point, keyed by frozen check names."""
    b = d.bundle
    g, s, j = b.metric.g, b.ricci, b.metric.J
    m = j.shape[0]
    r04 = b.r04

    scale_r = floored_scale(
        max_norm(r04, 4),
        max_norm(g, 2)
        * (max_norm(b.connection.dgamma, 4) + m * max_norm(b.connection.gamma, 3) ** 2),
    )

    out: dict[str, np.ndarray] = {}
    out["ricci_symmetric"] = rel_violation(s - np.swapaxes(s, -1, -2), d.scale_s, 2)
    out["ricci_j_invariant"] = j_invariance_violation(s, d.scale_s, 2)
    out["ricci_j_skew"] = out["ricci_j_invariant"]
    out["ricci_holomorphic_zero"] = j_rotated_symmetric_violation(s, d.scale_s, 2)

    for prefix, tensor, scale, norm in (
        ("rs", d.rs, d.scale_rs, d.norm_rs),
        ("qc", d.qc, d.scale_qc, d.norm_qc),
    ):
        for key, value in check_rs_symmetries(tensor, scale, norm).items():
            out[f"{prefix}_{key}"] = value

    split = d.qc - d.q
    split -= j_conjugate_last_pair(d.q)
    out["tachibana_complex_split"] = rel_violation(split, d.scale_qc, 4)
    # The split's buffer takes qc - 2q, formed as (-2q) + qc: the same bits.
    double = np.multiply(d.q, -2.0, out=split)
    double += d.qc
    out["tachibana_holomorphic_double"] = rel_violation(
        _plane_reduce(double, d.dir_rows, d.plane_rows), d.scale_qc, 2
    )
    del split, double  # the suite's largest temporaries
    out["holomorphic_first_slot_zero"] = holomorphic_first_slot_check(
        d.qc, d.scale_qc, d.norm_qc
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
    bianchi = r04 + _permute_slots(r04, 1, 2, 0, 3)
    bianchi += _permute_slots(r04, 2, 0, 1, 3)
    out["riemann_first_bianchi"] = rel_violation(bianchi, scale_r, 4)
    out["kahler_j_invariance"] = j_invariance_violation(r04, scale_r, 4, first_pair=True)

    out["ricci_form_closed"] = rel_violation(
        rotated_form_differential(j, b.dricci), max_norm(b.dricci, 3), 3
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
    verdict: LadderVerdict | None
    elapsed_seconds: float

    @property
    def identities_passed(self) -> bool:
        return all(v <= IDENTITY_TOLERANCE for v in self.identities.values())

    def worst_identity(self) -> tuple[str, float]:
        name = max(self.identities, key=self.identities.get)
        return name, self.identities[name]

    def to_json(self) -> str:
        report = {
            "schema": "kahlersym-report/1",
            "spec": {
                "name": self.spec.name,
                "n": self.spec.n,
                "potential": self.spec.potential_source,
                "domain": [[float(lo), float(hi)] for lo, hi in self.spec.domain],
                "expected_class": self.spec.expected_class,
            },
            "plan": _plan_dict(self.plan),
            "points": self.points.tolist(),
            "preflight": {
                "tolerance": PREFLIGHT_TOLERANCE,
                "passed": self.preflight.passed,
                "checks": self.preflight.checks,
            },
            "identities": self.identities,
            "identity_tolerance": IDENTITY_TOLERANCE,
            "identities_passed": self.identities_passed,
            "verdict": _verdict_dict(self.verdict) if self.verdict else None,
        }
        return _json_text(report) + "\n"

    def human_summary(self) -> str:
        lines = []
        spec = self.spec
        lines.append(f"manifold {spec.name}  (n={spec.n}, potential: {spec.potential_source})")
        lines.append(
            f"plan: {self.plan.points} points, {self.plan.directions} directions, "
            f"{self.plan.planes} planes, seed {self.plan.seed}, source random"
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
            f"(gate {IDENTITY_TOLERANCE:.0e})"
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


_SCALARS = json.JSONEncoder()
_SCALAR_TYPES = frozenset({float, int, bool, type(None)})


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for dicts
    with str keys, lists, tuples and scalars.

    json.dumps with an indent runs its pure-Python encoder.  A list of
    numbers, bools and None (no str, so no ", " inside an item) is
    encoded by the C encoder instead, and its items are split apart and
    re-indented; everything else recurses."""
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if _SCALAR_TYPES.issuperset(map(type, value)):
            items = _SCALARS.encode(value)[1:-1].split(", ") if value else []
        else:
            items = [_json_text(x, inner) for x in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _plan_dict(plan: SamplePlan) -> dict[str, Any]:
    """The plan as kahlersym-report/1 records it: the five plan fields, plus
    the fixed point source, rung tolerance map and classifier constants."""
    return {
        "points": plan.points,
        "directions": plan.directions,
        "planes": plan.planes,
        "seed": plan.seed,
        "source": "random",
        "tolerance": float(plan.tolerance),
        "tolerances": None,
        "dependence_threshold": DEPENDENCE_THRESHOLD,
        "preflight_tolerance": PREFLIGHT_TOLERANCE,
        "margin": MARGIN,
    }


def _verdict_dict(v: LadderVerdict) -> dict[str, Any]:
    return {
        "classification": v.classification,
        "below_theorem_dimension": v.below_theorem_dimension,
        "criteria": {
            c.name: {
                "status": c.status,
                "direct": c.direct,
                "characterization": c.characterization,
                "route_mismatch": c.route_mismatch,
                "details": c.details,
            }
            for c in v.criteria()
        },
        "lambda": {
            "mean": v.lambda_hat,
            "values": v.lambda_values,
        },
        "f_s": {
            "values": v.f_s_values,
            "constant": v.f_s_constant,
        },
        "evidence": v.evidence,
    }


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
        points=points,
        preflight=preflight,
        identities=identities,
        verdict=verdict,
        elapsed_seconds=elapsed,
    )
