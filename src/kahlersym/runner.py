"""Orchestration: identity suite, classification, reports.

The identity suite re-derives the algebraic facts the classifier leans on
(symmetries of S, R.S and the Tachibana tensors, the holomorphic doubling,
Riemann symmetries, the closed Ricci form) at every sampled point, as a
permanent cross-check of the tensor bookkeeping.  It also checks the
metric's own Kahler conditions, a closed Kahler form and a parallel J,
under the tighter gate KAHLER_TOLERANCE.  The J checks apply J by
half-swap slices, not by products.

Reports serialize to JSON deterministically: keys sorted, no timings, all
values plain Python floats, so byte-identical runs are reproducible from
the seed alone.  Wall-clock time is carried on the report object for the
human-readable summary but never serialized.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .classifier import (
    LadderVerdict,
    PointData,
    SamplePlan,
    _plane_reduce,
    classify_evidence,
    sample_evidence,
)
from .metrics import rotated_form_differential
from .tensor_algebra import (
    _permute_slots,
    check_rs_symmetries,
    j_invariance_violation,
    j_rotated_symmetric_violation,
    rel_violation,
)
from .zoo import ManifoldSpec

IDENTITY_TOLERANCE = 1e-8
# Gate of the checks of the metric itself, which the pairing of
# metrics.metric_from_potential makes Kahler by construction.
KAHLER_TOLERANCE = 1e-9
_KAHLER_CHECKS = frozenset({"kahler_form_closed", "kahler_j_parallel"})


def _identity_gate(name: str) -> float:
    """The gate of one identity check."""
    return KAHLER_TOLERANCE if name in _KAHLER_CHECKS else IDENTITY_TOLERANCE


def identity_checks(d: PointData) -> dict[str, np.ndarray]:
    """Every identity violation at each point, keyed by frozen check names;
    each divides by a scale of the table ``d.scales``."""
    b, sc = d.bundle, d.scales
    s, j, r04 = b.ricci, b.metric.J, b.r04

    out: dict[str, np.ndarray] = {}
    out["ricci_symmetric"] = rel_violation(s - np.swapaxes(s, -1, -2), sc["S"], 2)
    out["ricci_j_invariant"] = j_invariance_violation(s, sc["S"], 2)
    out["ricci_holomorphic_zero"] = j_rotated_symmetric_violation(s, sc["S"], 2)

    for prefix, tensor, name in (("rs", d.rs, "R.S"), ("qc", d.qc, "Qc")):
        for key, value in check_rs_symmetries(tensor, sc[name], sc[f"|{name}|"]).items():
            out[f"{prefix}_{key}"] = value

    # qc - 2q, formed as (-2q) + qc: the same bits.
    double = d.q * -2.0
    double += d.qc
    out["tachibana_holomorphic_double"] = rel_violation(
        _plane_reduce(double, d.dir_rows, d.plane_rows), sc["Qc"], 2
    )
    del double  # the suite's largest temporary
    # Qc(x, Jx; ., .) = 0 for every x: the (u,v)-symmetrised Qc(., J.) vanishes.
    out["holomorphic_first_slot_zero"] = j_rotated_symmetric_violation(d.qc, sc["Qc"], 4)

    out["riemann_antisym_first_pair"] = rel_violation(
        r04 + np.swapaxes(r04, -4, -3), sc["R"], 4
    )
    out["riemann_antisym_last_pair"] = rel_violation(
        r04 + np.swapaxes(r04, -2, -1), sc["R"], 4
    )
    out["riemann_pair_symmetry"] = rel_violation(
        r04 - _permute_slots(r04, 2, 3, 0, 1), sc["R"], 4
    )
    bianchi = r04 + _permute_slots(r04, 1, 2, 0, 3)
    bianchi += _permute_slots(r04, 2, 0, 1, 3)
    out["riemann_first_bianchi"] = rel_violation(bianchi, sc["R"], 4)
    del bianchi
    out["kahler_j_invariance"] = j_invariance_violation(r04, sc["R"], 4, first_pair=True)

    out["ricci_form_closed"] = rel_violation(
        rotated_form_differential(j, b.dricci), sc["|dS|"], 3
    )

    gamma = b.connection.gamma
    out["kahler_form_closed"] = rel_violation(
        rotated_form_differential(j, b.metric.dg), sc["d omega"], 3
    )
    # (nabla_a J)^c_b = Gamma^c_am J^m_b - J^c_m Gamma^m_ab, J being constant.
    nabla_j = (np.einsum("...cam,mb->...acb", gamma, j)
               - np.einsum("cm,...mab->...acb", j, gamma))
    out["kahler_j_parallel"] = rel_violation(nabla_j, sc["|gamma|"], 3)
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
    identities: dict[str, float]
    verdict: LadderVerdict | None
    elapsed_seconds: float

    @property
    def identities_passed(self) -> bool:
        return all(v <= _identity_gate(name) for name, v in self.identities.items())

    def worst_identity(self) -> tuple[str, float]:
        """The check closest to (or furthest over) its gate, and its value."""
        name = max(self.identities, key=lambda k: self.identities[k] / _identity_gate(k))
        return name, self.identities[name]

    def to_json(self) -> str:
        report = {
            "schema": "kahlersym-report/3",
            "spec": {
                "name": self.spec.name,
                "n": self.spec.n,
                "potential": self.spec.potential_source,
                "domain": [[float(lo), float(hi)] for lo, hi in self.spec.domain],
                "expected_class": self.spec.expected_class,
            },
            "plan": {**asdict(self.plan), "tolerance": float(self.plan.tolerance)},
            "points": self.points.tolist(),
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
            f"{self.plan.planes} planes, seed {self.plan.seed}"
        )
        worst_name, worst_value = self.worst_identity()
        state = "ok" if self.identities_passed else "FAILED"
        lines.append(
            f"identities [{state}]: worst {worst_name} = {worst_value:.2e} "
            f"(gate {_identity_gate(worst_name):.0e})"
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
    """Identity suite and (optionally) full ladder classification.

    Raises NotPositiveDefinite (from metrics) when g is not positive
    definite at a sampled point and LatticeError when rung verdicts
    violate the inclusion chain.
    """
    start = time.perf_counter()
    data = sample_evidence(spec, plan)
    identities = identity_suite(data)
    verdict = classify_evidence(data, plan, spec.n) if with_classification else None
    elapsed = time.perf_counter() - start
    return RunReport(
        spec=spec,
        plan=plan,
        points=data.bundle.metric.point,
        identities=identities,
        verdict=verdict,
        elapsed_seconds=elapsed,
    )
