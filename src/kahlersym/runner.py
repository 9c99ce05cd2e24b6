"""Orchestration: identity suite, classification, reports.

The identity suite re-derives the algebraic facts the classifier leans on
(symmetries of S and R.S, the J-invariance of Qc's first slot pair,
Riemann symmetries) at every sampled point, as a permanent cross-check
of the tensor bookkeeping, under one gate, IDENTITY_TOLERANCE.  A fact
that holds by construction cannot fail here and is left to the tests:
Qc's pair symmetries, its last pair's J-invariance and the vanishing of
Qc - 2Q, Qc and S on holomorphic planes, and the Kahler conditions
themselves (closed Kahler and Ricci forms, a parallel J), since g, dg
and dS are J-pairings of fully symmetric partials.  The J checks apply
J by half-swap slices, not by products.

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

from .classifier import LadderVerdict, PointData, SamplePlan, classify_evidence, sample_evidence
from .tensor_algebra import (
    _permute_slots,
    check_rs_symmetries,
    j_invariance_violation,
    rel_violation,
)
from .zoo import ManifoldSpec

IDENTITY_TOLERANCE = 1e-8


def identity_checks(d: PointData) -> dict[str, np.ndarray]:
    """Every identity violation at each point, keyed by frozen check names;
    each divides by a scale of the table ``d.scales``."""
    b, sc = d.bundle, d.scales
    s, r04 = b.ricci, b.r04

    out: dict[str, np.ndarray] = {}
    out["ricci_symmetric"] = rel_violation(s - np.swapaxes(s, -1, -2), sc["S"], 2)
    out["ricci_j_invariant"] = j_invariance_violation(s, sc["S"], 2)

    for key, value in check_rs_symmetries(d.rs, sc["R.S"]).items():
        out[f"rs_{key}"] = value
    # Qc = Q + J^T Q J is formed by a signed gather, which keeps Q's exact
    # (u,v) symmetry and (x,y) antisymmetry and, applied twice, is the
    # identity: of Qc's symmetries only its first pair's J-invariance can fail.
    out["qc_j_pair_invariance"] = j_invariance_violation(d.qc, sc["Qc"], 4, first_pair=True)

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
        return all(v <= IDENTITY_TOLERANCE for v in self.identities.values())

    def worst_identity(self) -> tuple[str, float]:
        """The largest identity violation and the name of its check."""
        name = max(self.identities, key=self.identities.__getitem__)
        return name, self.identities[name]

    def to_json(self) -> str:
        report = {
            "schema": "kahlersym-report/6",
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
                f"f_S fit: defined samples per point {defined}; "
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
    re-indented.  So is a list of such lists, none empty, in one call split
    at "], [" (the rows of ``points``); everything else recurses."""
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if _SCALAR_TYPES.issuperset(map(type, value)):
            items = _SCALARS.encode(value)[1:-1].split(", ") if value else []
        elif all(type(x) in (list, tuple) and x and _SCALAR_TYPES.issuperset(map(type, x))
                 for x in value):
            sep = ",\n" + inner + "  "
            items = [f"[{sep[1:]}{row.replace(', ', sep)}\n{inner}]"
                     for row in _SCALARS.encode(value)[2:-2].split("], [")]
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
    verdict = classify_evidence(data, plan) if with_classification else None
    elapsed = time.perf_counter() - start
    return RunReport(
        spec=spec,
        plan=plan,
        points=data.bundle.metric.point,
        identities=identities,
        verdict=verdict,
        elapsed_seconds=elapsed,
    )
