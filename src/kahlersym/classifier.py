"""Ladder classification from sampled pointwise curvature evidence.

Each rung of the symmetry ladder (Ricci-flat, Einstein, Ricci-parallel,
Ricci-semisymmetric, holomorphically Ricci-pseudosymmetric) is decided by
two independent routes: the direct tensor definition and the
holomorphic-plane characterization.  A rung passes only when both routes
pass; disagreement is reported as inconclusive, never silently resolved.
The inclusion chain between rungs is enforced after the fact: an upstream
pass combined with a downstream fail raises LatticeError, because it can
only come from a bookkeeping bug.

Relative violations are measured against input-magnitude scales (norms of
the tensors that were combined), not against the quantity under test, so
identically zero signals read as zero instead of amplified roundoff.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .curvature import CurvatureBundle, christoffel, curvature_bundle, stack_bundles
from .expressions import Expr
from .metrics import metric_from_potential, two_form_closedness
from .symmetry_tensors import (
    complex_tachibana_ricci,
    dependence_scale,
    r_dot_s,
    tachibana_ricci,
)
from .tensor_algebra import ABS_FLOOR, floored_scale, hermitian_violation, max_norm
from .zoo import ManifoldSpec

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_POINT_STREAM = 0
_DIRECTION_STREAM = 1
_PLANE_STREAM = 2


class PreflightError(RuntimeError):
    """The sampled metric is not recognisably Kahler; classification aborts."""

    def __init__(self, report: "PreflightReport"):
        self.report = report
        worst = ", ".join(
            f"{name}: {entry['max']:.3e} at point #{entry['point_index']}"
            for name, entry in sorted(report.checks.items())
            if entry["max"] > report.tolerance
        )
        super().__init__(f"not Kahler within {report.tolerance:.1e}: {worst}")


class LatticeError(RuntimeError):
    """A rung passed while a weaker rung failed: internal inconsistency."""


@dataclass(frozen=True)
class SamplePlan:
    """Sampling sizes, seed and tolerances for one classification run.

    Minimums: points, directions and planes each at least 2 (constancy
    checks need two points; route samplers need two vectors).  The seed
    feeds a SeedSequence, so runs are reproducible across platforms.
    """

    points: int = 25
    directions: int = 20
    planes: int = 20
    seed: int = 0
    source: str = "random"
    tolerance: float = 1e-7
    tolerances: Mapping[str, float] | None = None
    dependence_threshold: float = 1e-8
    preflight_tolerance: float = 1e-9
    margin: float = 1e-3

    def __post_init__(self):
        if self.points < 2 or self.directions < 2 or self.planes < 2:
            raise ValueError("plan needs at least 2 points, directions and planes")
        if self.source not in ("random", "grid"):
            raise ValueError(f"unknown point source {self.source!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.tolerance <= 0 or self.dependence_threshold <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.margin < 0.5:
            raise ValueError("margin must sit in [0, 0.5)")

    def tol_for(self, criterion: str) -> float:
        if self.tolerances and criterion in self.tolerances:
            return float(self.tolerances[criterion])
        return self.tolerance


def sample_points(domain, plan: SamplePlan) -> np.ndarray:
    """Points inside the box, kept a relative margin away from its faces."""
    lo = np.array([interval[0] for interval in domain], dtype=float)
    hi = np.array([interval[1] for interval in domain], dtype=float)
    width = hi - lo
    lo = lo + plan.margin * width
    hi = hi - plan.margin * width
    m = len(domain)
    if plan.source == "random":
        rng = np.random.default_rng(np.random.SeedSequence([plan.seed, _POINT_STREAM]))
        return lo + rng.random((plan.points, m)) * (hi - lo)
    per_axis = math.ceil(plan.points ** (1.0 / m))
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(m)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return mesh[: plan.points]


def _unit_rows(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    rows = rng.standard_normal((count, m))
    norms = np.linalg.norm(rows, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        rows[bad] = rng.standard_normal((int(bad.sum()), m))
        norms = np.linalg.norm(rows, axis=1)
        bad = norms < 1e-12
    return rows / norms[:, None]


def direction_samples(plan: SamplePlan, point_index: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence([plan.seed, _DIRECTION_STREAM, point_index])
    )
    return _unit_rows(rng, plan.directions, m)


def plane_samples(plan: SamplePlan, point_index: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence([plan.seed, _PLANE_STREAM, point_index])
    )
    return _unit_rows(rng, plan.planes, m)


# -- preflight -------------------------------------------------------------------


@dataclass(frozen=True)
class PreflightReport:
    """Worst-case Kahler bookkeeping violations over the plan's points."""

    checks: dict[str, dict[str, Any]]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(entry["max"] <= self.tolerance for entry in self.checks.values())


def preflight_from_metrics(metrics, tolerance: float = 1e-9) -> PreflightReport:
    """Kahler checks on prepared depth>=1 metric jets (tests inject fakes here)."""
    checks = {
        name: {"max": 0.0, "point_index": 0}
        for name in ("hermitian", "closed_form", "parallel_j")
    }

    def record(name: str, value: float, index: int) -> None:
        if value > checks[name]["max"]:
            checks[name] = {"max": float(value), "point_index": index}

    for index, m in enumerate(metrics):
        record("hermitian", hermitian_violation(m.g, m.J), index)
        record("closed_form", two_form_closedness(m), index)
        gamma = christoffel(m).gamma
        nj = np.einsum("cam,mb->acb", gamma, m.J) - np.einsum(
            "cm,mab->acb", m.J, gamma
        )
        record(
            "parallel_j",
            max_norm(nj) / max(max_norm(gamma), ABS_FLOOR),
            index,
        )
    return PreflightReport(checks, tolerance)


def preflight_kahler(
    potential: Expr, n: int, points, tolerance: float = 1e-9
) -> PreflightReport:
    """Check g Hermitian, d(omega) = 0 and nabla J = 0 at every point."""
    metrics = [metric_from_potential(potential, p, n, depth=1) for p in points]
    return preflight_from_metrics(metrics, tolerance)


# -- evidence at the sampled points ----------------------------------------------


@dataclass(frozen=True)
class PointData:
    """Curvature bundle, derived tensors and samples at every sampled point.

    Every field carries a leading point axis: ``bundle`` comes from
    :func:`stack_bundles`, rs/q/qc are (P, m, m, m, m), dirs and planes
    (P, count, m), and the scales (P,).
    """

    bundle: CurvatureBundle
    rs: np.ndarray
    q: np.ndarray
    qc: np.ndarray
    dirs: np.ndarray
    planes: np.ndarray
    scale_rs: np.ndarray
    scale_qc: np.ndarray
    dep_scale: np.ndarray


def gather_evidence(bundle: CurvatureBundle, plan: SamplePlan) -> PointData:
    """Symmetry tensors and samples at the points of a stacked bundle."""
    g, s, j = bundle.metric.g, bundle.ricci, bundle.metric.J
    m = j.shape[0]
    q = tachibana_ricci(g, s)
    qc = complex_tachibana_ricci(g, s, j)
    indices = range(len(s))
    return PointData(
        bundle=bundle,
        rs=r_dot_s(bundle),
        q=q,
        qc=qc,
        dirs=np.stack([direction_samples(plan, i, m) for i in indices]),
        planes=np.stack([plane_samples(plan, i, m) for i in indices]),
        scale_rs=floored_scale(2.0 * m * max_norm(bundle.r13, 4) * max_norm(s, 2)),
        scale_qc=dependence_scale(qc, g, s),
        dep_scale=dependence_scale(q, g, s),
    )


def sample_evidence(spec: ManifoldSpec, plan: SamplePlan):
    """Sample the plan's points, expand one depth-3 metric jet at each,
    preflight their g and dg, and gather the evidence.

    Returns (points, preflight report, evidence).  Raises PreflightError
    when the metric fails the Kahler checks; the curvature bundles are
    built before that verdict, as each jet is expanded.
    """
    potential = spec.potential()
    points = sample_points(spec.domain, plan)
    first_order = []  # depth-1 views of the jets: the preflight reads g and dg

    def bundles():
        # One point at a time, so the full jets are never all alive at once.
        for point in points:
            m = metric_from_potential(potential, point, spec.n)
            first_order.append(replace(m, ddg=None, dddg=None))
            yield curvature_bundle(m)

    bundle = stack_bundles(bundles())
    report = preflight_from_metrics(first_order, plan.preflight_tolerance)
    if not report.passed:
        raise PreflightError(report)
    return points, report, gather_evidence(bundle, plan)


def _plane_reduce(t: np.ndarray, u_rows: np.ndarray, x_rows: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """Values t(u,u;x,Jx) for all sampled directions u and plane seeds x."""
    jx_rows = x_rows @ j.T
    diag = np.einsum("...ijab,...pi,...pj->...pab", t, u_rows, u_rows)
    return np.einsum("...pab,...qa,...qb->...pq", diag, x_rows, jx_rows)


# -- criterion verdicts ----------------------------------------------------------


@dataclass(frozen=True)
class CriterionVerdict:
    """Tri-state outcome of one rung, with both route violations."""

    name: str
    status: str
    direct: float
    characterization: float | None
    route_mismatch: bool
    details: dict[str, Any]


def _combine(name: str, direct: float, characterization: float | None,
             tol: float, details: dict[str, Any]) -> CriterionVerdict:
    direct_ok = direct <= tol
    if characterization is None:
        status = PASS if direct_ok else FAIL
        return CriterionVerdict(name, status, direct, None, False, details)
    char_ok = characterization <= tol
    if direct_ok == char_ok:
        status = PASS if direct_ok else FAIL
        return CriterionVerdict(name, status, direct, characterization, False, details)
    return CriterionVerdict(name, INCONCLUSIVE, direct, characterization, True, details)


def _einstein(data, plan: SamplePlan):
    tol = plan.tol_for("einstein")
    b = data.bundle
    g, s = b.metric.g, b.ricci
    m = g.shape[-1]
    lams = b.scal / m
    scale = floored_scale(max_norm(s, 2), np.abs(lams) * max_norm(g, 2))
    direct_pp = max_norm(s - lams[:, None, None] * g, 2) / scale
    values = _plane_reduce(data.qc, data.dirs, data.planes, b.metric.J)
    char_pp = max_norm(values, 2) / data.scale_qc
    spread = (lams.max() - lams.min()) / max(float(np.max(np.abs(lams))), ABS_FLOOR)
    details = {
        "lambda_mean": float(np.mean(lams)),
        "lambda_spread": float(spread),
    }
    verdict = _combine(
        "einstein",
        max(float(direct_pp.max()), float(spread)),
        float(char_pp.max()),
        tol,
        details,
    )
    return verdict, lams, direct_pp, char_pp


def _ricci_flat(data, plan: SamplePlan):
    tol = plan.tol_for("ricci_flat")
    b = data.bundle
    g, s = b.metric.g, b.ricci
    m = g.shape[-1]
    scale = floored_scale(m * max_norm(b.r13, 4) * max_norm(g, 2), max_norm(s, 2))
    per_point = max_norm(s, 2) / scale
    verdict = _combine("ricci_flat", float(per_point.max()), None, tol, {})
    return verdict, per_point


def _ricci_parallel(data, plan: SamplePlan):
    tol = plan.tol_for("ricci_parallel")
    b = data.bundle
    m = b.metric.g.shape[-1]
    scale = floored_scale(
        max_norm(b.dricci, 3),
        m * max_norm(b.connection.gamma, 3) * max_norm(b.ricci, 2),
    )
    direct_pp = max_norm(b.nabla_ricci, 3) / scale
    xj = data.planes + data.planes @ b.metric.J.T
    values = np.einsum("...cab,...qc->...qab", b.nabla_ricci, xj)
    values = np.einsum("...qab,...pa,...pb->...qp", values, data.dirs, data.dirs)
    char_pp = max_norm(values, 2) / scale
    verdict = _combine(
        "ricci_parallel", float(direct_pp.max()), float(char_pp.max()), tol, {}
    )
    return verdict, direct_pp, char_pp


def _ricci_semisymmetric(data, plan: SamplePlan):
    tol = plan.tol_for("ricci_semisymmetric")
    direct_pp = max_norm(data.rs, 4) / data.scale_rs
    values = _plane_reduce(data.rs, data.dirs, data.planes, data.bundle.metric.J)
    char_pp = max_norm(values, 2) / data.scale_rs
    verdict = _combine(
        "ricci_semisymmetric", float(direct_pp.max()), float(char_pp.max()), tol, {}
    )
    return verdict, direct_pp, char_pp


def _holo_pseudosymmetric(data, plan: SamplePlan):
    """Constancy of the Deszcz quotient over holomorphic planes, then the
    full tensor residual R.S - f_S Qc with the fitted f_S = L/2.

    Sample i pairs direction i mod (directions) with plane seed i."""
    tol = plan.tol_for("holo_ricci_pseudosymmetric")
    attempted = plan.planes
    v = data.dirs[:, np.arange(attempted) % plan.directions]
    x = data.planes
    jx = x @ data.bundle.metric.J.T
    nums = np.einsum("...ijab,...ki,...kj,...ka,...kb->...k", data.rs, v, v, x, jx)
    dens = np.einsum("...ijab,...ki,...kj,...ka,...kb->...k", data.q, v, v, x, jx)
    bound = (plan.dependence_threshold * data.dep_scale)[:, None]
    defined = np.abs(dens) > bound
    near = (np.abs(dens) > 0.1 * bound) & (np.abs(dens) <= 10.0 * bound)
    defined_counts = defined.sum(axis=1).tolist()
    fits = defined.any(axis=1)

    # Points without a defined sample fall back to the size of R.S itself.
    vacuous = max_norm(data.rs, 4) / data.scale_rs
    spread_pp = vacuous.copy()
    f_hats: list[float | None] = [None] * len(vacuous)
    fitted = np.zeros(len(vacuous))
    for p in np.flatnonzero(fits):
        num_d, den_d = nums[p, defined[p]], dens[p, defined[p]]
        l_bar = float(np.dot(num_d, den_d) / np.dot(den_d, den_d))
        spread_pp[p] = float(np.max(np.abs(num_d - l_bar * den_d))) / data.scale_rs[p]
        f_hats[p] = fitted[p] = l_bar / 2.0
    residual = max_norm(data.rs - fitted[:, None, None, None, None] * data.qc, 4)
    residual_pp = np.where(fits, residual / data.scale_rs, vacuous)
    details = {
        "defined_samples": defined_counts,
        "attempted_samples": [attempted] * len(vacuous),
        "near_threshold_samples": near.sum(axis=1).tolist(),
    }
    if sum(defined_counts) == 0 and spread_pp.max() > tol:
        verdict = CriterionVerdict(
            "holo_ricci_pseudosymmetric", INCONCLUSIVE, float(spread_pp.max()),
            float(residual_pp.max()), False,
            {**details, "reason": "no curvature-dependent samples but R.S != 0"},
        )
    else:
        verdict = _combine(
            "holo_ricci_pseudosymmetric", float(spread_pp.max()),
            float(residual_pp.max()), tol, details,
        )
    return verdict, spread_pp, residual_pp, f_hats


def _f_s_constancy(f_hats, data, tol: float) -> bool | None:
    values = [f for f in f_hats if f is not None]
    if not values:
        return None
    curv = float(np.max(max_norm(data.bundle.r13, 4)))
    scale = max(max(abs(f) for f in values), curv, ABS_FLOOR)
    return (max(values) - min(values)) / scale <= tol


# -- the ladder ------------------------------------------------------------------


@dataclass(frozen=True)
class LadderVerdict:
    """Full placement of one manifold on the symmetry ladder."""

    ricci_flat: CriterionVerdict
    einstein: CriterionVerdict
    ricci_parallel: CriterionVerdict
    ricci_semisymmetric: CriterionVerdict
    holo_ricci_pseudosymmetric: CriterionVerdict
    classification: str
    lambda_hat: float
    lambda_values: tuple[float, ...]
    f_s_values: tuple[float | None, ...]
    f_s_constant: bool | None
    below_theorem_dimension: bool
    evidence: dict[str, tuple[float, ...]]

    def criteria(self):
        return (
            self.ricci_flat,
            self.einstein,
            self.ricci_parallel,
            self.ricci_semisymmetric,
            self.holo_ricci_pseudosymmetric,
        )

    @property
    def any_route_mismatch(self) -> bool:
        return any(c.route_mismatch for c in self.criteria())


def _check_lattice(criteria) -> None:
    names = [c.name for c in criteria]
    for i, upper in enumerate(criteria):
        if upper.status != PASS:
            continue
        for lower in criteria[i + 1:]:
            if lower.status == FAIL:
                raise LatticeError(
                    f"{upper.name} passed but implied {lower.name} failed "
                    f"(ladder {' -> '.join(names)})"
                )


def classify_evidence(data, plan: SamplePlan, n: int) -> LadderVerdict:
    """Decide every rung from prepared point evidence and enforce the chain."""
    einstein, lams, ein_direct, ein_char = _einstein(data, plan)
    flat, flat_pp = _ricci_flat(data, plan)
    parallel, par_direct, par_char = _ricci_parallel(data, plan)
    semi, semi_direct, semi_char = _ricci_semisymmetric(data, plan)
    hrps, hrps_spread, hrps_residual, f_hats = _holo_pseudosymmetric(data, plan)

    criteria = (flat, einstein, parallel, semi, hrps)
    _check_lattice(criteria)
    classification = "none"
    for c in criteria:
        if c.status == PASS:
            classification = c.name
            break

    evidence = {
        "ricci_flat.direct": flat_pp,
        "einstein.direct": ein_direct,
        "einstein.holo": ein_char,
        "ricci_parallel.direct": par_direct,
        "ricci_parallel.holo": par_char,
        "ricci_semisymmetric.direct": semi_direct,
        "ricci_semisymmetric.holo": semi_char,
        "holo_ricci_pseudosymmetric.spread": hrps_spread,
        "holo_ricci_pseudosymmetric.residual": hrps_residual,
    }
    return LadderVerdict(
        ricci_flat=flat,
        einstein=einstein,
        ricci_parallel=parallel,
        ricci_semisymmetric=semi,
        holo_ricci_pseudosymmetric=hrps,
        classification=classification,
        lambda_hat=float(np.mean(lams)),
        lambda_values=tuple(lams.tolist()),
        f_s_values=tuple(f_hats),
        f_s_constant=_f_s_constancy(
            f_hats, data, plan.tol_for("holo_ricci_pseudosymmetric")
        ),
        below_theorem_dimension=n < 2,
        evidence={key: tuple(values.tolist()) for key, values in evidence.items()},
    )


def classify(spec: ManifoldSpec, plan: SamplePlan = SamplePlan()) -> LadderVerdict:
    """Sample, preflight and place ``spec`` on the ladder.

    Raises PreflightError when the metric fails the Kahler checks and
    LatticeError when the verdicts violate the inclusion chain.
    """
    _, _, data = sample_evidence(spec, plan)
    return classify_evidence(data, plan, spec.n)
