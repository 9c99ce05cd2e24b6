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
identically zero signals read as zero instead of amplified roundoff.  The
rungs and the identity suite read every scale from one table, formed once
per evidence by ``_scales``.

The rungs take the metric to be Kahler: metrics.metric_from_potential
builds it so and refuses a g that is not positive definite, and the
identity suite (runner) checks its Kahler form and J at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .curvature import CurvatureBundle, curvature_bundle
from .metrics import metric_from_potential
from .symmetry_tensors import _complex_from_real, r_dot_s, tachibana_ricci
from .tensor_algebra import floored_scale, max_norm, rel_violation
from .zoo import ManifoldSpec

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_POINT_STREAM = 0
_DIRECTION_STREAM = 1
_PLANE_STREAM = 2

# Sample points keep this fraction of each side away from the domain's faces.
MARGIN = 1e-3
# A Deszcz sample is defined where |Q(g,S)(v,v;x,Jx)| exceeds this fraction
# of the scale "Q".
DEPENDENCE_THRESHOLD = 1e-8


class LatticeError(RuntimeError):
    """A rung passed while a weaker rung failed: internal inconsistency."""


@dataclass(frozen=True)
class SamplePlan:
    """Sampling sizes, seed and the rung tolerance for one classification run.

    Minimums: points, directions and planes each at least 2 (constancy
    checks need two points; route samplers need two vectors).  The seed
    feeds a SeedSequence, so runs are reproducible across platforms.
    """

    points: int = 25
    directions: int = 20
    planes: int = 20
    seed: int = 0
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.points < 2 or self.directions < 2 or self.planes < 2:
            raise ValueError("plan needs at least 2 points, directions and planes")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


def sample_points(domain, plan: SamplePlan) -> np.ndarray:
    """Points inside the box, kept a relative margin away from its faces."""
    lo = np.array([interval[0] for interval in domain], dtype=float)
    hi = np.array([interval[1] for interval in domain], dtype=float)
    width = hi - lo
    lo = lo + MARGIN * width
    hi = hi - MARGIN * width
    rng = np.random.default_rng(np.random.SeedSequence([plan.seed, _POINT_STREAM]))
    return lo + rng.random((plan.points, len(domain))) * (hi - lo)


def _unit_rows(plan: SamplePlan, stream: int, count: int, m: int) -> np.ndarray:
    """``count`` random unit vectors of length m at each of the plan's points,
    (points, count, m), from one draw of the stream seeded by the plan's seed.

    Point i takes the stream's values [i*count*m, (i+1)*count*m), so its
    rows do not depend on the number of points (unless a row must be
    redrawn, which has probability zero).
    """
    rng = np.random.default_rng(np.random.SeedSequence([plan.seed, stream]))
    rows = rng.standard_normal((plan.points, count, m))
    norms = np.linalg.norm(rows, axis=-1)
    bad = norms < 1e-12
    while np.any(bad):
        rows[bad] = rng.standard_normal((int(bad.sum()), m))
        norms = np.linalg.norm(rows, axis=-1)
        bad = norms < 1e-12
    return rows / norms[..., None]


def direction_samples(plan: SamplePlan, point_index: int, m: int) -> np.ndarray:
    return _unit_rows(plan, _DIRECTION_STREAM, plan.directions, m)[point_index]


def plane_samples(plan: SamplePlan, point_index: int, m: int) -> np.ndarray:
    return _unit_rows(plan, _PLANE_STREAM, plan.planes, m)[point_index]


# -- evidence at the sampled points ----------------------------------------------


@dataclass(frozen=True)
class PointData:
    """Curvature bundle, derived tensors and samples at every sampled point.

    Every field carries a leading point axis: ``bundle`` holds the
    curvature of all points, rs/q/qc are (P, m, m, m, m), the plane seeds
    ``planes`` (P, count, m).  The directions enter only as the rows
    u (x) u of ``dir_rows``, and the plane seeds also as the rows x (x) Jx
    of ``plane_rows``, both flattened to (P, count, m*m) and built once
    here for every sample contraction.  ``scales`` is the scale table of
    ``_scales``, one (P,) array per name.
    """

    bundle: CurvatureBundle
    rs: np.ndarray
    q: np.ndarray
    qc: np.ndarray
    planes: np.ndarray
    dir_rows: np.ndarray
    plane_rows: np.ndarray
    scales: dict[str, np.ndarray]


def _scales(b: CurvatureBundle, rs, q, qc) -> dict[str, np.ndarray]:
    """The scale table: the max-norm "|T|" of each tensor T a rung or an
    identity reads, each taken once, and every scale they divide by, formed
    from those norms and named after what it judges (docs/conventions.md,
    "Scales").  One value per point for stacked tensors.

    Scales of curvature tensors of type (1,3) do not change when the
    potential is multiplied by a constant: "S" = max(|S|, m |R|) does not,
    and f_S scales as 1/c under K -> cK, as "f_S" = |R| / |g| does.
    """
    m = b.metric.g.shape[-1]
    sc = {f"|{name}|": max_norm(t, rank) for name, t, rank in (
        ("g", b.metric.g, 2), ("dg", b.metric.dg, 3), ("gamma", b.connection.gamma, 3),
        ("S", b.ricci, 2), ("dS", b.dricci, 3), ("R13", b.r13, 4), ("R04", b.r04, 4),
        ("Q", q, 4), ("Qc", qc, 4), ("R.S", rs, 4))}
    g, s, r13, gamma = sc["|g|"], sc["|S|"], sc["|R13|"], sc["|gamma|"]
    lam = np.abs(b.scal / m)
    sc.update({
        "S": floored_scale(s, m * r13),
        "lambda": floored_scale(lam),
        "S - lambda g": floored_scale(s, lam * g),
        "nabla S": floored_scale(sc["|dS|"], m * gamma * s),
        "R.S": floored_scale(2.0 * m * r13 * s),
        # The floor |g||S| keeps roundoff in an identically zero Q(g,S)
        # (Einstein points) from counting as curvature dependence.
        "Q": floored_scale(sc["|Q|"], g * s),
        "Qc": floored_scale(sc["|Qc|"], g * s),
        "R": floored_scale(sc["|R04|"], g * (b.norm_dgamma + m * gamma ** 2)),
        "d omega": floored_scale(sc["|dg|"], g),
        "f_S": r13 / g,
    })
    return sc


def gather_evidence(bundle: CurvatureBundle, plan: SamplePlan) -> PointData:
    """Symmetry tensors, samples and scales at the points of a bundle
    stacked over the plan's points."""
    j = bundle.metric.J
    m = j.shape[0]
    dirs = _unit_rows(plan, _DIRECTION_STREAM, plan.directions, m)
    planes = _unit_rows(plan, _PLANE_STREAM, plan.planes, m)
    rs = r_dot_s(bundle)
    q = tachibana_ricci(bundle.metric.g, bundle.ricci)
    qc = _complex_from_real(q)
    return PointData(
        bundle=bundle,
        rs=rs,
        q=q,
        qc=qc,
        planes=planes,
        dir_rows=_outer_rows(dirs, dirs),
        plane_rows=_outer_rows(planes, planes @ j.T),
        scales=_scales(bundle, rs, q, qc),
    )


def sample_evidence(spec: ManifoldSpec, plan: SamplePlan) -> PointData:
    """Sample the plan's points, expand their depth-3 metric jets and
    gather the evidence; the points are ``bundle.metric.point``."""
    points = sample_points(spec.domain, plan)
    bundle = curvature_bundle(metric_from_potential(spec.potential(), points, spec.n))
    return gather_evidence(bundle, plan)


# Sample contractions are batched matrix products: a (0,4)-tensor t(u,v;x,y)
# is the (m^2, m^2) matrix from u(x)v to x(x)y, and a stack of sample rows
# u_k enters as the rows u_k(x)u_k.  matmul forms the same product for each
# point of a stack, so a point gets the bits it gets alone.


def _outer_rows(u_rows: np.ndarray, v_rows: np.ndarray) -> np.ndarray:
    """The rows u_k (x) v_k of two stacks of rows, flattened: (..., K, m*m)."""
    m = u_rows.shape[-1]
    return (u_rows[..., :, None] * v_rows[..., None, :]).reshape(u_rows.shape[:-1] + (m * m,))


def _first_pair_values(t: np.ndarray, u_outer: np.ndarray) -> np.ndarray:
    """t(u,u;.,.) for every row u (x) u of ``u_outer``, flattened: (..., K, m*m)."""
    m = t.shape[-1]
    return u_outer @ t.reshape(t.shape[:-4] + (m * m, m * m))


def _plane_reduce(t: np.ndarray, u_outer: np.ndarray, x_outer: np.ndarray) -> np.ndarray:
    """Values t(u,u;x,Jx) for all sampled directions u and plane seeds x,
    from the rows u (x) u and x (x) Jx."""
    return _first_pair_values(t, u_outer) @ np.swapaxes(x_outer, -1, -2)


def _paired_values(t: np.ndarray, u_outer: np.ndarray, x_rows: np.ndarray,
                   j: np.ndarray) -> np.ndarray:
    """Values t(u_k,u_k;x_k,Jx_k) of the k-th direction, given by its row
    u_k (x) u_k, on the k-th plane seed."""
    m = t.shape[-1]
    tu = _first_pair_values(t, u_outer).reshape(x_rows.shape + (m,))
    return (x_rows[..., None, :] @ tu @ (x_rows @ j.T)[..., :, None])[..., 0, 0]


def _parallel_plane_values(nabla_s: np.ndarray, u_outer: np.ndarray,
                           x_rows: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Values (nabla_{x+Jx} S)(u,u) for all plane seeds x and directions u,
    the directions given by their rows u (x) u."""
    m = nabla_s.shape[-1]
    grad = (x_rows + x_rows @ j.T) @ nabla_s.reshape(nabla_s.shape[:-3] + (m, m * m))
    return grad @ np.swapaxes(u_outer, -1, -2)


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
    b, sc = data.bundle, data.scales
    g = b.metric.g
    lams = b.scal / g.shape[-1]
    direct_pp = max_norm(b.ricci - lams[:, None, None] * g, 2) / sc["S - lambda g"]
    values = _plane_reduce(data.qc, data.dir_rows, data.plane_rows)
    char_pp = rel_violation(values, sc["Qc"], 2)
    spread = (lams.max() - lams.min()) / float(np.max(sc["lambda"]))
    details = {
        "lambda_mean": float(np.mean(lams)),
        "lambda_spread": float(spread),
    }
    verdict = _combine(
        "einstein",
        max(float(direct_pp.max()), float(spread)),
        float(char_pp.max()),
        plan.tolerance,
        details,
    )
    return verdict, lams, direct_pp, char_pp


def _ricci_flat(data, plan: SamplePlan):
    per_point = data.scales["|S|"] / data.scales["S"]
    verdict = _combine("ricci_flat", float(per_point.max()), None, plan.tolerance, {})
    return verdict, per_point


def _ricci_parallel(data, plan: SamplePlan):
    b, scale = data.bundle, data.scales["nabla S"]
    direct_pp = max_norm(b.nabla_ricci, 3) / scale
    values = _parallel_plane_values(b.nabla_ricci, data.dir_rows, data.planes, b.metric.J)
    char_pp = rel_violation(values, scale, 2)
    verdict = _combine(
        "ricci_parallel", float(direct_pp.max()), float(char_pp.max()),
        plan.tolerance, {},
    )
    return verdict, direct_pp, char_pp


def _ricci_semisymmetric(data, plan: SamplePlan):
    scale = data.scales["R.S"]
    direct_pp = data.scales["|R.S|"] / scale
    values = _plane_reduce(data.rs, data.dir_rows, data.plane_rows)
    char_pp = rel_violation(values, scale, 2)
    verdict = _combine(
        "ricci_semisymmetric", float(direct_pp.max()), float(char_pp.max()),
        plan.tolerance, {},
    )
    return verdict, direct_pp, char_pp


def _holo_pseudosymmetric(data, plan: SamplePlan):
    """Constancy of the Deszcz quotient over holomorphic planes, then the
    full tensor residual R.S - f_S Qc with the fitted f_S = L/2.

    Sample i pairs direction i mod (directions) with plane seed i: the
    first ``planes`` rows of the direction stack, or its rows gathered
    when there are fewer directions than planes."""
    attempted = plan.planes
    if attempted <= plan.directions:
        v = data.dir_rows[:, :attempted]
    else:
        v = data.dir_rows[:, np.arange(attempted) % plan.directions]
    j = data.bundle.metric.J
    nums = _paired_values(data.rs, v, data.planes, j)
    dens = _paired_values(data.q, v, data.planes, j)
    scale = data.scales["R.S"]
    bound = (DEPENDENCE_THRESHOLD * data.scales["Q"])[:, None]
    defined = np.abs(dens) > bound
    near = (np.abs(dens) > 0.1 * bound) & (np.abs(dens) <= 10.0 * bound)
    defined_counts = defined.sum(axis=1).tolist()
    fits = defined.any(axis=1)

    # Points without a defined sample fall back to the size of R.S itself.
    vacuous = data.scales["|R.S|"] / scale
    num_d = np.where(defined, nums, 0.0)
    den_d = np.where(defined, dens, 0.0)
    # Both dots of a point scaled by the same power of two: exact, and finite.
    e = np.frexp(np.max(np.abs(den_d), axis=1))[1][:, None]
    num_e, den_e = np.ldexp(num_d, -e), np.ldexp(den_d, -e)
    l_bar = np.divide(np.sum(num_e * den_e, axis=1), np.sum(den_e * den_e, axis=1),
                      out=np.zeros(len(vacuous)), where=fits)
    spread = np.max(np.abs(num_d - l_bar[:, None] * den_d), axis=1) / scale
    spread_pp = np.where(fits, spread, vacuous)
    fitted = l_bar / 2.0
    f_hats = [float(f) if fit else None for f, fit in zip(fitted, fits)]
    # rs - f qc formed in place as (-f) qc + rs: the same bits.
    residual = data.qc * -fitted[:, None, None, None, None]
    residual += data.rs
    residual_pp = np.where(fits, rel_violation(residual, scale, 4), vacuous)
    details = {
        "defined_samples": defined_counts,
        "attempted_samples": [attempted] * len(vacuous),
        "near_threshold_samples": near.sum(axis=1).tolist(),
    }
    if sum(defined_counts) == 0 and spread_pp.max() > plan.tolerance:
        verdict = CriterionVerdict(
            "holo_ricci_pseudosymmetric", INCONCLUSIVE, float(spread_pp.max()),
            float(residual_pp.max()), False,
            {**details, "reason": "no curvature-dependent samples but R.S != 0"},
        )
    else:
        verdict = _combine(
            "holo_ricci_pseudosymmetric", float(spread_pp.max()),
            float(residual_pp.max()), plan.tolerance, details,
        )
    return verdict, spread_pp, residual_pp, f_hats


def _f_s_constancy(f_hats, data, tol: float) -> bool | None:
    values = [f for f in f_hats if f is not None]
    if not values:
        return None
    curv = float(np.max(data.scales["f_S"]))
    return max(values) - min(values) <= tol * max(max(abs(f) for f in values), curv)


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
        f_s_constant=_f_s_constancy(f_hats, data, plan.tolerance),
        below_theorem_dimension=n < 2,
        evidence={key: tuple(values.tolist()) for key, values in evidence.items()},
    )

