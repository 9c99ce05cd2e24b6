"""Ladder classification from sampled pointwise curvature evidence.

Each rung of the symmetry ladder (Ricci-flat, Einstein, Ricci-parallel,
Ricci-semisymmetric, holomorphically Ricci-pseudosymmetric) is decided by
two independent routes: the direct tensor definition and the
holomorphic-plane characterization.  A rung passes only when both routes
pass; disagreement is reported as inconclusive, never silently resolved.
The four rungs read from S are one table of per-point routes (``_routes``),
decided in ladder order by one loop.
The inclusion chain between rungs is enforced after the fact: an upstream
pass combined with a downstream fail raises LatticeError, because it can
only come from a bookkeeping bug.

Relative violations are measured against input-magnitude scales (norms of
the tensors that were combined), not against the quantity under test, so
identically zero signals read as zero instead of amplified roundoff.  The
rungs and the identity suite read every scale from one table, formed once
per evidence by ``_scales``.

The rungs take the metric to be Kahler: metrics.metric_from_potential
builds it so, as J-pairings of fully symmetric partials, and refuses a g
that is not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .curvature import CurvatureBundle, curvature_bundle
from .metrics import metric_from_potential
from .symmetry_tensors import _complex_from_real, r_dot_s, tachibana_ricci
from .tensor_algebra import floored_scale, max_norm, rel_violation, standard_complex_structure
from .zoo import LADDER_CLASSES, ManifoldSpec

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_POINT_STREAM = 0
_DIRECTION_STREAM = 1
_PLANE_STREAM = 2

# Sample points keep this fraction of each side away from the domain's faces.
MARGIN = 1e-3
# A Deszcz sample is defined where |Qc(g,S)(v,v;x,Jx)| exceeds this fraction
# of the scale "Qc".
DEPENDENCE_THRESHOLD = 1e-8
# Sample tables held, one per (seed, points, directions, planes, n).
_SAMPLE_TABLES = 4


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


def _unit_rows(seed: int, stream: int, points: int, count: int, m: int) -> np.ndarray:
    """``count`` random unit vectors of length m at each of ``points`` points,
    (points, count, m), from one draw of the stream seeded by ``seed``.

    Point i takes the stream's values [i*count*m, (i+1)*count*m), so its
    rows do not depend on the number of points (unless a row must be
    redrawn, which has probability zero).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    rows = rng.standard_normal((points, count, m))
    norms = np.linalg.norm(rows, axis=-1)
    bad = norms < 1e-12
    while np.any(bad):
        rows[bad] = rng.standard_normal((int(bad.sum()), m))
        norms = np.linalg.norm(rows, axis=-1)
        bad = norms < 1e-12
    return rows / norms[..., None]


@lru_cache(maxsize=_SAMPLE_TABLES)
def _sample_table(seed: int, points: int, directions: int, planes: int, n: int):
    """The plane seeds (P, planes, m) and the rows u (x) u and x (x) Jx,
    (P, count, m*m), of a plan's samples in complex dimension n: read-only,
    and shared by every run at that plan and n, since they depend on neither
    the potential nor the tolerance.  The _SAMPLE_TABLES most recently used
    keys are held, so runs that alternate plans or n build each table once;
    a new key drops the least recently used.  A table is
    P*(planes*m + (directions + planes)*m*m) floats."""
    m = 2 * n
    dirs = _unit_rows(seed, _DIRECTION_STREAM, points, directions, m)
    x = _unit_rows(seed, _PLANE_STREAM, points, planes, m)
    table = (x, _outer_rows(dirs, dirs), _outer_rows(x, x @ standard_complex_structure(n).T))
    for rows in table:
        rows.flags.writeable = False
    return table


# The rows of one point: the stream is drawn for the first point_index + 1 points.
def direction_samples(plan: SamplePlan, point_index: int, m: int) -> np.ndarray:
    return _unit_rows(plan.seed, _DIRECTION_STREAM, point_index + 1, plan.directions, m)[-1]


def plane_samples(plan: SamplePlan, point_index: int, m: int) -> np.ndarray:
    return _unit_rows(plan.seed, _PLANE_STREAM, point_index + 1, plan.planes, m)[-1]


# -- evidence at the sampled points ----------------------------------------------


@dataclass(frozen=True)
class PointData:
    """Curvature bundle, derived tensors and samples at every sampled point.

    Every field carries a leading point axis: ``bundle`` holds the
    curvature of all points, rs and qc are (P, m, m, m, m), the plane seeds
    ``planes`` (P, count, m).  The directions enter only as the rows
    u (x) u of ``dir_rows``, and the plane seeds also as the rows x (x) Jx
    of ``plane_rows``, both flattened to (P, count, m*m); all three are the
    read-only arrays of ``_sample_table``.  ``scales`` is the scale table of
    ``_scales``, one (P,) array per name.
    """

    bundle: CurvatureBundle
    rs: np.ndarray
    qc: np.ndarray
    planes: np.ndarray
    dir_rows: np.ndarray
    plane_rows: np.ndarray
    scales: dict[str, np.ndarray]


def _scales(b: CurvatureBundle, rs, qc) -> dict[str, np.ndarray]:
    """The scale table: the max-norm "|T|" of each tensor T a rung or an
    identity reads, each taken once, and every scale they divide by, formed
    from those norms and named after what it judges (docs/conventions.md,
    "Scales").  One value per point for stacked tensors.

    Scales of curvature tensors of type (1,3) do not change when the
    potential is multiplied by a constant: "S" = max(|S|, m |R|) does not.
    f_S and lambda scale as 1/c under K -> cK, as "f_S" = |R| / |g| and the
    floor "S" / (m |g|) of "lambda" do.
    """
    m = b.metric.g.shape[-1]
    sc = {f"|{name}|": max_norm(t, rank) for name, t, rank in (
        ("g", b.metric.g, 2), ("gamma", b.connection.gamma, 3),
        ("S", b.ricci, 2), ("dS", b.dricci, 3), ("R13", b.r13, 4), ("R04", b.r04, 4),
        ("Qc", qc, 4), ("R.S", rs, 4))}
    g, s, r13, gamma = sc["|g|"], sc["|S|"], sc["|R13|"], sc["|gamma|"]
    s = floored_scale(s, m * r13)
    lam = np.abs(b.scal / m)
    sc.update({
        "S": s,
        "lambda": floored_scale(lam, s / (m * g)),
        "S - lambda g": floored_scale(s, lam * g),
        "nabla S": floored_scale(sc["|dS|"], m * gamma * s),
        # An entry of R.S sums 2m products, so |R.S| <= 2m |R13||S| up to roundoff.
        "R.S": floored_scale(sc["|R.S|"], 2.0 * m * r13 * s),
        # The floor |g| "S" keeps roundoff in an identically zero Qc(g,S)
        # (Einstein and Ricci-flat points) from counting as curvature dependence.
        "Qc": floored_scale(sc["|Qc|"], g * s),
        "R": floored_scale(sc["|R04|"], g * (b.norm_dgamma + m * gamma ** 2)),
        "f_S": r13 / g,
    })
    return sc


def gather_evidence(bundle: CurvatureBundle, plan: SamplePlan) -> PointData:
    """Symmetry tensors, samples and scales at the points of a bundle
    stacked over the plan's points."""
    planes, dir_rows, plane_rows = _sample_table(
        plan.seed, plan.points, plan.directions, plan.planes, bundle.metric.n)
    rs = r_dot_s(bundle)
    qc = _complex_from_real(tachibana_ricci(bundle.metric.g, bundle.ricci))
    return PointData(
        bundle=bundle,
        rs=rs,
        qc=qc,
        planes=planes,
        dir_rows=dir_rows,
        plane_rows=plane_rows,
        scales=_scales(bundle, rs, qc),
    )


def sample_evidence(spec: ManifoldSpec, plan: SamplePlan) -> PointData:
    """Sample the plan's points, expand their depth-3 metric jets and
    gather the evidence; the points are ``bundle.metric.point``.  The sample
    table is looked up first, so a new key drops the least recently used
    table before the expansion."""
    _sample_table(plan.seed, plan.points, plan.directions, plan.planes, spec.n)
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


def _plane_reduce(t: np.ndarray, u_outer: np.ndarray, x_outer: np.ndarray) -> np.ndarray:
    """Values t(u,u;x,Jx) for all sampled directions u and plane seeds x,
    (..., directions, planes), from the rows u (x) u and x (x) Jx."""
    m = t.shape[-1]
    return u_outer @ t.reshape(t.shape[:-4] + (m * m, m * m)) @ np.swapaxes(x_outer, -1, -2)


def _fit_samples(values: np.ndarray) -> np.ndarray:
    """The Deszcz fit's samples among plane values (..., directions, planes):
    sample k pairs direction k mod (directions) with plane seed k."""
    directions, planes = values.shape[-2:]
    k = np.arange(planes)
    return values[..., k % directions, k]


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


def _plane_route(t: np.ndarray, data, scale: np.ndarray):
    """The holo route of a rung read off the plane values t(u,u;x,Jx), and
    their f_S samples (``_fit_samples``), copied out first: the route's
    reduction overwrites the values, which are freed on return."""
    values = _plane_reduce(t, data.dir_rows, data.plane_rows)
    samples = _fit_samples(values)
    return rel_violation(values, scale, 2), samples


def _routes(data):
    """Per-point (direct, holo) violations of the rungs decided from S,
    keyed by rung name in ladder order (holo None where a rung has no plane
    route), the lambda values, and the f_S samples R.S(v,v;x,Jx) and
    Qc(g,S)(v,v;x,Jx) of ``_holo_pseudosymmetric``."""
    b, sc = data.bundle, data.scales
    g = b.metric.g
    lams = b.scal / g.shape[-1]
    einstein_holo, dens = _plane_route(data.qc, data, sc["Qc"])
    semi_holo, nums = _plane_route(data.rs, data, sc["R.S"])
    routes = {
        "ricci_flat": (sc["|S|"] / sc["S"], None),
        "einstein": (max_norm(b.ricci - lams[:, None, None] * g, 2) / sc["S - lambda g"],
                     einstein_holo),
        "ricci_parallel": (
            max_norm(b.nabla_ricci, 3) / sc["nabla S"],
            rel_violation(_parallel_plane_values(b.nabla_ricci, data.dir_rows, data.planes,
                                                 b.metric.J), sc["nabla S"], 2)),
        "ricci_semisymmetric": (sc["|R.S|"] / sc["R.S"], semi_holo),
    }
    return routes, lams, nums, dens


def _holo_pseudosymmetric(data, plan: SamplePlan, nums: np.ndarray, dens: np.ndarray):
    """Constancy of the quotient f_S = R.S / Qc over holomorphic planes,
    then the full tensor residual R.S - f_S Qc with the fitted f_S.

    ``nums`` and ``dens`` are the (P, planes) samples R.S(v,v;x,Jx) and
    Qc(g,S)(v,v;x,Jx) that the ricci_semisymmetric and einstein rungs
    read off their plane values (``_fit_samples``)."""
    scale = data.scales["R.S"]
    bound = (DEPENDENCE_THRESHOLD * data.scales["Qc"])[:, None]
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
    f_s = np.divide(np.sum(num_e * den_e, axis=1), np.sum(den_e * den_e, axis=1),
                    out=np.zeros(len(vacuous)), where=fits)
    spread = np.max(np.abs(num_d - f_s[:, None] * den_d), axis=1) / scale
    spread_pp = np.where(fits, spread, vacuous)
    f_hats = [float(f) if fit else None for f, fit in zip(f_s, fits)]
    # rs - f qc formed in place as (-f) qc + rs: the same bits.
    residual = data.qc * -f_s[:, None, None, None, None]
    residual += data.rs
    residual_pp = np.where(fits, rel_violation(residual, scale, 4), vacuous)
    details = {
        "defined_samples": defined_counts,
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
        return tuple(getattr(self, name) for name in LADDER_CLASSES)

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


def classify_evidence(data, plan: SamplePlan) -> LadderVerdict:
    """Decide every rung from point evidence (n is its metric's) and enforce the chain."""
    routes, lams, nums, dens = _routes(data)
    spread = float(lams.max() - lams.min()) / float(np.max(data.scales["lambda"]))
    criteria, evidence = [], {}
    for name in LADDER_CLASSES[:-1]:
        direct, holo = routes[name]
        worst, details = float(direct.max()), {}
        if name == "einstein":
            # Einstein also needs one lambda at every point.
            worst, details = max(worst, spread), {"lambda_spread": spread}
        criteria.append(_combine(name, worst, None if holo is None else float(holo.max()),
                                 plan.tolerance, details))
        evidence[f"{name}.direct"] = direct
        if holo is not None:
            evidence[f"{name}.holo"] = holo
    hrps, spread_pp, residual_pp, f_hats = _holo_pseudosymmetric(data, plan, nums, dens)
    criteria.append(hrps)
    evidence[f"{hrps.name}.spread"], evidence[f"{hrps.name}.residual"] = spread_pp, residual_pp

    _check_lattice(criteria)
    classification = next((c.name for c in criteria if c.status == PASS), "none")
    return LadderVerdict(
        **{c.name: c for c in criteria},
        classification=classification,
        lambda_hat=float(np.mean(lams)),
        lambda_values=tuple(lams.tolist()),
        f_s_values=tuple(f_hats),
        f_s_constant=_f_s_constancy(f_hats, data, plan.tolerance),
        below_theorem_dimension=data.bundle.metric.n < 2,
        evidence={key: tuple(values.tolist()) for key, values in evidence.items()},
    )
