"""Levi-Civita connection, curvature tensors and parallel transport.

Index conventions, used consistently everywhere:

    gamma[c,a,b]     Christoffel symbol for nabla_{d_a} d_b = gamma[c,a,b] d_c
    r13[d,a,b,c]     R(d_a, d_b) d_c = r13[d,a,b,c] d_d  with
                     R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    r04[a,b,c,d]     g(R(d_a, d_b) d_c, d_d)
    nabla_ricci[c,a,b]  (nabla_c S)_ab

The sign of the lowered tensor makes sectional curvatures of round
Fubini-Study metrics positive.  The Ricci tensor is the trace
S_bc = r13[a,a,b,c], equal to contracting r04 with the inverse metric in
its first and last slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .expressions import Expr
from .metrics import MetricJet, metric_from_potential


class DegeneratePlane(ValueError):
    """The two vectors do not span a 2-plane."""


@dataclass(frozen=True)
class Connection:
    gamma: np.ndarray
    dgamma: np.ndarray | None
    ddgamma: np.ndarray | None


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature at one point, or at several stacked on a leading point axis."""

    metric: MetricJet
    connection: Connection
    r13: np.ndarray
    r04: np.ndarray
    ricci: np.ndarray
    dricci: np.ndarray  # plain coordinate derivative of the Ricci components
    nabla_ricci: np.ndarray
    scal: float | np.ndarray


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the first kind g_cm gamma[m,a,b] from
    dg[..., c, a, b]; further leading derivative axes pass through."""
    return 0.5 * (np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg)


def christoffel(m: MetricJet) -> Connection:
    """Christoffel symbols with as many derivative levels as the jet allows.

    Each level solves g . gamma = gamma_1 (symbols of the first kind),
    differentiated: g d(gamma) = d(gamma_1) - dg . gamma, and so on.
    """
    if m.dg is None:
        raise ValueError("christoffel needs at least one derivative of the metric")
    ginv = np.linalg.inv(m.g)
    gamma = np.einsum("...cd,...dab->...cab", ginv, _first_kind(m.dg))
    dgamma = ddgamma = None
    if m.ddg is not None:
        t = _first_kind(m.ddg) - np.einsum("...edm,...mab->...edab", m.dg, gamma)
        dgamma = np.einsum("...cd,...edab->...ecab", ginv, t)
        if m.dddg is not None:
            dg_dgamma = np.einsum("...edm,...fmab->...fedab", m.dg, dgamma)
            t = (_first_kind(m.dddg)
                 - np.einsum("...fedm,...mab->...fedab", m.ddg, gamma)
                 - dg_dgamma - np.swapaxes(dg_dgamma, -5, -4))
            ddgamma = np.einsum("...cd,...fedab->...fecab", ginv, t)
    return Connection(gamma, dgamma, ddgamma)


def riemann(m: MetricJet, conn: Connection):
    """(r13, r04) from the Christoffel symbols and their first derivatives."""
    if conn.dgamma is None:
        raise ValueError("riemann needs first derivatives of the Christoffel symbols")
    gamma, dgamma = conn.gamma, conn.dgamma
    r13 = (
        np.einsum("...adbc->...dabc", dgamma)
        - np.einsum("...bdac->...dabc", dgamma)
        + np.einsum("...dam,...mbc->...dabc", gamma, gamma)
        - np.einsum("...dbm,...mac->...dabc", gamma, gamma)
    )
    r04 = np.einsum("...mabc,...md->...abcd", r13, m.g)
    return r13, r04


def ricci(r13: np.ndarray) -> np.ndarray:
    """S_bc = trace of Z -> R(Z, d_b) d_c."""
    return np.einsum("...aabc->...bc", r13)


def scalar_curvature(s: np.ndarray, g: np.ndarray):
    """g^{bc} S_bc: a float, or one value per point for stacked tensors."""
    scal = np.einsum("...bc,...bc->...", np.linalg.inv(g), s)
    return float(scal) if np.ndim(scal) == 0 else scal


def nabla_ricci(conn: Connection, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """(nabla_c S)_ab from the plain derivative ds[c,a,b] of the components."""
    gamma = conn.gamma
    return (
        ds
        - np.einsum("...mca,...mb->...cab", gamma, s)
        - np.einsum("...mcb,...am->...cab", gamma, s)
    )


def curvature_bundle(m: MetricJet) -> CurvatureBundle:
    """Everything the classifier needs at the jet's points; requires depth-3 jets."""
    if m.dddg is None:
        raise ValueError("curvature_bundle needs a depth-3 metric jet")
    conn = christoffel(m)
    r13, r04 = riemann(m, conn)
    s = ricci(r13)
    # d_e S_bc: the trace over d = a of d_e r13[d,a,b,c], term by term.
    gamma, dgamma, ddgamma = conn.gamma, conn.dgamma, conn.ddgamma
    ds = (
        np.einsum("...eaabc->...ebc", ddgamma)
        - np.einsum("...ebaac->...ebc", ddgamma)
        + np.einsum("...eaam,...mbc->...ebc", dgamma, gamma)
        + np.einsum("...aam,...embc->...ebc", gamma, dgamma)
        - np.einsum("...eabm,...mac->...ebc", dgamma, gamma)
        - np.einsum("...abm,...emac->...ebc", gamma, dgamma)
    )
    ns = nabla_ricci(conn, s, ds)
    scal = scalar_curvature(s, m.g)
    return CurvatureBundle(m, conn, r13, r04, s, ds, ns, scal)


_KEPT = ("metric.point", "metric.g", "metric.dg", "connection.gamma",
         "connection.dgamma", "r13", "r04", "ricci", "dricci", "nabla_ricci", "scal")


def concat_bundles(bundles) -> CurvatureBundle:
    """Bundles of several blocks of points, joined along the point axis.

    The metric keeps its points, g, dg and the shared J, and the
    connection gamma and dgamma; the higher derivatives, which only feed
    the kept tensors, are dropped.  ``bundles`` may be a generator, so
    that only the kept tensors of all blocks are alive at once.
    """
    columns = {field: [] for field in _KEPT}
    for b in bundles:
        shared = b.metric  # n and J are the same at every point
        for field, column in columns.items():
            column.append(attrgetter(field)(b))
    joined = {field.split(".")[-1]: np.concatenate(column)
              for field, column in columns.items()}
    metric = MetricJet(joined.pop("point"), shared.n, joined.pop("g"), joined.pop("dg"),
                       None, None, shared.J)
    connection = Connection(joined.pop("gamma"), joined.pop("dgamma"), None)
    return CurvatureBundle(metric, connection, **joined)


# -- scalar curvature observables ---------------------------------------------


def sectional(r04: np.ndarray, g: np.ndarray, x, y) -> float:
    """Sectional curvature of span{x, y}."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    num = float(np.einsum("abcd,a,b,c,d->", r04, x, y, y, x))
    gxx = float(x @ g @ x)
    gyy = float(y @ g @ y)
    gxy = float(x @ g @ y)
    den = gxx * gyy - gxy * gxy
    if abs(den) <= 1e-12 * max(gxx * gyy, 1e-14):
        raise DegeneratePlane("vectors do not span a plane")
    return num / den


def holomorphic_sectional(r04: np.ndarray, g: np.ndarray, j: np.ndarray, x) -> float:
    return sectional(r04, g, x, np.asarray(j, float) @ np.asarray(x, float))


# -- parallel transport --------------------------------------------------------


def parallel_transport(potential: Expr, n: int, path, v0, steps: int = 32) -> np.ndarray:
    """Transport v0 along a polyline of chart points.

    Classic fourth-order Runge-Kutta on v' = -Gamma(x(t))(x'(t), v) with
    ``steps`` fixed steps per segment.  The connection at the three stage
    points of every step of a segment is expanded in one call before the
    segment is integrated.  Deterministic for fixed inputs.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    waypoints = [np.asarray(p, float) for p in path]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two points")
    v = np.asarray(v0, float).copy()

    h = 1.0 / steps
    # RK4 stage times of every step: t0, t0 + h/2 and t0 + h.
    stages = []
    for k in range(steps):
        t0 = k * h
        stages.extend((t0, t0 + 0.5 * h, t0 + h))
    stages = np.array(stages)[:, None]
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        dx = q - p
        stage_points = p + stages * dx
        gamma = christoffel(metric_from_potential(potential, stage_points, n, depth=1)).gamma
        vel = -np.einsum("...cab,a->...cb", gamma, dx)
        for k in range(steps):
            a0, am, a1 = vel[3 * k:3 * k + 3]
            k1 = a0 @ v
            k2 = am @ (v + 0.5 * h * k1)
            k3 = am @ (v + 0.5 * h * k2)
            k4 = a1 @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v
