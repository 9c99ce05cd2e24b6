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
    """Curvature at one point, or at several (see :func:`stack_bundles`)."""

    metric: MetricJet
    connection: Connection
    r13: np.ndarray
    r04: np.ndarray
    ricci: np.ndarray
    dricci: np.ndarray  # plain coordinate derivative of the Ricci components
    nabla_ricci: np.ndarray
    scal: float


def christoffel(m: MetricJet) -> Connection:
    """Christoffel symbols with as many derivative levels as the jet allows."""
    if m.dg is None:
        raise ValueError("christoffel needs at least one derivative of the metric")
    g, dg, ddg, dddg = m.g, m.dg, m.ddg, m.dddg
    ginv = np.linalg.inv(g)
    t = np.einsum("adb->dab", dg) + np.einsum("bda->dab", dg) - dg
    gamma = 0.5 * np.einsum("cd,dab->cab", ginv, t)

    dgamma = None
    ddgamma = None
    if ddg is not None:
        dginv = -np.einsum("cm,emn,nd->ecd", ginv, dg, ginv)
        dt = np.einsum("eadb->edab", ddg) + np.einsum("ebda->edab", ddg) - ddg
        dgamma = 0.5 * (
            np.einsum("ecd,dab->ecab", dginv, t) + np.einsum("cd,edab->ecab", ginv, dt)
        )
        if dddg is not None:
            ddginv = -(
                np.einsum("fcm,emn,nd->fecd", dginv, dg, ginv)
                + np.einsum("cm,femn,nd->fecd", ginv, ddg, ginv)
                + np.einsum("cm,emn,fnd->fecd", ginv, dg, dginv)
            )
            ddt = (
                np.einsum("feadb->fedab", dddg)
                + np.einsum("febda->fedab", dddg)
                - dddg
            )
            ddgamma = 0.5 * (
                np.einsum("fecd,dab->fecab", ddginv, t)
                + np.einsum("ecd,fdab->fecab", dginv, dt)
                + np.einsum("fcd,edab->fecab", dginv, dt)
                + np.einsum("cd,fedab->fecab", ginv, ddt)
            )
    return Connection(gamma, dgamma, ddgamma)


def riemann(m: MetricJet, conn: Connection):
    """(r13, dr13, r04); dr13 is None without second Christoffel derivatives."""
    if conn.dgamma is None:
        raise ValueError("riemann needs first derivatives of the Christoffel symbols")
    gamma, dgamma, ddgamma = conn.gamma, conn.dgamma, conn.ddgamma
    r13 = (
        np.einsum("adbc->dabc", dgamma)
        - np.einsum("bdac->dabc", dgamma)
        + np.einsum("dam,mbc->dabc", gamma, gamma)
        - np.einsum("dbm,mac->dabc", gamma, gamma)
    )
    dr13 = None
    if ddgamma is not None:
        dr13 = (
            np.einsum("eadbc->edabc", ddgamma)
            - np.einsum("ebdac->edabc", ddgamma)
            + np.einsum("edam,mbc->edabc", dgamma, gamma)
            + np.einsum("dam,embc->edabc", gamma, dgamma)
            - np.einsum("edbm,mac->edabc", dgamma, gamma)
            - np.einsum("dbm,emac->edabc", gamma, dgamma)
        )
    r04 = np.einsum("mabc,md->abcd", r13, m.g)
    return r13, dr13, r04


def ricci(r13: np.ndarray) -> np.ndarray:
    """S_bc = trace of Z -> R(Z, d_b) d_c."""
    return np.einsum("aabc->bc", r13)


def scalar_curvature(s: np.ndarray, g: np.ndarray) -> float:
    return float(np.einsum("bc,bc->", np.linalg.inv(g), s))


def nabla_ricci(conn: Connection, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """(nabla_c S)_ab from the plain derivative ds[c,a,b] of the components."""
    gamma = conn.gamma
    return (
        ds
        - np.einsum("mca,mb->cab", gamma, s)
        - np.einsum("mcb,am->cab", gamma, s)
    )


def curvature_bundle(m: MetricJet) -> CurvatureBundle:
    """Everything the classifier needs at one point; requires depth-3 jets."""
    if m.dddg is None:
        raise ValueError("curvature_bundle needs a depth-3 metric jet")
    conn = christoffel(m)
    r13, dr13, r04 = riemann(m, conn)
    s = ricci(r13)
    ds = np.einsum("eaabc->ebc", dr13)
    ns = nabla_ricci(conn, s, ds)
    scal = scalar_curvature(s, m.g)
    return CurvatureBundle(m, conn, r13, r04, s, ds, ns, scal)


_STACKED = ("metric.point", "metric.g", "connection.gamma", "connection.dgamma",
            "r13", "r04", "ricci", "dricci", "nabla_ricci", "scal")


def stack_bundles(bundles) -> CurvatureBundle:
    """The bundles of several points, each tensor stacked on a leading point axis.

    The metric keeps its points, g and the shared J, and the connection
    gamma and dgamma; the higher derivatives, which only feed the stacked
    tensors, are dropped.  ``bundles`` may be a generator, so that only
    the kept tensors of all points are alive at once.
    """
    columns = {field: [] for field in _STACKED}
    for b in bundles:
        shared = b.metric  # n and J are the same at every point
        for field, column in columns.items():
            column.append(attrgetter(field)(b))
    stacked = {field.split(".")[-1]: np.stack(column) for field, column in columns.items()}
    metric = MetricJet(stacked.pop("point"), shared.n, stacked.pop("g"),
                       None, None, None, shared.J)
    connection = Connection(stacked.pop("gamma"), stacked.pop("dgamma"), None)
    return CurvatureBundle(metric, connection, **stacked)


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


def ricci_direction(s: np.ndarray, g: np.ndarray, v) -> float:
    """Normalised Ricci curvature S(v,v)/g(v,v) of a direction."""
    v = np.asarray(v, float)
    gvv = float(v @ g @ v)
    if gvv <= 0.0:
        raise ValueError("direction must have positive g-norm")
    return float(v @ s @ v) / gvv


# -- parallel transport --------------------------------------------------------


def parallel_transport(potential: Expr, n: int, path, v0, steps: int = 32) -> np.ndarray:
    """Transport v0 along a polyline of chart points.

    Classic fourth-order Runge-Kutta on v' = -Gamma(x(t))(x'(t), v) with
    ``steps`` fixed steps per segment.  Deterministic for fixed inputs.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    waypoints = [np.asarray(p, float) for p in path]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two points")
    v = np.asarray(v0, float).copy()

    def vel_matrix(x, dx):
        g = metric_from_potential(potential, x, n, depth=1)
        return -np.einsum("cab,a->cb", christoffel(g).gamma, dx)

    h = 1.0 / steps
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        dx = q - p
        for k in range(steps):
            t0 = k * h
            a0 = vel_matrix(p + t0 * dx, dx)
            am = vel_matrix(p + (t0 + 0.5 * h) * dx, dx)
            a1 = vel_matrix(p + (t0 + h) * dx, dx)
            k1 = a0 @ v
            k2 = am @ (v + 0.5 * h * k1)
            k3 = am @ (v + 0.5 * h * k2)
            k4 = a1 @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v
