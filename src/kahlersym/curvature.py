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
its first and last slots.  The connection stops at d(gamma): dS takes
its two traces of dd(gamma) straight from the metric jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .expressions import Expr
from .metrics import MetricJet, metric_from_potential


@dataclass(frozen=True)
class Connection:
    """gamma[c,a,b]; dgamma[e,c,a,b] = d_e gamma[c,a,b] from a depth >= 2 jet, else None."""

    gamma: np.ndarray
    dgamma: np.ndarray | None


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
    """Christoffel symbols, and their first derivatives when the jet has ddg.

    g . gamma = gamma_1 (symbols of the first kind), and differentiated
    g d(gamma) = d(gamma_1) - dg . gamma.  The contractions are batched
    matrix products over the flattened slots, with gamma[c,a,b] kept as a
    (c, ab) matrix until the end.
    """
    if m.dg is None:
        raise ValueError("christoffel needs at least one derivative of the metric")
    lead, d = m.g.shape[:-2], m.g.shape[-1]
    ginv = np.linalg.inv(m.g)
    gamma = ginv @ _first_kind(m.dg).reshape(lead + (d, d * d))
    dgamma = None
    if m.ddg is not None:
        t = (_first_kind(m.ddg).reshape(lead + (d * d, d * d))
             - m.dg.reshape(lead + (d * d, d)) @ gamma)
        dgamma = (ginv[..., None, :, :] @ t.reshape(lead + (d, d, d * d))
                  ).reshape(lead + (d,) * 4)
    return Connection(gamma.reshape(lead + (d,) * 3), dgamma)


def riemann(m: MetricJet, conn: Connection):
    """(r13, r04) from the Christoffel symbols and their first derivatives."""
    if conn.dgamma is None:
        raise ValueError("riemann needs first derivatives of the Christoffel symbols")
    gamma, dgamma = conn.gamma, conn.dgamma
    lead, d = m.g.shape[:-2], m.g.shape[-1]
    # gg[d,a,b,c] = gamma[d,a,m] gamma[m,b,c]; the second product is its (a,b) swap.
    gg = (gamma.reshape(lead + (d * d, d)) @ gamma.reshape(lead + (d, d * d))
          ).reshape(lead + (d,) * 4)
    r13 = (
        np.einsum("...adbc->...dabc", dgamma)
        - np.einsum("...bdac->...dabc", dgamma)
        + gg
        - np.swapaxes(gg, -3, -2)
    )
    r04 = (np.swapaxes(r13.reshape(lead + (d, d ** 3)), -1, -2) @ m.g).reshape(r13.shape)
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


def _ricci_derivative(m: MetricJet, gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """d_e S_bc.  Its two dd(gamma) terms, sum_a d_e d_a gamma[a,b,c] and
    sum_a d_e d_b gamma[a,a,c], are traces against G = g^-1 of g dd(gamma) =
    dd(gamma_1) - dd(g) gamma - d(g) d(gamma) - (the same, derivative slots
    swapped), taken before any product: dd(gamma) is never formed and every
    product is an O(m^5) matmul.  Their G[a,d] d_e d_a d_b g_dc terms cancel."""
    lead, d = m.g.shape[:-2], m.g.shape[-1]
    cube = lead + (d,) * 3
    ginv = np.linalg.inv(m.g)
    row = ginv.reshape(lead + (1, 1, d * d))
    # G[a,d] against the slot pairs (h, x), (f, h) and (x, y) of dddg[e,f,h,x,y].
    mixed = (row @ m.dddg.reshape(lead + (d * d, d * d, d))).reshape(cube)
    laplace = (row @ m.dddg.reshape(lead + (d, d * d, d * d))).reshape(cube)
    traced = m.dddg.reshape(lead + (d ** 3, d * d)) @ ginv.reshape(lead + (d * d, 1))
    # raised[e,a,m] = G[a,d] dg[e,d,m]; swapped[e,b,c] = raised[b,a,m] dgamma[e,m,a,c].
    raised = ginv[..., None, :, :] @ m.dg
    swapped = (np.swapaxes(raised, -1, -2).reshape(lead + (1, d, d * d))
               @ dgamma.reshape(lead + (d, d * d, d)))
    # The factors of gamma[m,b,c] and of dgamma[e,m,b,c] summed over m.
    on_gamma = (np.einsum("...eaam->...em", dgamma)
                - (row @ m.ddg.reshape(lead + (d, d * d, d)))[..., 0, :])
    on_dgamma = (np.einsum("...aam->...m", gamma)
                 - (row[..., 0, :, :] @ m.dg.reshape(lead + (d * d, d)))[..., 0, :])
    # gamma_t[b,a,m] = gamma[a,b,m] and dgamma_t[e,b,a,m] = dgamma[e,a,b,m]
    # put the summed slots of the last two gamma.dgamma products side by side.
    gamma_t = np.swapaxes(gamma, -3, -2)
    dgamma_t = np.swapaxes(dgamma, -3, -2)
    return (
        0.5 * (mixed + np.swapaxes(mixed, -1, -2) - laplace - traced.reshape(cube))
        + (on_gamma @ gamma.reshape(lead + (d, d * d))
           - raised.reshape(lead + (d, d * d)) @ dgamma.reshape(lead + (d * d, d * d))
           ).reshape(cube)
        + (on_dgamma[..., None, None, :] @ dgamma.reshape(lead + (d, d, d * d))).reshape(cube)
        + (m.ddg.reshape(lead + (d * d, d * d))
           @ (ginv[..., None, :, :] @ gamma).reshape(lead + (d * d, d))).reshape(cube)
        + swapped + np.swapaxes(swapped, -3, -2)
        - dgamma_t.reshape(lead + (d, d, d * d)) @ gamma_t.reshape(lead + (1, d * d, d))
        - gamma_t.reshape(lead + (1, d, d * d)) @ dgamma_t.reshape(lead + (d, d * d, d))
    )


def curvature_bundle(m: MetricJet) -> CurvatureBundle:
    """Everything the classifier needs at the jet's points; requires depth-3 jets."""
    if m.dddg is None:
        raise ValueError("curvature_bundle needs a depth-3 metric jet")
    conn = christoffel(m)
    r13, r04 = riemann(m, conn)
    s = ricci(r13)
    ds = _ricci_derivative(m, conn.gamma, conn.dgamma)
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
    connection = Connection(joined.pop("gamma"), joined.pop("dgamma"))
    return CurvatureBundle(metric, connection, **joined)


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
