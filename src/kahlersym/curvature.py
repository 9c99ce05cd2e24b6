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
its first and last slots.  The connection stops at d(gamma): dS comes
from the Ricci potential log det g of the metric jet, with no
connection (see _ricci_derivative).  A curvature bundle keeps the
depth-1 part of its jet and gamma alone: ddg, t and d(gamma) are
released once R and dS are formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expressions import Expr
from .metrics import MetricJet, metric_from_potential
from .tensor_algebra import j_conjugate_last_pair, max_norm


@dataclass(frozen=True)
class Connection:
    """gamma[c,a,b]; dgamma[e,c,a,b] = d_e gamma[c,a,b] from a depth >= 2 jet,
    else None, and None in a curvature bundle."""

    gamma: np.ndarray
    dgamma: np.ndarray | None


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature at one point, or at several stacked on a leading point axis.

    ``metric`` is the depth-1 part of the jet the bundle was built from
    (ddg = t = None) and ``connection`` holds gamma alone (dgamma = None):
    the jet's ddg and t and d(gamma) feed only R and dS, so they are not
    kept.  ``norm_dgamma`` is the max-norm of d(gamma) at each point, the
    one value read of it afterwards; ``christoffel`` of a depth >= 2 jet
    gives d(gamma) itself.
    """

    metric: MetricJet
    connection: Connection
    r13: np.ndarray
    r04: np.ndarray
    ricci: np.ndarray
    dricci: np.ndarray  # plain coordinate derivative of the Ricci components
    nabla_ricci: np.ndarray
    scal: float | np.ndarray
    norm_dgamma: float | np.ndarray


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
    gamma = m.G @ _first_kind(m.dg).reshape(lead + (d, d * d))
    dgamma = None
    if m.ddg is not None:
        t = (_first_kind(m.ddg).reshape(lead + (d * d, d * d))
             - m.dg.reshape(lead + (d * d, d)) @ gamma)
        dgamma = (m.G[..., None, :, :] @ t.reshape(lead + (d, d, d * d))
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


def scalar_curvature(s: np.ndarray, ginv: np.ndarray):
    """g^{bc} S_bc from the inverse metric ``ginv``: a float, or one value
    per point for stacked tensors."""
    scal = np.einsum("...bc,...bc->...", ginv, s)
    return float(scal) if np.ndim(scal) == 0 else scal


def nabla_ricci(conn: Connection, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """(nabla_c S)_ab from the plain derivative ds[c,a,b] of the components."""
    gamma = conn.gamma
    return (
        ds
        - np.einsum("...mca,...mb->...cab", gamma, s)
        - np.einsum("...mcb,...am->...cab", gamma, s)
    )


def _ricci_derivative(m: MetricJet) -> np.ndarray:
    """d_e S_bc from the Ricci potential Phi = log det g: dS = -pairing(d^3 Phi)
    on the last slot pair, with no Christoffel symbol.  With D_a = G d_a g,

        d_eab Phi = t/2 - tr(D_e G d_a d_b g) - (its two slot rotations)
                    + tr(D_e D_a D_b) + tr(D_a D_e D_b),

    where tr(G d_e d_a d_b g) = t/2 because G is J-invariant.  Each trace
    is one O(m^5) matmul on reshapes.  Holds for the jet of a Kahler
    potential, as every metric_from_potential jet is."""
    lead, d = m.g.shape[:-2], m.g.shape[-1]
    cube = lead + (d,) * 3
    one = m.G[..., None, :, :] @ m.dg
    # tr(D_e G d_a d_b g) = sum_xy (G d_e g G)[x,y] d_a d_b g_xy.
    two = ((one @ m.G[..., None, :, :]).reshape(lead + (d, d * d))
           @ np.swapaxes(m.ddg.reshape(lead + (d * d, d * d)), -1, -2)).reshape(cube)
    # tr(D_e D_a D_b) = sum_xz (D_e D_a)[x,z] D_b[z,x].
    three = ((one[..., :, None, :, :] @ one[..., None, :, :, :]).reshape(lead + (d * d, d * d))
             @ np.swapaxes(np.swapaxes(one, -1, -2).reshape(lead + (d, d * d)), -1, -2)
             ).reshape(cube)
    d3 = 0.5 * m.t - two - np.swapaxes(two, -3, -2) - np.moveaxis(two, -3, -1)
    d3 += three
    d3 += np.swapaxes(three, -3, -2)
    d3 += j_conjugate_last_pair(d3)
    d3 *= -0.25
    return d3


def curvature_bundle(m: MetricJet) -> CurvatureBundle:
    """Everything the classifier needs at the jet's points; requires depth-3
    jets of a Kahler potential, as every metric_from_potential jet is (dS is
    taken from log det g).  The bundle keeps the jet to depth 1 and gamma
    (see CurvatureBundle)."""
    if m.t is None:
        raise ValueError("curvature_bundle needs a depth-3 metric jet")
    conn = christoffel(m)
    r13, r04 = riemann(m, conn)
    s = ricci(r13)
    ds = _ricci_derivative(m)
    ns = nabla_ricci(conn, s, ds)
    scal = scalar_curvature(s, m.G)
    norm_dgamma = max_norm(conn.dgamma, 4)
    return CurvatureBundle(replace(m, ddg=None, t=None), Connection(conn.gamma, None),
                           r13, r04, s, ds, ns, scal, norm_dgamma)


# -- parallel transport --------------------------------------------------------


def parallel_transport(potential: Expr, n: int, path, v0, steps: int = 32) -> np.ndarray:
    """Transport v0 along a polyline of chart points (W, 2n), giving (2n,),
    or along each polyline of a stack (L, W, 2n), giving (L, 2n).

    Classic fourth-order Runge-Kutta on v' = -Gamma(x(t))(x'(t), v) with
    ``steps`` fixed steps per edge.  The stage times t0, t0 + h/2 and
    t0 + h of every step are merged where bitwise equal (np.unique), and
    the connection at those times on every edge of a polyline is expanded
    in one call.  The L vectors (v0 broadcast to them) are stepped
    together by stacked matvecs, each bitwise the product it would be
    alone.  Deterministic for fixed inputs.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    try:
        paths = np.asarray(path, float)
    except ValueError:
        raise ValueError("a stack of polylines must have equal lengths") from None
    single = paths.ndim == 2
    if single:
        paths = paths[None]
    if paths.ndim != 3 or paths.shape[1] < 2:
        raise ValueError("path needs at least two points")
    count, m = paths.shape[0], paths.shape[-1]
    v = np.array(np.broadcast_to(np.asarray(v0, float), (count, m)))

    h = 1.0 / steps
    # RK4 stage times of every step: t0, t0 + h/2 and t0 + h.
    stages = []
    for k in range(steps):
        t0 = k * h
        stages.extend((t0, t0 + 0.5 * h, t0 + h))
    times, where = np.unique(stages, return_inverse=True)
    where = where.reshape(steps, 3).tolist()
    starts, dxs = paths[:, :-1], np.diff(paths, axis=1)
    edges = dxs.shape[1]
    stage_points = starts[:, :, None] + times[:, None] * dxs[:, :, None]
    # vel[e, i, q] = -Gamma(dx, .) on edge e of polyline q at stage time i.
    vel = np.empty((edges, len(times), count, m, m))
    for q, points in enumerate(stage_points):
        jet = metric_from_potential(potential, points.reshape(-1, m), n, depth=1)
        gamma = christoffel(jet).gamma.reshape(points.shape + (m, m))
        for e, dx in enumerate(dxs[q]):
            vel[e, :, q] = -np.einsum("...cab,a->...cb", gamma[e], dx)
    for e in range(edges):
        for i0, im, i1 in where:
            a0, am, a1 = vel[e, i0], vel[e, im], vel[e, i1]
            k1 = (a0 @ v[..., None])[..., 0]
            k2 = (am @ (v + 0.5 * h * k1)[..., None])[..., 0]
            k3 = (am @ (v + 0.5 * h * k2)[..., None])[..., 0]
            k4 = (a1 @ (v + h * k3)[..., None])[..., 0]
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v[0] if single else v
