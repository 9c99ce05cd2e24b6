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
depth-1 part of its jet and gamma, not d(gamma): ddg, t and d(gamma)
are released once R and dS are formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .expressions import Expr
from .metrics import MetricJet, metric_from_potential
from .tensor_algebra import j_conjugate_last_pair, max_norm


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature at one point, or at several stacked on a leading point axis.

    ``metric`` is the depth-1 part of the jet the bundle was built from
    (ddg = t = None) and ``gamma`` its Christoffel symbols: the jet's ddg
    and t and d(gamma) feed only R and dS, so they are not kept.
    ``norm_dgamma`` is the max-norm of d(gamma) at each point, the one
    value read of it afterwards; ``christoffel`` of a depth >= 2 jet gives
    d(gamma) itself.
    """

    metric: MetricJet
    gamma: np.ndarray
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


def christoffel(m: MetricJet) -> tuple[np.ndarray, np.ndarray | None]:
    """(gamma, dgamma): gamma[c,a,b], and dgamma[e,c,a,b] = d_e gamma[c,a,b]
    when the jet has ddg, else None.

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
    return gamma.reshape(lead + (d,) * 3), dgamma


def riemann(m: MetricJet, gamma: np.ndarray, dgamma: np.ndarray):
    """(r13, r04) from the Christoffel symbols and their first derivatives."""
    if dgamma is None:
        raise ValueError("riemann needs first derivatives of the Christoffel symbols")
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


def nabla_ricci(gamma: np.ndarray, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """(nabla_c S)_ab from the plain derivative ds[c,a,b] of the components."""
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
    gamma, dgamma = christoffel(m)
    r13, r04 = riemann(m, gamma, dgamma)
    s = ricci(r13)
    ds = _ricci_derivative(m)
    ns = nabla_ricci(gamma, s, ds)
    scal = scalar_curvature(s, m.G)
    return CurvatureBundle(replace(m, ddg=None, t=None), gamma,
                           r13, r04, s, ds, ns, scal, max_norm(dgamma, 4))


# -- parallel transport --------------------------------------------------------

# Stage-time tables held, one per step count.
_STAGE_TABLES = 8


@lru_cache(maxsize=_STAGE_TABLES)
def _stage_times(steps: int):
    """(times, where), read-only: the RK4 stage times t0, t0 + h/2 and
    t0 + h of every step, h = 1/steps, merged where bitwise equal
    (np.unique), and where[k, j] the position in times of stage j of step k."""
    h = 1.0 / steps
    stages = []
    for k in range(steps):
        t0 = k * h
        stages.extend((t0, t0 + 0.5 * h, t0 + h))
    times, where = np.unique(stages, return_inverse=True)
    where = where.reshape(steps, 3)
    times.flags.writeable = where.flags.writeable = False
    return times, where


def parallel_transport(potential: Expr, n: int, path, v0, steps: int = 32) -> np.ndarray:
    """Transport v0 along a polyline of chart points (W, 2n), giving (2n,),
    or along each polyline of a stack (L, W, 2n), giving (L, 2n).

    Classic fourth-order Runge-Kutta on v' = -Gamma(x(t))(x'(t), v) with
    ``steps`` fixed steps per edge.  The stage times t0, t0 + h/2 and
    t0 + h of every step are merged where bitwise equal (np.unique, one
    table per ``steps``), and the connection at those times on every edge
    of every polyline of the stack is expanded in one depth-1 call.  The
    ODE is linear, so each step is the matrix

        M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   K1 = A0,  K2 = Am (I + h/2 K1),
        K3 = Am (I + h/2 K2),  K4 = A1 (I + h K3),

    formed for every step of every edge at once; the step matrices are
    composed by a pairwise product (later steps on the left) and applied
    to v once.  This agrees with stepping the vector to roundoff, not
    bitwise: within 1e-13 max|v| and 1e-8 max|v - v_h| of the vector RK4
    of tests/helpers.parallel_transport_stagewise.  Each polyline of a
    stack gets the bits it gets alone.  Deterministic for fixed inputs.
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
    v = np.broadcast_to(np.asarray(v0, float), (count, m))

    h = 1.0 / steps
    times, where = _stage_times(steps)
    starts, dxs = paths[:, :-1], np.diff(paths, axis=1)
    edges = dxs.shape[1]
    stage_points = starts[:, :, None] + times[:, None] * dxs[:, :, None]
    jet = metric_from_potential(potential, stage_points.reshape(-1, m), n, depth=1)
    gamma = christoffel(jet)[0].reshape(count * edges, len(times), m, m, m)
    # vel[q, e, i] = -Gamma(dx, .) on edge e of polyline q at stage time i.
    vel = -np.einsum("etcab,ea->etcb", gamma, dxs.reshape(count * edges, m)).reshape(
        count, edges, len(times), m, m)
    # a[..., j, :, :] is A0, Am or A1 of each (edge, step), steps in order.
    a = vel[:, :, where].reshape(count, edges * steps, 3, m, m)
    a0, am, a1 = a[:, :, 0], a[:, :, 1], a[:, :, 2]
    eye = np.eye(m)
    k2 = am @ (eye + 0.5 * h * a0)
    k3 = am @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    mats = eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    # Pairwise product, later steps on the left; an odd last matrix
    # carries to the next level.
    while mats.shape[1] > 1:
        carry = mats[:, mats.shape[1] - mats.shape[1] % 2:]
        mats = np.concatenate([mats[:, 1::2] @ mats[:, :-1:2], carry], axis=1)
    v = (mats[:, 0] @ v[..., None])[..., 0]
    return v[0] if single else v
