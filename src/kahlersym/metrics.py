"""Kahler metrics and their derivative jets from scalar potentials.

Real coordinates are ordered (x1..xn, y1..yn) and the complex structure
is the constant block matrix sending d/dx_k to d/dy_k.  With H the array
of second partials of the potential K, the metric blocks are

    A_kl = (H[x_k,x_l] + H[y_k,y_l]) / 4
    B_kl = (H[x_k,y_l] - H[x_l,y_k]) / 4
    g    = [[A, B], [-B, A]],

i.e. one quarter of (H + J^T H J).  This normalisation sends the flat
potential sum_k (x_k^2 + y_k^2) to the identity metric.  The first two
derivatives of g apply the same pairing to the third and fourth partials
of the potential, each order paired straight from the jet's coefficients
by one gather per operand (see ``_pairing``).  The fifth partials P5 feed
only dS, through the symmetric trace t[e,f,h] = sum_xy P5[e,f,h,x,y] G[x,y]
with G = g^-1 (see ``_trace_table``), so a single degree-5 jet of K feeds
the whole curvature pipeline and no (2n)^5 tensor is formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expr, eval_jet
from .jets import JetSpace
from .tensor_algebra import standard_complex_structure


class MetricError(ValueError):
    """The potential does not define a finite, positive-definite metric at the point."""


class NotPositiveDefinite(MetricError):
    """g is not positive definite at a point: the potential is not Kahler there."""


@dataclass(frozen=True)
class MetricJet:
    """Metric value and coordinate derivatives at a chart point.

    G = g^-1 is formed once here, for every reader of the inverse metric.
    dg[c,a,b] is the c-derivative of g_ab and ddg carries one more leading
    derivative axis.  t[e,f,h] is the trace of the fifth partials P5 of
    the potential against G on their last slot pair, symmetric in its
    three slots; it stands in for the third derivative of g, whose only
    use is dS.  Entries beyond the requested depth are None.  Jets of
    several points stack them on a leading point axis of point, g, G, dg,
    ddg and t; J is shared.
    """

    point: np.ndarray
    n: int
    g: np.ndarray
    G: np.ndarray
    dg: np.ndarray | None
    ddg: np.ndarray | None
    t: np.ndarray | None
    J: np.ndarray


@lru_cache(maxsize=None)
def _pairing(space: JetSpace, degree: int):
    """(first, second, s2, s1): with w the coefficients times their factorials,
    (w[first] + s2 * w[second]) * s1 is the Hermitian pairing of the
    order-``degree`` partials.  With xx, xy, yy the blocks of the partials
    table, first = [[xx, xy], [xy, xx]] and second = [[yy, xy^T], [xy^T, yy]];
    s1 holds +-1/4: it rounds as the quarter does and negates B after the
    sum, so every entry, -0.0 included, has the bits of the block pairing."""
    table = space.partials_table(degree)
    n = space.nvars // 2
    xx, xy, yy = table[..., :n, :n], table[..., :n, n:], table[..., n:, n:]
    xyt = np.swapaxes(xy, -1, -2)
    return (np.block([[xx, xy], [xy, xx]]), np.block([[yy, xyt], [xyt, yy]]),
            np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((n, n))),
            np.kron([[0.25, 0.25], [-0.25, 0.25]], np.ones((n, n))))


@lru_cache(maxsize=None)
def _trace_table(space: JetSpace):
    """(table, expand): table[k, x, y] is the position of the order-5
    monomial of the k-th sorted slot triple e <= f <= h and the pair
    (x, y), of shape (C(m+2, 3), m, m); expand[e, f, h] is the k of the
    sorted (e, f, h), so that the C(m+2, 3) traces expand to (m, m, m)."""
    triples = list(itertools.combinations_with_replacement(range(space.nvars), 3))
    expand = np.empty((space.nvars,) * 3, dtype=np.intp)
    for k, triple in enumerate(triples):
        expand[tuple(zip(*itertools.permutations(triple)))] = k
    return space.partials_table(5)[tuple(zip(*triples))], expand


def metric_from_potential(potential: Expr, point, n: int, depth: int = 3) -> MetricJet:
    """Metric jet of the potential at a chart point (2n,), or at each row
    of a stack of points (P, 2n).

    ``depth`` counts how many derivative orders of g are produced (0-3);
    the potential is expanded to order 2 + depth, and depth 3 gives t in
    place of the third derivative of g.  Raises MetricError if the jet is
    not finite (the potential's derivatives overflow a float) and its
    subclass NotPositiveDefinite if g is not positive definite, naming
    the first such point.  Floating-point warnings of the expansion are
    not raised: its result is gated on finiteness right after.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim not in (1, 2) or point.shape[-1] != 2 * n:
        raise ValueError(f"point must have length 2n = {2 * n}, got shape {point.shape}")
    if not 0 <= depth <= 3:
        raise ValueError("depth must be between 0 and 3")
    with np.errstate(over="ignore", invalid="ignore"):
        jet = eval_jet(potential, point, 2 + depth)
        w = jet.coeffs * jet.space.factorial
    if not np.isfinite(w).all():
        finite = np.isfinite(w).all(axis=-1).reshape(-1)
        p = point.reshape(-1, 2 * n)[np.argmin(finite)]
        raise MetricError(f"metric jet is not finite at {p.tolist()} "
                          "(the potential's derivatives overflow a float)")
    paired = [None] * 3
    for k in range(1 + min(depth, 2)):
        first, second, s2, s1 = _pairing(jet.space, 2 + k)
        # In place: each fresh (P, m^4) temporary of ddg costs its page faults.
        paired[k] = pair = w.take(second, axis=-1)
        pair *= s2
        pair += w.take(first, axis=-1)
        pair *= s1
    g, dg, ddg = paired
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        for p, gp in zip(point.reshape(-1, 2 * n), g.reshape(-1, 2 * n, 2 * n)):
            try:
                np.linalg.cholesky(gp)
            except np.linalg.LinAlgError:
                smallest = float(np.linalg.eigvalsh(gp)[0])
                raise NotPositiveDefinite(
                    f"metric is not positive definite at {p.tolist()} "
                    f"(smallest eigenvalue {smallest:.6e})"
                ) from None
    ginv = np.linalg.inv(g)
    t = None
    if depth == 3:
        table, expand = _trace_table(jet.space)
        lead, d = g.shape[:-2], g.shape[-1]
        traces = (w.take(table, axis=-1).reshape(lead + (len(table), d * d))
                  @ ginv.reshape(lead + (d * d, 1)))
        t = traces[..., 0].take(expand, axis=-1)
    return MetricJet(point, n, g, ginv, dg, ddg, t, standard_complex_structure(n))


def rotated_form_differential(j: np.ndarray, db: np.ndarray) -> np.ndarray:
    """d of the 2-form w_ab = B(J d_a, d_b), given the coordinate
    derivatives db[c,a,b] of B: (dw)_cab = d_c w_ab - d_a w_cb + d_b w_ca."""
    dw = np.einsum("ma,...cmb->...cab", j, db)
    return dw - np.swapaxes(dw, -3, -2) + np.moveaxis(dw, -3, -1)
