"""Kahler metrics and their derivative jets from scalar potentials.

Real coordinates are ordered (x1..xn, y1..yn) and the complex structure
is the constant block matrix sending d/dx_k to d/dy_k.  With H the array
of second partials of the potential K, the metric blocks are

    A_kl = (H[x_k,x_l] + H[y_k,y_l]) / 4
    B_kl = (H[x_k,y_l] - H[x_l,y_k]) / 4
    g    = [[A, B], [-B, A]],

i.e. one quarter of (H + J^T H J).  This normalisation sends the flat
potential sum_k (x_k^2 + y_k^2) to the identity metric.  Derivatives of
g up to third order apply the same pairing to the third, fourth and
fifth partials of the potential, so a single degree-5 jet of K feeds the
whole curvature pipeline; each order is paired straight from the jet's
coefficients by one gather per operand (see ``_pairing``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expr, eval_jet
from .jets import JetSpace
from .tensor_algebra import max_norm, rel_violation, standard_complex_structure


class MetricError(ValueError):
    """The potential does not define a positive-definite metric at the point."""


@dataclass(frozen=True)
class MetricJet:
    """Metric value and coordinate derivatives at a chart point.

    dg[c,a,b] is the c-derivative of g_ab; ddg and dddg carry one and two
    more leading derivative axes.  Entries beyond the requested depth are
    None.  Jets of several points stack them on a leading point axis of
    point, g, dg, ddg and dddg; J is shared.
    """

    point: np.ndarray
    n: int
    g: np.ndarray
    dg: np.ndarray | None
    ddg: np.ndarray | None
    dddg: np.ndarray | None
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


def metric_from_potential(potential: Expr, point, n: int, depth: int = 3) -> MetricJet:
    """Metric jet of the potential at a chart point (2n,), or at each row
    of a stack of points (P, 2n).

    ``depth`` counts how many derivative orders of g are produced (0-3);
    the potential is expanded to order 2 + depth.  Raises MetricError if
    g is not positive definite, naming the first such point and its
    smallest eigenvalue.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim not in (1, 2) or point.shape[-1] != 2 * n:
        raise ValueError(f"point must have length 2n = {2 * n}, got shape {point.shape}")
    if not 0 <= depth <= 3:
        raise ValueError("depth must be between 0 and 3")
    jet = eval_jet(potential, point, 2 + depth)
    w = jet.coeffs * jet.space.factorial
    paired = [None] * 4
    for k in range(1 + depth):
        first, second, s2, s1 = _pairing(jet.space, 2 + k)
        # In place: every fresh (2n)^5 temporary would cost its page faults.
        paired[k] = t = w.take(second, axis=-1)
        t *= s2
        t += w.take(first, axis=-1)
        t *= s1
    g, dg, ddg, dddg = paired
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        for p, gp in zip(point.reshape(-1, 2 * n), g.reshape(-1, 2 * n, 2 * n)):
            try:
                np.linalg.cholesky(gp)
            except np.linalg.LinAlgError:
                smallest = float(np.linalg.eigvalsh(gp)[0])
                raise MetricError(
                    f"metric is not positive definite at {p.tolist()} "
                    f"(smallest eigenvalue {smallest:.6e})"
                ) from None
    return MetricJet(point, n, g, dg, ddg, dddg, standard_complex_structure(n))


def rotated_form_differential(j: np.ndarray, db: np.ndarray) -> np.ndarray:
    """d of the 2-form w_ab = B(J d_a, d_b), given the coordinate
    derivatives db[c,a,b] of B: (dw)_cab = d_c w_ab - d_a w_cb + d_b w_ca."""
    dw = np.einsum("ma,...cmb->...cab", j, db)
    return dw - np.swapaxes(dw, -3, -2) + np.moveaxis(dw, -3, -1)


def two_form_closedness(m: MetricJet):
    """Max-norm of d(omega), scaled by the max-norm of dg (floored); one
    value per point for stacked jets."""
    if m.dg is None:
        raise ValueError("metric jet lacks first derivatives")
    dw = rotated_form_differential(m.J, m.dg)
    return rel_violation(dw, np.maximum(max_norm(m.dg, 3), max_norm(m.g, 2)), 3)
