"""Curvature-derived symmetry tensors and the two falsification experiments.

All (0,4)-tensors here use slot order (u, v, x, y): the first pair feeds
the bilinear form, the last pair spans the plane whose endomorphism acts
by derivation.  With A an endomorphism attached to (x, y),

    T(u, v; x, y) = -S(A u, v) - S(u, A v),

which gives R.S for A = R(x,y), the Tachibana-Ricci tensor Q(g,S) for
the metric wedge A = x wedge_g y, and its complex variant Qc(g,S) for the
complex wedge.  R.S is a matmul over the family R(x,y); Q(g,S), four
products of g and S, is formed in closed form, and Qc(g,S) from Q(g,S)
for a J-invariant S.  These tensors accept inputs stacked on leading
point axes and then return one tensor per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureBundle, parallel_transport
from .expressions import Expr
from .tensor_algebra import (
    ABS_FLOOR,
    j_conjugate_last_pair,
    j_invariance_violation,
    max_norm,
    NonHermitianMetric,
    standard_complex_structure,
)

# Gate of the input checks on g: Hermitian w.r.t. J for Qc(g,S), and a
# g-orthonormal plane basis for the rotation experiment.
HERMITIAN_TOLERANCE = 1e-8


def _endo_family_dot_bilinear(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Derivation action for a whole family a[d,c,x,y] of endomorphisms.

    Both terms are batched matmuls of S with a as the (d, c x y) matrix:
    S(Au, v) is S^T A with its (v, u) slots swapped, S(u, Av) is S A.  The
    result is formed in the buffer of the S A product, negated and then
    reduced by S(Au, v): -S(u, Av) - S(Au, v) has the bits, zeros' signs
    included, of -S(Au, v) - S(u, Av).  It is laid out in C order, as for a
    single point, so the contractions that read it sum in the same order
    for one point or many.
    """
    m = s.shape[-1]
    flat = a.reshape(a.shape[:-4] + (m, -1))
    s_a = s @ flat
    st_a = np.swapaxes(s, -1, -2) @ flat
    shape = s_a.shape[:-2] + (m, m) + a.shape[-2:]
    out = np.negative(s_a, out=s_a).reshape(shape)
    out -= np.swapaxes(st_a.reshape(shape), -4, -3)
    return out


def r_dot_s(bundle: CurvatureBundle) -> np.ndarray:
    """(R(x,y) . S)(u, v) in slot order (u, v, x, y)."""
    family = np.einsum("...dabc->...dcab", bundle.r13)
    return _endo_family_dot_bilinear(family, bundle.ricci)


def tachibana_ricci(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q(g,S) for a symmetric S: the derivation action of the metric wedges
    (x wedge_g y) u = g(y,u) x - g(x,u) y on S, in closed form

        Q(u,v;x,y) = g(u,x) S(v,y) + g(v,x) S(u,y) - (x <-> y),

    formed as W - W^(x<->y) with W = A + A^(u<->v), A[u,v,x,y] = g[u,x] S[v,y].
    Q is symmetric in (u, v) and antisymmetric in (x, y) bit for bit, and
    Q(g, g) is exactly zero.
    """
    g = np.asarray(g, float)
    s = np.asarray(s, float)
    a = g[..., :, None, :, None] * s[..., None, :, None, :]
    w = a + np.swapaxes(a, -4, -3)
    return np.subtract(w, np.swapaxes(w, -2, -1), out=a)


def complex_tachibana_ricci(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Qc(g,S) for the standard J (``MetricJet.J``), a g Hermitian for it and
    a J-invariant S (not checked: a Ricci-flat S is roundoff, which no check
    relative to |S| passes).

    Qc = Q + J^T Q J on the last slot pair, one signed gather: of the
    complex wedge x^y + Jx^Jy - 2 g(Jx,y) J, the last term acts on such an
    S as zero, since S(Ju, v) = -S(u, Jv)."""
    g = np.asarray(g, float)
    if np.any(j_invariance_violation(g, max_norm(g, 2), 2) > HERMITIAN_TOLERANCE):
        raise NonHermitianMetric("metric is not Hermitian w.r.t. the complex structure")
    q = tachibana_ricci(g, s)
    qc = j_conjugate_last_pair(q)
    qc += q
    return qc


def quad_eval(t: np.ndarray, u, v, x, y) -> float:
    return float(np.einsum("ijab,i,j,a,b->", t, u, v, x, y))


# -- experiments ----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    ladder: tuple[float, ...]
    defects: tuple[float, ...]
    measured: float  # extrapolated leading coefficient
    predicted: float
    details: dict = field(default_factory=dict)

    @property
    def abs_error(self) -> float:
        return abs(self.measured - self.predicted)

    @property
    def rel_error(self) -> float:
        return self.abs_error / max(abs(self.predicted), ABS_FLOOR)


def _extrapolate_to_zero(xs, ys) -> float:
    """Neville polynomial extrapolation of y(x) to x = 0."""
    xs = [float(x) for x in xs]
    table = [float(y) for y in ys]
    k = len(table)
    for level in range(1, k):
        for i in range(k - level):
            x0, x1 = xs[i], xs[i + level]
            table[i] = (x1 * table[i] - x0 * table[i + 1]) / (x1 - x0)
    return table[0]


def _check_ladder(ladder) -> None:
    """Extrapolation to 0 divides by every ladder value and every difference."""
    if len(ladder) == 0 or 0 in ladder or len(set(ladder)) < len(ladder):
        raise ValueError(f"ladder values must be nonzero and distinct, got {list(ladder)}")
    if not np.all(np.isfinite(ladder)):
        raise ValueError(f"ladder values must be finite, got {list(ladder)}")


def _response(s, v, moved, ladder, power: int) -> tuple[tuple[float, ...], float]:
    """The defects S(w,w) - S(v,v) of the vectors w ``moved`` by each ladder
    value h, and their coefficient of h^power extrapolated to h = 0."""
    base = float(v @ s @ v)
    defects = tuple(float(w @ s @ w) - base for w in moved)
    coeffs = [d / h**power for d, h in zip(defects, ladder)]
    return defects, _extrapolate_to_zero(ladder, coeffs)


DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
DEFAULT_H_LADDER = (0.02, 0.01)


def rotation_experiment(g, s, j, v, x, y, ladder=DEFAULT_EPS_LADDER) -> ExperimentResult:
    """First-order response of S(v,v) to a holomorphic plane rotation.

    For an orthonormal pair (x, y) the perturbed vector is
    v'' = v + eps (x wedge_g y) v + eps (Jx wedge_g Jy) v; the slope of
    S(v'', v'') - S(v, v) in eps converges to -Qc(g,S)(v, v; x, y).  Qc is
    formed for the standard J, so a ``j`` other than J or -J raises ValueError.
    """
    _check_ladder(ladder)
    g, s, j, v, x, y = (np.asarray(a, float) for a in (g, s, j, v, x, y))
    gram = np.array([[x @ g @ x, x @ g @ y], [y @ g @ x, y @ g @ y]])
    if max_norm(gram - np.eye(2)) > HERMITIAN_TOLERANCE:
        raise ValueError("plane basis must be g-orthonormal")
    std = standard_complex_structure(g.shape[0] // 2)
    if not (np.array_equal(j, std) or np.array_equal(j, -std)):
        raise ValueError("j must be the standard complex structure J or -J")
    gv, jx, jy = g @ v, j @ x, j @ y
    rot_v = (y @ gv) * x - (x @ gv) * y + (jy @ gv) * jx - (jx @ gv) * jy
    defects, measured = _response(s, v, [v + eps * rot_v for eps in ladder], ladder, 1)
    predicted = -quad_eval(complex_tachibana_ricci(g, s), v, v, x, y)
    return ExperimentResult(tuple(ladder), defects, measured, predicted)


def parallelogram_loop(point, axis_a: int, axis_b: int, h: float):
    """Closed coordinate parallelogram based at ``point``: +a, +b, -a, -b."""
    p = np.asarray(point, float)
    m = p.shape[0]
    ea = np.eye(m)[axis_a]
    eb = np.eye(m)[axis_b]
    return [p, p + h * ea, p + h * ea + h * eb, p + h * eb, p]


def transport_experiment(potential: Expr, n: int, point, v, axis_a: int, axis_b: int,
                         ladder=DEFAULT_H_LADDER, steps: int = 32, *,
                         bundle: CurvatureBundle) -> ExperimentResult:
    """Quadratic response of S(v,v) to transport around a coordinate square.

    Transporting v around the loop (+a, +b, -a, -b) of side h returns
    v_h = v - h^2 R(d_a, d_b) v + O(h^3), so the h^2 coefficient of
    S(v_h, v_h) - S(v, v) converges to +(R.S)(v, v; d_a, d_b).  The
    defect vectors (v - v_h)/h^2 are kept in ``details`` for the vector-
    level holonomy check.  ``bundle`` is the curvature bundle at ``point``;
    a bundle of another dimension or point raises ValueError, and so does
    a degenerate loop: h^2 underflows to 0, or a corner of the loop equals
    ``point`` in floats.
    """
    _check_ladder(ladder)
    point = np.asarray(point, float)
    if n != bundle.metric.n or not np.array_equal(point, bundle.metric.point):
        raise ValueError(
            f"bundle was built at n = {bundle.metric.n}, point "
            f"{bundle.metric.point.tolist()}, not at n = {n}, point {point.tolist()}"
        )
    loops = [parallelogram_loop(point, axis_a, axis_b, h) for h in ladder]
    for h, loop in zip(ladder, loops):
        if h * h == 0 or any(np.array_equal(corner, point) for corner in loop[1:-1]):
            raise ValueError(
                f"loop size h = {h!r} is degenerate at {point.tolist()}: h^2 underflows "
                "to 0 or a loop corner equals the base point in floats"
            )
    v = np.asarray(v, float)
    transported = parallel_transport(potential, n, loops, v, steps=steps)
    defects, measured = _response(bundle.ricci, v, transported, ladder, 2)
    ea = np.eye(2 * n)[axis_a]
    eb = np.eye(2 * n)[axis_b]
    predicted = quad_eval(r_dot_s(bundle), v, v, ea, eb)
    details = {
        "vector_defects": [((v - vh) / h**2).tolist() for vh, h in zip(transported, ladder)],
        "vector_predicted": (bundle.r13[:, axis_a, axis_b, :] @ v).tolist(),
    }
    return ExperimentResult(tuple(ladder), defects, measured, predicted, details)
