"""Curvature-derived symmetry tensors and the two falsification experiments.

All (0,4)-tensors here use slot order (u, v, x, y): the first pair feeds
the bilinear form, the last pair spans the plane whose endomorphism acts
by derivation.  With A an endomorphism attached to (x, y),

    T(u, v; x, y) = -S(A u, v) - S(u, A v),

which gives R.S for A = R(x,y), the Tachibana-Ricci tensor Q(g,S) for
the metric wedge A = x wedge_g y, and its complex variant Qc(g,S) for
the complex wedge.  These tensors and their scales accept inputs stacked
on leading point axes and then return one tensor or value per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureBundle, parallel_transport
from .expressions import Expr
from .tensor_algebra import (
    ABS_FLOOR,
    floored_scale,
    hermitian_violation,
    max_norm,
    NonHermitianMetric,
    rel_violation,
    wedge_g_matrix,
)

# Gate of the input checks on g: Hermitian w.r.t. J for Qc(g,S), and a
# g-orthonormal plane basis for the rotation experiment.
HERMITIAN_TOLERANCE = 1e-8


def _endo_family_dot_bilinear(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Derivation action for a whole family a[d,c,x,y] of endomorphisms.

    The result is laid out in C order, as for a single point, so the
    contractions that read it sum in the same order for one point or many.
    """
    return np.ascontiguousarray(
        -np.einsum("...miab,...mj->...ijab", a, s)
        - np.einsum("...mjab,...im->...ijab", a, s)
    )


def r_dot_s(bundle: CurvatureBundle) -> np.ndarray:
    """(R(x,y) . S)(u, v) in slot order (u, v, x, y)."""
    family = np.einsum("...dabc->...dcab", bundle.r13)
    return _endo_family_dot_bilinear(family, bundle.ricci)


def _wedge_family(g: np.ndarray) -> np.ndarray:
    eye = np.eye(g.shape[-1])
    return np.einsum("...bc,da->...dcab", g, eye) - np.einsum("...ac,db->...dcab", g, eye)


def tachibana_ricci(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q(g,S): the derivation action of metric wedges on the Ricci tensor."""
    return _endo_family_dot_bilinear(_wedge_family(np.asarray(g, float)),
                                     np.asarray(s, float))


def _complex_wedge_family(g: np.ndarray, j: np.ndarray) -> np.ndarray:
    gj = g @ j
    rotated = np.einsum("...cb,da->...dcab", gj, j) - np.einsum("...ca,db->...dcab", gj, j)
    spin = -2.0 * np.einsum("...ab,dc->...dcab", j.T @ g, j)
    return _wedge_family(g) + rotated + spin


def complex_tachibana_ricci(g: np.ndarray, s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Qc(g,S): derivation action of complex wedges; needs g Hermitian."""
    g = np.asarray(g, float)
    j = np.asarray(j, float)
    if np.any(hermitian_violation(g, j) > HERMITIAN_TOLERANCE):
        raise NonHermitianMetric("metric is not Hermitian w.r.t. the complex structure")
    return _endo_family_dot_bilinear(_complex_wedge_family(g, j), np.asarray(s, float))


def quad_eval(t: np.ndarray, u, v, x, y) -> float:
    return float(np.einsum("ijab,i,j,a,b->", t, u, v, x, y))


def holomorphic_first_slot_check(qc: np.ndarray, j: np.ndarray, scale):
    """Max violation of Qc(x, Jx; ., .) = 0, relative to the tensor scale.

    Vanishing for every x is equivalent to the (u,v)-symmetrised form of
    Qc contracted with J being zero, which is what gets measured.  The
    reference ``scale`` replaces the tensor's own max-norm when larger,
    as it must when qc itself is expected to be roundoff.
    """
    contracted = np.einsum("...imab,mk->...ikab", qc, j)
    sym = 0.5 * (contracted + np.einsum("...kiab->...ikab", contracted))
    return rel_violation(sym, np.maximum(scale, max_norm(qc, 4)), 4)


# -- Deszcz quotient -----------------------------------------------------------


def dependence_scale(q: np.ndarray, g: np.ndarray, s: np.ndarray) -> float:
    """Reference magnitude for 'Q(g,S) depends on this plane' tests.

    The floor ||g|| * ||S|| keeps roundoff noise in an identically zero
    Q(g,S) (Einstein points) from counting as curvature dependence.
    """
    return floored_scale(max_norm(q, 4), max_norm(g, 2) * max_norm(s, 2))


# -- experiments ----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    ladder: tuple[float, ...]
    defects: tuple[float, ...]
    measured: float  # extrapolated leading coefficient
    predicted: float
    abs_error: float
    rel_error: float
    details: dict = field(default_factory=dict)


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


DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
DEFAULT_H_LADDER = (0.02, 0.01)


def rotation_experiment(g, s, j, v, x, y, ladder=DEFAULT_EPS_LADDER) -> ExperimentResult:
    """First-order response of S(v,v) to a holomorphic plane rotation.

    For an orthonormal pair (x, y) the perturbed vector is
    v'' = v + eps (x wedge_g y) v + eps (Jx wedge_g Jy) v; the slope of
    S(v'', v'') - S(v, v) in eps converges to -Qc(g,S)(v, v; x, y).
    """
    _check_ladder(ladder)
    g = np.asarray(g, float)
    s = np.asarray(s, float)
    j = np.asarray(j, float)
    v = np.asarray(v, float)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    gram = np.array([[x @ g @ x, x @ g @ y], [y @ g @ x, y @ g @ y]])
    if max_norm(gram - np.eye(2)) > HERMITIAN_TOLERANCE:
        raise ValueError("plane basis must be g-orthonormal")
    rot = wedge_g_matrix(g, x, y) + wedge_g_matrix(g, j @ x, j @ y)
    base = float(v @ s @ v)
    defects = []
    for eps in ladder:
        w = v + eps * (rot @ v)
        defects.append(float(w @ s @ w) - base)
    slopes = [d / eps for d, eps in zip(defects, ladder)]
    measured = _extrapolate_to_zero(ladder, slopes)
    predicted = -quad_eval(complex_tachibana_ricci(g, s, j), v, v, x, y)
    abs_err = abs(measured - predicted)
    rel_err = abs_err / max(abs(predicted), ABS_FLOOR)
    return ExperimentResult(tuple(ladder), tuple(defects), measured, predicted,
                            abs_err, rel_err)


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
    level holonomy check.  ``bundle`` is the curvature bundle at ``point``.
    """
    _check_ladder(ladder)
    point = np.asarray(point, float)
    v = np.asarray(v, float)
    s = bundle.ricci
    base = float(v @ s @ v)
    defects = []
    vector_defects = []
    transported = []
    for h in ladder:
        vh = parallel_transport(potential, n, parallelogram_loop(point, axis_a, axis_b, h),
                                v, steps=steps)
        defects.append(float(vh @ s @ vh) - base)
        vector_defects.append((v - vh) / h**2)
        transported.append(vh)
    coeffs = [d / h**2 for d, h in zip(defects, ladder)]
    measured = _extrapolate_to_zero(ladder, coeffs)
    rs = r_dot_s(bundle)
    ea = np.eye(2 * n)[axis_a]
    eb = np.eye(2 * n)[axis_b]
    predicted = quad_eval(rs, v, v, ea, eb)
    abs_err = abs(measured - predicted)
    rel_err = abs_err / max(abs(predicted), ABS_FLOOR)
    details = {
        "vector_defects": [w.tolist() for w in vector_defects],
        "vector_predicted": (bundle.r13[:, axis_a, axis_b, :] @ v).tolist(),
        "transported": [w.tolist() for w in transported],
    }
    return ExperimentResult(tuple(ladder), tuple(defects), measured, predicted,
                            abs_err, rel_err, details)
