"""Pointwise multilinear algebra on a tangent space with a complex structure.

Vectors are 1-d arrays of length 2n, bilinear forms (2n, 2n) arrays and
(0,4)-tensors (2n, 2n, 2n, 2n) arrays.  The coordinate basis is always
ordered (x1..xn, y1..yn) so that the standard complex structure is the
constant block matrix J = [[0, -I], [I, 0]].

The tensor checks are shape-polymorphic: a tensor may carry leading point
axes, and then every violation and norm is one value per point.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

ABS_FLOOR = 1e-14


class NonHermitianMetric(ValueError):
    """g(J., J.) differs from g(., .) beyond tolerance."""


@lru_cache(maxsize=None)
def standard_complex_structure(n: int) -> np.ndarray:
    """J sending basis vector a to a+n for a <= n; exactly J^2 = -I.
    Built once per n and read-only: every metric jet of that n shares it."""
    if n < 1:
        raise ValueError("complex dimension must be at least 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    j = np.block([[zero, -eye], [eye, zero]])
    j.flags.writeable = False
    return j


def max_norm(t, rank: int | None = None):
    """Max-norm of ``t`` as a float; with ``rank``, the max-norm of each
    rank-``rank`` tensor stacked along the leading axes of ``t``."""
    t = np.asarray(t)
    if rank is None:
        return float(np.max(np.abs(t))) if t.size else 0.0
    return np.max(np.abs(t), axis=tuple(range(t.ndim - rank, t.ndim)), initial=0.0)


def floored_scale(*norms):
    """Elementwise largest of the norms, floored at ABS_FLOOR."""
    return reduce(np.maximum, norms, ABS_FLOOR)


def rel_violation(diff, reference_scale: float, rank: int | None = None):
    """Max-norm of diff relative to a scale, floored for zero tensors."""
    return max_norm(diff, rank) / np.maximum(reference_scale, ABS_FLOOR)


def hermitian_violation(g: np.ndarray, j: np.ndarray):
    return rel_violation(j.T @ g @ j - g, max_norm(g, 2), 2)


def _check_dims(g, *vectors):
    m = g.shape[0]
    if g.shape != (m, m):
        raise ValueError(f"metric must be square, got {g.shape}")
    for v in vectors:
        if v.shape != (m,):
            raise ValueError(f"vector shape {v.shape} does not match metric dim {m}")


def wedge_g_matrix(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Endomorphism z -> g(y,z) x - g(x,z) y as a matrix."""
    g = np.asarray(g, float)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    _check_dims(g, x, y)
    return np.outer(x, g @ y) - np.outer(y, g @ x)


# -- (0,4)-tensor symmetries -------------------------------------------------


def _permute_slots(t: np.ndarray, *order: int) -> np.ndarray:
    """Reorder the trailing len(order) axes of t, leaving point axes in front."""
    lead = t.ndim - len(order)
    return np.transpose(t, (*range(lead), *(lead + k for k in order)))


def _j_last_pair(t, j):
    return j.T @ t @ j


def _j_skew_last_pair(t, j):
    return t @ j + j.T @ t


def _on_first_pair(op, t, j):
    """``op`` applied to the first slot pair of t instead of the last."""
    return _permute_slots(op(_permute_slots(t, 2, 3, 0, 1), j), 2, 3, 0, 1)


def _j_first_pair(t, j):
    return _on_first_pair(_j_last_pair, t, j)


def check_rs_symmetries(t: np.ndarray, j: np.ndarray, scale) -> dict[str, np.ndarray]:
    """Violations of the algebraic symmetries shared by R.S and the Tachibana tensors.

    Slots are (u, v, x, y): symmetric in (u, v), antisymmetric in (x, y),
    invariant under J applied to either pair, J-skew within each pair.
    Violations are relative to the larger of the tensor's max-norm and the
    reference ``scale`` (needed when t itself is roundoff; pass 0.0 to judge
    t by its own norm).  For tensors stacked on leading point axes,
    ``scale`` and every violation hold one value per point.
    """
    t = np.asarray(t, float)
    scale = np.maximum(scale, max_norm(t, 4))
    return {
        "antisym_last_pair": rel_violation(t + np.swapaxes(t, -2, -1), scale, 4),
        "sym_first_pair": rel_violation(t - np.swapaxes(t, -4, -3), scale, 4),
        "j_pair_invariance": np.maximum(
            rel_violation(t - _j_last_pair(t, j), scale, 4),
            rel_violation(t - _j_first_pair(t, j), scale, 4),
        ),
        "j_skew_first_pair": rel_violation(_on_first_pair(_j_skew_last_pair, t, j), scale, 4),
        "j_skew_last_pair": rel_violation(_j_skew_last_pair(t, j), scale, 4),
    }

