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
    return _largest(np.abs(np.asarray(t)), rank)


def _largest(a: np.ndarray, rank: int | None):
    """max_norm of an array of absolute values."""
    if rank is None:
        return float(np.max(a)) if a.size else 0.0
    return np.max(a, axis=tuple(range(a.ndim - rank, a.ndim)), initial=0.0)


def floored_scale(*norms):
    """Elementwise largest of the norms, floored at ABS_FLOOR."""
    return reduce(np.maximum, norms, ABS_FLOOR)


def rel_violation(diff: np.ndarray, reference_scale, rank: int | None = None):
    """Max-norm of diff relative to a scale, floored for zero tensors.
    ``diff`` is a temporary: its absolute value is taken in place."""
    return _largest(np.abs(diff, out=diff), rank) / np.maximum(reference_scale, ABS_FLOOR)


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


def _half_blocks(t: np.ndarray, rank: int, first_pair: bool):
    """Views of the half blocks XX, XY, YX, YY of one slot pair of the
    rank-``rank`` tensor t: its first two slots with ``first_pair``, else
    its last two.  The other slots are merged into one trailing axis, or
    with the point axes into one leading axis, so that a block is walked
    in long runs."""
    m = t.shape[-1]
    x, y = slice(None, m // 2), slice(m // 2, None)
    if first_pair:
        t = t.reshape(t.shape[:t.ndim - rank] + (m, m, -1))
        return [t[..., r, c, :] for r in (x, y) for c in (x, y)]
    t = t.reshape(-1, m, m)
    return [t[:, r, c] for r in (x, y) for c in (x, y)]


def _block_violation(block: np.ndarray, lead: tuple, scale):
    """rel_violation of a temporary block per point; ``lead`` is the shape of
    the point axes."""
    return rel_violation(block.reshape(lead + (-1,)), scale, 1)


@lru_cache(maxsize=None)
def _half_swap(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, signs) of J^T M J in a flattened m x m matrix M: J is the
    half swap x -> x + n, x + n -> -x, so (J^T M J)[x, y] = s_x s_y M[x', y']
    with x' the swapped index and s = +1 on the first half, -1 on the
    second."""
    n = m // 2
    swapped = np.r_[n:m, :n]
    signs = np.r_[np.ones(n), -np.ones(n)]
    tables = ((swapped[:, None] * m + swapped).ravel(), np.outer(signs, signs).ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


def j_conjugate_last_pair(t: np.ndarray) -> np.ndarray:
    """J^T t J on the last slot pair of t, as one signed gather (no product
    with J)."""
    m = t.shape[-1]
    positions, signs = _half_swap(m)
    out = t.reshape(-1, m * m).take(positions, axis=1)
    out *= signs
    return out.reshape(t.shape)


def j_invariance_violation(t: np.ndarray, scale, rank: int, first_pair: bool = False):
    """Max-norm of t - J^T t J, J acting on one slot pair of the rank-``rank``
    tensor t (see _half_blocks), relative to ``scale``.

    J = [[0, -I], [I, 0]] is a signed half swap: J^T M J has the half
    blocks [[M_YY, -M_YX], [-M_XY, M_XX]], so the violation is the larger
    of |M_XX - M_YY| and |M_XY + M_YX|, read off the blocks with no
    product.  M J + J^T M holds the same numbers up to sign and place, so
    this is also the pair's J-skew violation, bit for bit.
    """
    lead = t.shape[:t.ndim - rank]
    xx, xy, yx, yy = _half_blocks(t, rank, first_pair)
    return np.maximum(_block_violation(xx - yy, lead, scale),
                      _block_violation(xy + yx, lead, scale))


def j_rotated_symmetric_violation(t: np.ndarray, scale, rank: int):
    """Max-norm of the symmetric part of c = t(., J.) in the first two slots
    of the rank-``rank`` tensor t, relative to ``scale``.

    c has the half blocks [[M_XY, -M_XX], [M_YY, -M_YX]], so (c + c^T)/2
    is read off M_XY, M_YX and M_YY^T - M_XX (its lower-left block
    repeats the upper-right one transposed)."""
    lead = t.shape[:t.ndim - rank]
    xx, xy, yx, yy = _half_blocks(t, rank, first_pair=True)
    parts = (xy + np.swapaxes(xy, -3, -2),
             np.swapaxes(yy, -3, -2) - xx,
             yx + np.swapaxes(yx, -3, -2))
    for part in parts:
        part *= 0.5
    return reduce(np.maximum, (_block_violation(part, lead, scale) for part in parts))


def check_rs_symmetries(t: np.ndarray, scale, norm=None) -> dict[str, np.ndarray]:
    """Violations of the algebraic symmetries shared by R.S and the Tachibana tensors.

    Slots are (u, v, x, y): symmetric in (u, v), antisymmetric in (x, y),
    invariant under J applied to either pair.  Invariance of a pair is
    the same number as its J-skewness (see j_invariance_violation), and
    ``j_pair_invariance`` holds the larger of the two pairs.
    Violations are relative to the larger of the tensor's max-norm and the
    reference ``scale`` (needed when t itself is roundoff; pass 0.0 to judge
    t by its own norm).  ``norm`` is the tensor's max-norm when the
    caller holds it already.  For tensors stacked on leading point axes,
    ``scale``, ``norm`` and every violation hold one value per point.
    """
    t = np.asarray(t, float)
    if norm is None:
        norm = max_norm(t, 4)
    scale = np.maximum(scale, norm)
    return {
        "antisym_last_pair": rel_violation(t + np.swapaxes(t, -2, -1), scale, 4),
        "sym_first_pair": rel_violation(t - np.swapaxes(t, -4, -3), scale, 4),
        "j_pair_invariance": np.maximum(j_invariance_violation(t, scale, 4),
                                        j_invariance_violation(t, scale, 4, first_pair=True)),
    }
