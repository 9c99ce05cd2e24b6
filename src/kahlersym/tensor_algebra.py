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


# -- (0,4)-tensor symmetries -------------------------------------------------


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
    tensor t (its first two slots with ``first_pair``, else its last two),
    relative to ``scale``.

    J^T t J is the signed gather of j_conjugate_last_pair: J is a signed
    permutation, so t - J^T t J holds exactly the numbers M_XX - M_YY and
    M_XY + M_YX of the pair's half blocks, up to sign.  M J + J^T M holds
    the same numbers up to sign and place, so this is also the pair's
    J-skew violation, bit for bit.  Entry (x', y') of t - J^T t J is -s_x s_y
    times entry (x, y), bit for bit, so only the pair's rows x < n are formed.
    """
    lead, m = t.shape[:t.ndim - rank], t.shape[-1]
    positions, signs = _half_swap(m)
    half, rest = m * m // 2, m ** (rank - 2)
    if first_pair:
        t = t.reshape(lead + (m * m, rest))
        conj = t.take(positions[:half], axis=-2)
        conj *= signs[:half, None]
        t = t[..., :half, :]
    else:
        t = t.reshape(lead + (rest, m * m))
        conj = t.take(positions[:half], axis=-1)
        conj *= signs[:half]
        t = t[..., :half]
    return rel_violation(np.subtract(t, conj, out=conj).reshape(lead + (-1,)), scale, 1)


def check_rs_symmetries(t: np.ndarray, scale) -> dict[str, np.ndarray]:
    """Violations of the algebraic symmetries of R.S, which Qc(g,S) shares.

    Slots are (u, v, x, y): symmetric in (u, v), antisymmetric in (x, y),
    invariant under J applied to either pair.  Invariance of a pair is
    the same number as its J-skewness (see j_invariance_violation), and
    ``j_pair_invariance`` holds the larger of the two pairs.
    Violations are relative to ``scale``, at least the tensor's max-norm (as
    the table scales "R.S" and "Qc" are); for tensors stacked on leading
    point axes, it and every violation hold one value per point.
    """
    t = np.asarray(t, float)
    return {
        "antisym_last_pair": rel_violation(t + np.swapaxes(t, -2, -1), scale, 4),
        "sym_first_pair": rel_violation(t - np.swapaxes(t, -4, -3), scale, 4),
        "j_pair_invariance": np.maximum(j_invariance_violation(t, scale, 4),
                                        j_invariance_violation(t, scale, 4, first_pair=True)),
    }
