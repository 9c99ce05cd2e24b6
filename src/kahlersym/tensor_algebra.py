"""Pointwise multilinear algebra on a tangent space with a complex structure.

Vectors are 1-d arrays of length 2n, bilinear forms (2n, 2n) arrays and
(0,4)-tensors (2n, 2n, 2n, 2n) arrays.  The coordinate basis is always
ordered (x1..xn, y1..yn) so that the standard complex structure is the
constant block matrix J = [[0, -I], [I, 0]].

The tensor checks are shape-polymorphic: a tensor may carry leading point
axes, and then every violation and norm is one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

ABS_FLOOR = 1e-14


class NonHermitianMetric(ValueError):
    """g(J., J.) differs from g(., .) beyond tolerance."""


def standard_complex_structure(n: int) -> np.ndarray:
    """J sending basis vector a to a+n for a <= n; exactly J^2 = -I."""
    if n < 1:
        raise ValueError("complex dimension must be at least 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, -eye], [eye, zero]])


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


def wedge_g(g, x, y, z) -> np.ndarray:
    return wedge_g_matrix(g, x, y) @ np.asarray(z, float)


def wedge_c_matrix(g, j, x, y, tol: float = 1e-8) -> np.ndarray:
    """Complex wedge: the metric wedge, its J-rotated copy, and a -2 g(Jx,y) J term.

    Requires g Hermitian with respect to j; commutes with j by construction.
    """
    g = np.asarray(g, float)
    j = np.asarray(j, float)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if hermitian_violation(g, j) > tol:
        raise NonHermitianMetric("metric is not Hermitian w.r.t. the complex structure")
    plain = wedge_g_matrix(g, x, y)
    rotated = wedge_g_matrix(g, j @ x, j @ y)
    return plain + rotated - 2.0 * float(j @ x @ g @ y) * j


def wedge_c(g, j, x, y, z, tol: float = 1e-8) -> np.ndarray:
    return wedge_c_matrix(g, j, x, y, tol) @ np.asarray(z, float)


def endo_dot_bilinear(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Derivation action of an endomorphism on a bilinear form.

    (A . S)(u, v) = -S(A u, v) - S(u, A v).
    """
    a = np.asarray(a, float)
    s = np.asarray(s, float)
    return -(a.T @ s + s @ a)


def g_norm(g, v) -> float:
    return float(np.sqrt(v @ g @ v))


def adapted_frame(g: np.ndarray, j: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """g-orthonormal frame (e_1..e_n, J e_1..J e_n) with e_1 along ``seed``.

    Rows are frame vectors.  Candidate vectors whose residual after
    orthogonalisation drops below 1e-10 times the seed norm are replaced
    by the next canonical basis vector.
    """
    g = np.asarray(g, float)
    j = np.asarray(j, float)
    seed = np.asarray(seed, float)
    _check_dims(g, seed)
    m = g.shape[0]
    n = m // 2
    seed_norm = float(np.linalg.norm(seed))
    if seed_norm == 0.0:
        raise ValueError("degenerate seed vector")
    drop = 1e-10 * seed_norm

    holo: list[np.ndarray] = []
    span: list[np.ndarray] = []

    def orthonormalize(candidate):
        r = candidate.astype(float)
        for _ in range(2):  # re-orthogonalize once for stable Gram at 1e-10
            for w in span:
                r = r - (w @ g @ r) * w
        norm_sq = float(r @ g @ r)
        if norm_sq <= 0.0:
            # exact cancellation means the candidate lies in the span; only
            # a nonpositive seed norm indicates a bad metric
            if not span:
                raise ValueError("metric is not positive definite (pivot failure)")
            return None
        norm = np.sqrt(norm_sq)
        if norm < drop:
            return None
        return r / norm

    def push(candidate):
        e = orthonormalize(candidate)
        if e is None:
            return False
        holo.append(e)
        span.append(e)
        span.append((j @ e) / g_norm(g, j @ e))
        return True

    if not push(seed):
        raise ValueError("degenerate seed vector")
    canonical = iter(range(m))
    while len(holo) < n:
        for k in canonical:
            if push(np.eye(m)[k]):
                break
        else:
            raise ValueError("could not complete an adapted frame")
    frame = np.array(holo + [j @ e for e in holo])
    return frame


# -- (0,4)-tensor symmetries -------------------------------------------------


def _j_last_pair(t, j):
    return np.einsum("...ijmn,ma,nb->...ijab", t, j, j)


def _j_first_pair(t, j):
    return np.einsum("...mnab,mi,nj->...ijab", t, j, j)


@dataclass(frozen=True)
class SymmetryReport:
    violations: dict[str, float]
    tolerance: float

    @property
    def max_violation(self) -> float:
        return float(max(np.max(v) for v in self.violations.values()))

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def check_rs_symmetries(
    t: np.ndarray, j: np.ndarray, tol: float = 1e-9, scale: float | None = None
) -> SymmetryReport:
    """Check the algebraic symmetries shared by R.S and the Tachibana tensors.

    Slots are (u, v, x, y): symmetric in (u, v), antisymmetric in (x, y),
    invariant under J applied to either pair, J-skew within each pair.
    Violations are relative to the max-norm of the tensor unless a larger
    reference ``scale`` is supplied (needed when t itself is roundoff).
    For tensors stacked on leading point axes, ``scale`` and every
    violation hold one value per point.
    """
    t = np.asarray(t, float)
    norm = max_norm(t, 4)
    scale = norm if scale is None else np.maximum(scale, norm)
    violations = {
        "antisym_last_pair": rel_violation(t + np.swapaxes(t, -2, -1), scale, 4),
        "sym_first_pair": rel_violation(t - np.swapaxes(t, -4, -3), scale, 4),
        "j_pair_invariance": np.maximum(
            rel_violation(t - _j_last_pair(t, j), scale, 4),
            rel_violation(t - _j_first_pair(t, j), scale, 4),
        ),
        "j_skew_first_pair": rel_violation(
            np.einsum("...imab,mj->...ijab", t, j) + np.einsum("...mjab,mi->...ijab", t, j),
            scale, 4,
        ),
        "j_skew_last_pair": rel_violation(
            np.einsum("...ijam,mb->...ijab", t, j) + np.einsum("...ijmb,ma->...ijab", t, j),
            scale, 4,
        ),
    }
    return SymmetryReport(violations, tol)


def symmetrize_rs(t: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Group-average onto the symmetry class checked by check_rs_symmetries."""
    t = np.asarray(t, float)
    acc = np.zeros_like(t)
    count = 0
    for swap_first in (False, True):
        for flip_last in (False, True):
            for j_last in (False, True):
                for j_first in (False, True):
                    u = t
                    if swap_first:
                        u = np.swapaxes(u, 0, 1)
                    if flip_last:
                        u = -np.swapaxes(u, 2, 3)
                    if j_last:
                        u = _j_last_pair(u, j)
                    if j_first:
                        u = _j_first_pair(u, j)
                    acc += u
                    count += 1
    return acc / count


class ReconstructionError(ValueError):
    """Holomorphic evaluations were inconsistent with the symmetry class."""


def reconstruct_from_holomorphic(eval_uuxjx, j: np.ndarray, validate: bool = True,
                                 tol: float = 1e-6) -> np.ndarray:
    """Rebuild a symmetry-class tensor T from samples T(u, u, x, Jx).

    ``eval_uuxjx(u, x)`` must return T(u, u, x, Jx).  Polarisation runs in
    three steps: split the (u, u) slot, split the (x, Jx) slot, then trade
    the remaining J away using J^2 = -I.  Every value is a signed average
    of at most nine evaluations, so noise of size eps inflates the result
    by at most 9/4 * eps (stability constant well under 16).
    """
    j = np.asarray(j, float)
    m = j.shape[0]
    basis = np.eye(m)
    cache: dict[tuple, float] = {}

    def ev(u, x):
        key = (u.tobytes(), x.tobytes())
        if key not in cache:
            cache[key] = float(eval_uuxjx(u, x))
        return cache[key]

    def b(i, jdx, x):
        u, v = basis[i], basis[jdx]
        return 0.5 * (ev(u + v, x) - ev(u, x) - ev(v, x))

    t = np.empty((m, m, m, m))
    for a in range(m):
        xa = basis[a]
        for bdx in range(m):
            w = j @ basis[bdx]
            for i in range(m):
                for jdx in range(m):
                    t[i, jdx, a, bdx] = -0.5 * (
                        b(i, jdx, xa + w) - b(i, jdx, xa) - b(i, jdx, w)
                    )
    if validate:
        report = check_rs_symmetries(t, j, tol)
        if not report.passed:
            raise ReconstructionError(
                "holomorphic evaluations are inconsistent with the symmetry class "
                f"(max violation {report.max_violation:.3e})"
            )
    return t
