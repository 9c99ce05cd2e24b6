"""Independent oracles and numeric utilities shared by the test modules.

Everything here deliberately avoids the library's einsum pipelines: the
derivation tensors are assembled with explicit index loops, derivatives
come from central finite differences, and curvature of surfaces from the
conformal-factor formula.  Agreement between these and the package is the
point of the tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from kahlersym.metrics import metric_from_potential


# -- brute-force derivation tensors (explicit loops, no einsum) -----------------


def brute_r_dot_s(r13: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(R.S)(e_i,e_j; e_a,e_b) summed out longhand."""
    m = s.shape[0]
    out = np.zeros((m, m, m, m))
    for i in range(m):
        for j in range(m):
            for a in range(m):
                for b in range(m):
                    acc = 0.0
                    for d in range(m):
                        acc -= r13[d, a, b, i] * s[d, j]
                        acc -= r13[d, a, b, j] * s[i, d]
                    out[i, j, a, b] = acc
    return out


def brute_tachibana(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q(g,S) with the metric wedge (e_a wedge e_b) written out."""
    m = g.shape[0]
    out = np.zeros((m, m, m, m))
    for i in range(m):
        for j in range(m):
            for a in range(m):
                for b in range(m):
                    out[i, j, a, b] = -(
                        g[b, i] * s[a, j]
                        - g[a, i] * s[b, j]
                        + g[b, j] * s[i, a]
                        - g[a, j] * s[i, b]
                    )
    return out


def _wedge_matrix(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = g.shape[0]
    a = np.zeros((m, m))
    gy = g @ y
    gx = g @ x
    for d in range(m):
        for i in range(m):
            a[d, i] = gy[i] * x[d] - gx[i] * y[d]
    return a


def brute_complex_tachibana(g: np.ndarray, s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Qc(g,S) via the complex wedge acting on basis vectors, loop by loop."""
    m = g.shape[0]
    eye = np.eye(m)
    out = np.zeros((m, m, m, m))
    for a in range(m):
        ea = eye[a]
        for b in range(m):
            eb = eye[b]
            wedge = (
                _wedge_matrix(g, ea, eb)
                + _wedge_matrix(g, j @ ea, j @ eb)
                - 2.0 * float((j @ ea) @ g @ eb) * j
            )
            for i in range(m):
                for k in range(m):
                    acc = 0.0
                    for d in range(m):
                        acc -= wedge[d, i] * s[d, k]
                        acc -= wedge[d, k] * s[i, d]
                    out[i, k, a, b] = acc
    return out


# -- jet partials by an index-tuple walk -----------------------------------------


def partials_loop(jet, degree: int) -> np.ndarray:
    """All partial derivatives of one order, one index tuple at a time."""
    m = jet.space.nvars
    scaled = jet.coeffs * jet.space.factorial
    out = np.empty((m,) * degree)
    for idx in itertools.product(range(m), repeat=degree):
        alpha = [0] * m
        for i in idx:
            alpha[i] += 1
        out[idx] = scaled[jet.space.position[tuple(alpha)]]
    return out


# -- finite differences ----------------------------------------------------------


def central_difference(f, point, axis: int, h: float = 1e-5):
    """First derivative along a coordinate axis, O(h^2)."""
    p = np.asarray(point, dtype=float)
    step = np.zeros_like(p)
    step[axis] = h
    return (np.asarray(f(p + step)) - np.asarray(f(p - step))) / (2.0 * h)


def richardson_difference(f, point, axis: int, h: float = 1e-4):
    """First derivative with one Richardson sweep, O(h^4)."""
    coarse = central_difference(f, point, axis, h)
    fine = central_difference(f, point, axis, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def rel_err(a, b, floor: float = 1e-14) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b))) / scale


# -- polynomials as exponent dictionaries ----------------------------------------


def poly_eval(poly: dict, point) -> float:
    total = 0.0
    for exponents, coeff in poly.items():
        term = coeff
        for x, e in zip(point, exponents):
            term *= x**e
        total += term
    return total


def poly_diff(poly: dict, axis: int) -> dict:
    out: dict = {}
    for exponents, coeff in poly.items():
        e = exponents[axis]
        if e == 0:
            continue
        lowered = tuple(
            v - 1 if k == axis else v for k, v in enumerate(exponents)
        )
        out[lowered] = out.get(lowered, 0.0) + coeff * e
    return out


def poly_partial(poly: dict, alpha) -> dict:
    for axis, times in enumerate(alpha):
        for _ in range(times):
            poly = poly_diff(poly, axis)
    return poly


def random_poly(rng: np.random.Generator, nvars: int, degree: int) -> dict:
    """Sparse random polynomial with small nonzero integer coefficients."""
    poly: dict = {}
    for _ in range(int(rng.integers(3, 9))):
        exponents = tuple(int(e) for e in rng.multinomial(
            int(rng.integers(0, degree + 1)), np.full(nvars, 1.0 / nvars)
        ))
        coeff = float(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        poly[exponents] = poly.get(exponents, 0.0) + coeff
    poly = {e: c for e, c in poly.items() if c != 0.0}
    return poly or {(0,) * nvars: 1.0}


# -- conformal-surface curvature oracle ------------------------------------------


def gauss_curvature_conformal(potential, point, n: int = 1, h: float = 2e-3) -> float:
    """Gauss curvature of a conformal surface metric g = lam * I.

    Uses K = -laplace(log lam) / (2 lam) with the Laplacian taken by
    Richardson-extrapolated central differences of the computed conformal
    factor (fourth order overall), so the value is independent of the
    curvature pipeline and good to roughly 1e-9 relative.
    """
    if n != 1:
        raise ValueError("conformal oracle only applies to n = 1 surfaces")

    def lam(p):
        return metric_from_potential(potential, p, n, depth=0).g[0, 0]

    p = np.asarray(point, dtype=float)
    value = np.log(lam(p))

    def laplacian(step_size):
        acc = 0.0
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = step_size
            acc += (
                np.log(lam(p + step)) - 2.0 * value + np.log(lam(p - step))
            ) / step_size**2
        return acc

    coarse = laplacian(h)
    fine = laplacian(h / 2)
    return -(4.0 * fine - coarse) / 3.0 / (2.0 * lam(p))
