"""Independent oracles and numeric utilities shared by the test modules.

Everything here deliberately avoids the library's kernels: the derivation
tensors are assembled with explicit index loops or, for Q(g,S), by its
definition over the whole metric-wedge family, S and dS also come from
the Ricci potential log det g, derivatives come from central finite
differences, curvature of surfaces from the conformal-factor formula,
and the batched-matmul contractions have their einsum forms kept
here as references, as do the matrix products with J that the identity
suite's half-swap gathers are checked against.  The oracles of the
holomorphic-plane characterizations live here too, outside the package
they check: sectional and holomorphic sectional curvature, the
polarisation that rebuilds an R.S-class tensor from its (u,u;x,Jx)
values, a plain-float evaluator of a parsed potential, and the
univariate series of log, exp, sqrt and 1/x built one point at a time
in Python floats.  Agreement between these and the package is the point
of the tests.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from kahlersym.classifier import (
    DEPENDENCE_THRESHOLD,
    SamplePlan,
    direction_samples,
    gather_evidence,
)
from kahlersym.curvature import _first_kind, christoffel, curvature_bundle
from kahlersym.expressions import Call, Coord, Neg, Num, PotentialDomainError, Pow
from kahlersym.jets import JetDomainError
from kahlersym.metrics import MetricJet, metric_from_potential
from kahlersym.symmetry_tensors import quad_eval
from kahlersym.tensor_algebra import (
    ABS_FLOOR,
    check_rs_symmetries,
    max_norm,
    standard_complex_structure,
)


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


def wedge_family(g: np.ndarray) -> np.ndarray:
    """The metric wedges as one endomorphism family w[d,c,x,y]:
    (e_x wedge_g e_y) u = g(e_y, u) e_x - g(e_x, u) e_y."""
    eye = np.eye(g.shape[-1])
    wedge = np.einsum("...bc,da->...dcab", g, eye)
    wedge -= np.einsum("...ac,db->...dcab", g, eye)
    return wedge


def wedge_tachibana(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q(g,S) by its definition, -S(A u, v) - S(u, A v) for A = x wedge_g y,
    over the whole wedge family (stacked inputs too)."""
    g = np.asarray(g, float)
    return endo_family_dot_bilinear_einsum(wedge_family(g), np.asarray(s, float))


def wedge_g_matrix(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Endomorphism z -> g(y,z) x - g(x,z) y as a matrix, entry by entry."""
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
                wedge_g_matrix(g, ea, eb)
                + wedge_g_matrix(g, j @ ea, j @ eb)
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


# -- J on a slot pair by matrix products ----------------------------------------


def j_last_pair(t, j):
    """J^T t J on the last two axes of t."""
    return j.T @ t @ j


def j_skew_last_pair(t, j):
    """t J + J^T t on the last two axes of t."""
    return t @ j + j.T @ t


def on_first_pair(op, t, j):
    """``op`` applied to the first slot pair of a (0,4)-tensor instead of the last."""
    lead = tuple(range(t.ndim - 4))
    swap = lead + tuple(len(lead) + k for k in (2, 3, 0, 1))
    return np.transpose(op(np.transpose(t, swap), j), swap)


def j_first_pair(t, j):
    return on_first_pair(j_last_pair, t, j)


def rel_violation_oracle(diff, scale, rank: int):
    """Max-norm of the trailing ``rank`` axes of diff over the floored scale."""
    axes = tuple(range(diff.ndim - rank, diff.ndim))
    return np.max(np.abs(diff), axis=axes, initial=0.0) / np.maximum(scale, ABS_FLOOR)


def rs_symmetries_matmul(t, j, scale) -> dict:
    """check_rs_symmetries with J applied by matrix products."""
    return {
        "antisym_last_pair": rel_violation_oracle(t + np.swapaxes(t, -2, -1), scale, 4),
        "sym_first_pair": rel_violation_oracle(t - np.swapaxes(t, -4, -3), scale, 4),
        "j_pair_invariance": np.maximum(
            rel_violation_oracle(t - j_last_pair(t, j), scale, 4),
            rel_violation_oracle(t - j_first_pair(t, j), scale, 4),
        ),
    }


def j_rotated_symmetric_einsum(t, j, scale, rank: int):
    """Max-norm of the symmetric part of c = t(., J.) on the first slot pair of
    a rank-``rank`` tensor (the last pair when rank is 2), by einsum."""
    if rank == 2:
        c = np.einsum("...im,mk->...ik", t, j)
        return rel_violation_oracle(0.5 * (c + np.einsum("...ki->...ik", c)), scale, 2)
    c = np.einsum("...imab,mk->...ikab", t, j)
    return rel_violation_oracle(0.5 * (c + np.einsum("...kiab->...ikab", c)), scale, 4)


def _rotated_form_differential_matmul(j, db):
    """d of the 2-form w_ab = B(J d_a, d_b) from the derivatives db[c,a,b] of
    B, with J applied by a product: (dw)_cab = d_c w_ab - d_a w_cb + d_b w_ca."""
    dw = j.T @ db  # dw[c,a,b] = d_c w_ab
    return dw - np.einsum("...cab->...acb", dw) + np.einsum("...cab->...abc", dw)


def kahler_checks_matmul(metric, gamma, dricci=None, scale_s=None) -> dict:
    """The Kahler conditions that hold by construction, with J applied by
    products: d of the Kahler form w_ab = g(J d_a, d_b) over max(|dg|, |g|),
    and nabla J, whose a-th slice is the commutator of Gamma_a = Gamma^._a.
    with J, over |Gamma|.  Given the derivative ``dricci`` of S and the Ricci
    scale ``scale_s`` (the scale "S"), also d of the Ricci form
    rho_ab = S(J d_a, d_b), over max(|dS|, m |Gamma| scale_s)."""
    j = metric.J
    gamma_a = np.moveaxis(gamma, -2, -3)
    out = {
        "kahler_form_closed": rel_violation_oracle(
            _rotated_form_differential_matmul(j, metric.dg),
            np.maximum(max_norm(metric.dg, 3), max_norm(metric.g, 2)), 3),
        "kahler_j_parallel": rel_violation_oracle(
            gamma_a @ j - j @ gamma_a, max_norm(gamma, 3), 3),
    }
    if dricci is not None:
        scale = np.maximum(max_norm(dricci, 3), j.shape[0] * max_norm(gamma, 3) * scale_s)
        out["ricci_form_closed"] = rel_violation_oracle(
            _rotated_form_differential_matmul(j, dricci), scale, 3)
    return out


def identity_j_checks_matmul(d, potential) -> dict:
    """The identity-suite checks that apply J, with J applied by products;
    d(gamma) comes from the depth-3 jet of ``potential`` at the same points."""
    b = d.bundle
    s, j, r04 = b.ricci, b.metric.J, b.r04
    m = j.shape[0]
    _, dgamma = christoffel(metric_from_potential(potential, b.metric.point, b.metric.n))
    scale_r = np.maximum(
        np.maximum(max_norm(r04, 4), max_norm(b.metric.g, 2)
                   * (max_norm(dgamma, 4)
                      + m * max_norm(b.gamma, 3) ** 2)),
        ABS_FLOOR,
    )
    out = {
        "ricci_j_invariant": rel_violation_oracle(j.T @ s @ j - s, d.scales["S"], 2),
        "qc_j_pair_invariance": rel_violation_oracle(d.qc - j_first_pair(d.qc, j),
                                                     d.scales["Qc"], 4),
        "kahler_j_invariance": rel_violation_oracle(j_first_pair(r04, j) - r04, scale_r, 4),
    }
    for key, value in rs_symmetries_matmul(d.rs, j, d.scales["R.S"]).items():
        out[f"rs_{key}"] = value
    return out


def symmetrize_rs(t: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Group-average onto the symmetry class checked by check_rs_symmetries
    (builds random test tensors of that class)."""
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
                        u = j_last_pair(u, j)
                    if j_first:
                        u = j_first_pair(u, j)
                    acc += u
                    count += 1
    return acc / count


def hand_metric(point, n: int, g, dg, ddg=None, t=None) -> MetricJet:
    """A MetricJet of hand-built parts, carrying G = g^-1 formed as
    metric_from_potential forms it."""
    g = np.asarray(g, float)
    return MetricJet(np.asarray(point, float), n, g, np.linalg.inv(g), dg, ddg, t,
                     standard_complex_structure(n))


def evidence_at(potential, points, n: int, **changes):
    """The evidence of the potential's metric at a stack of points, with
    two directions and two planes per point.  Each change replaces the
    field of its name of the curvature bundle (``gamma``, ...) or of its
    metric jet (``dg``, ``g``, ...) before the evidence, its R.S, Q, Qc
    and scale table included, is gathered."""
    def changed(part):
        return dataclasses.replace(part, **{k: v for k, v in changes.items() if hasattr(part, k)})

    b = curvature_bundle(metric_from_potential(potential, points, n))
    b = changed(dataclasses.replace(b, metric=changed(b.metric)))
    return gather_evidence(b, SamplePlan(points=len(points), directions=2, planes=2))


# -- partials and their Hermitian pairing, array by array ------------------------


def partials(jet, degree: int) -> np.ndarray:
    """All partial derivatives of one order, as a dense symmetric array
    (..., nvars, ..., nvars) after the point axes."""
    if not 0 <= degree <= jet.space.order:
        raise ValueError(f"degree {degree} not available at truncation order {jet.space.order}")
    if degree == 0:
        return jet.coeffs[..., 0][()]
    scaled = jet.coeffs * jet.space.factorial
    return scaled.take(jet.space.partials_table(degree), axis=-1)


def pair_second_partials(h: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian pairing of the trailing two axes of ``h`` by blocks:
    [[A, B], [-B, A]] with A = (xx + yy) / 4 and B = (xy - xy^T) / 4."""
    xx = h[..., :n, :n]
    yy = h[..., n:, n:]
    xy = h[..., :n, n:]
    a = 0.25 * (xx + yy)
    b = 0.25 * (xy - np.swapaxes(xy, -1, -2))
    top = np.concatenate([a, b], axis=-1)
    bottom = np.concatenate([-b, a], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def dddg_oracle(jet, n: int) -> np.ndarray:
    """d^3 g as the dense (..., 2n, 2n, 2n, 2n, 2n) tensor d_e d_f d_h g_xy:
    the block pairing of the fifth partials of an order-5 potential jet."""
    return pair_second_partials(partials(jet, 5), n)


# -- jet tables by explicit loops ------------------------------------------------


def monomials_loop(nvars: int, degree: int):
    """The exponent tuples of one total degree in descending lexicographic
    order, by recursion on the leading exponent."""
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in monomials_loop(nvars - 1, degree - head):
            yield (head,) + tail


@functools.lru_cache(maxsize=None)
def _monomial_order(nvars: int, order: int):
    monomials = tuple(mono for degree in range(order + 1)
                      for mono in monomials_loop(nvars, degree))
    return monomials, {mono: i for i, mono in enumerate(monomials)}


def monomials_of(space) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of a jet space in its monomial order: by degree,
    then descending lexicographic (test_jet_space_tables_match_tuple_loops
    pins JetSpace to this order)."""
    return _monomial_order(space.nvars, space.order)[0]


def position_of(space) -> dict[tuple[int, ...], int]:
    """Exponent tuple -> its position in the monomial order of a jet space."""
    return _monomial_order(space.nvars, space.order)[1]


def counted(space, indices) -> int:
    """Position of the monomial that counts the variable indices given."""
    alpha = [0] * space.nvars
    for i in indices:
        alpha[i] += 1
    return position_of(space)[tuple(alpha)]


def partials_table_loop(space, degree: int) -> np.ndarray:
    """JetSpace.partials_table, one index tuple at a time."""
    out = np.empty((space.nvars,) * degree, dtype=np.intp)
    for idx in itertools.product(range(space.nvars), repeat=degree):
        out[idx] = counted(space, idx)
    return out


def partials_loop(jet, degree: int) -> np.ndarray:
    """All partial derivatives of one order, one index tuple at a time."""
    scaled = jet.coeffs * jet.space.factorial
    return scaled[partials_table_loop(jet.space, degree)]


def trace_table_loop(space):
    """metrics._trace_table of an order-5 space, one slot triple and one
    permutation of it at a time."""
    m = space.nvars
    triples = list(itertools.combinations_with_replacement(range(m), 3))
    table = np.empty((len(triples), m, m), dtype=np.intp)
    expand = np.empty((m,) * 3, dtype=np.intp)
    for k, triple in enumerate(triples):
        for permuted in itertools.permutations(triple):
            expand[permuted] = k
        for x, y in itertools.product(range(m), repeat=2):
            table[k, x, y] = counted(space, triple + (x, y))
    return table, expand


def multi_index_entry(alpha) -> tuple[int, ...]:
    """Index of the partial d^alpha in the array ``partials(sum(alpha))``."""
    return tuple(i for i, k in enumerate(alpha) for _ in range(k))


def pair_tables_loop(space, degree: int | None = None):
    """(left, right, out) of the truncated product, one monomial pair at a
    time: every (i, j) with deg a_i + deg a_j <= ``degree`` (default: the
    order), in row-major order, and the position of a_i + a_j."""
    degree = space.order if degree is None else degree
    left, right, out = [], [], []
    monomials, position = monomials_of(space), position_of(space)
    for i, a in enumerate(monomials):
        da = sum(a)
        for j, b in enumerate(monomials):
            if da + sum(b) > degree:
                continue
            left.append(i)
            right.append(j)
            out.append(position[tuple(p + q for p, q in zip(a, b))])
    return np.array(left), np.array(right), np.array(out)


def support_bits(space, coeffs) -> int:
    """The data support of a coefficient stack: bit i set where coefficient
    i is nonzero (or not finite) at some point."""
    nonzero = (np.asarray(coeffs).reshape(-1, space.size) != 0).any(axis=0)
    return sum(1 << int(i) for i in np.flatnonzero(nonzero))


# -- univariate series one point at a time, in Python floats ---------------------


def series_loop(name: str, order: int, c0: float) -> list[float]:
    """Taylor coefficients of log, exp, sqrt or the reciprocal about c0, as
    Python floats with Python's float operators, one point at a time.
    Raises JetDomainError as the jets do, naming c0."""
    try:
        if name == "log":
            if c0 <= 0.0:
                raise JetDomainError(f"log of non-positive value {c0!r}")
            return [math.log(c0)] + [(-1.0) ** (k + 1) / (k * c0**k)
                                     for k in range(1, order + 1)]
        if name == "exp":
            try:
                e0 = math.exp(c0)
            except OverflowError:
                raise JetDomainError(f"exp of {c0!r} overflows a float") from None
            return [e0 / math.factorial(k) for k in range(order + 1)]
        if name == "sqrt":
            if c0 <= 0.0:
                raise JetDomainError(f"sqrt of non-positive value {c0!r}")
            coeffs = [math.sqrt(c0)]
            for k in range(1, order + 1):
                coeffs.append(coeffs[-1] * (1.5 - k) / (k * c0))
            return coeffs
        if c0 == 0.0:
            raise JetDomainError(f"division by zero value {c0!r}")
        return [(-1.0) ** k / c0 ** (k + 1) for k in range(order + 1)]
    except (ZeroDivisionError, OverflowError):
        raise JetDomainError(
            f"{name} of {c0!r} has Taylor coefficients outside the float range"
        ) from None


# -- parallel transport one RK4 stage point at a time ----------------------------


def parallel_transport_stagewise(potential, n: int, path, v0, steps: int = 32):
    """RK4 transport along a polyline, expanding one metric jet per stage point."""
    waypoints = [np.asarray(p, float) for p in path]
    v = np.asarray(v0, float).copy()

    def vel_matrix(x, dx):
        g = metric_from_potential(potential, x, n, depth=1)
        return -np.einsum("cab,a->cb", christoffel(g)[0], dx)

    h = 1.0 / steps
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        dx = q - p
        for k in range(steps):
            t0 = k * h
            a0 = vel_matrix(p + t0 * dx, dx)
            am = vel_matrix(p + (t0 + 0.5 * h) * dx, dx)
            a1 = vel_matrix(p + (t0 + h) * dx, dx)
            k1 = a0 @ v
            k2 = am @ (v + 0.5 * h * k1)
            k3 = am @ (v + 0.5 * h * k2)
            k4 = a1 @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


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


# -- sample contractions index by index ------------------------------------------


def plane_values_loop(t, u_rows, x_rows, j) -> np.ndarray:
    """t(u_p,u_p;x_q,Jx_q) for every direction p and plane seed q."""
    m = j.shape[0]
    out = np.zeros((len(u_rows), len(x_rows)))
    for p, u in enumerate(u_rows):
        for q, x in enumerate(x_rows):
            jx = [sum(j[b, c] * x[c] for c in range(m)) for b in range(m)]
            for i, k, a, b in itertools.product(range(m), repeat=4):
                out[p, q] += t[i, k, a, b] * u[i] * u[k] * x[a] * jx[b]
    return out


def parallel_values_loop(nabla_s, u_rows, x_rows, j) -> np.ndarray:
    """(nabla_{x_q+Jx_q} S)(u_p,u_p) for every plane seed q and direction p."""
    m = j.shape[0]
    out = np.zeros((len(x_rows), len(u_rows)))
    for q, x in enumerate(x_rows):
        xj = [x[c] + sum(j[c, e] * x[e] for e in range(m)) for c in range(m)]
        for p, u in enumerate(u_rows):
            for c, a, b in itertools.product(range(m), repeat=3):
                out[q, p] += nabla_s[c, a, b] * xj[c] * u[a] * u[b]
    return out


# -- einsum forms of the batched-matmul kernels ----------------------------------


def christoffel_einsum(m: MetricJet, dddg: np.ndarray):
    """(gamma, dgamma, ddgamma) of a depth-2 jet and its third derivative
    ``dddg`` (see ``dddg_oracle``): g . gamma = gamma_1 and its two
    derivatives, one einsum per contraction."""
    ginv = np.linalg.inv(m.g)
    gamma = np.einsum("...cd,...dab->...cab", ginv, _first_kind(m.dg))
    t = _first_kind(m.ddg) - np.einsum("...edm,...mab->...edab", m.dg, gamma)
    dgamma = np.einsum("...cd,...edab->...ecab", ginv, t)
    dg_dgamma = np.einsum("...edm,...fmab->...fedab", m.dg, dgamma)
    t = (_first_kind(dddg)
         - np.einsum("...fedm,...mab->...fedab", m.ddg, gamma)
         - dg_dgamma - np.swapaxes(dg_dgamma, -5, -4))
    ddgamma = np.einsum("...cd,...fedab->...fecab", ginv, t)
    return gamma, dgamma, ddgamma


def riemann_einsum(g, gamma, dgamma):
    """(r13, r04) with both Gamma.Gamma products and the lowering by einsum."""
    r13 = (
        np.einsum("...adbc->...dabc", dgamma)
        - np.einsum("...bdac->...dabc", dgamma)
        + np.einsum("...dam,...mbc->...dabc", gamma, gamma)
        - np.einsum("...dbm,...mac->...dabc", gamma, gamma)
    )
    return r13, np.einsum("...mabc,...md->...abcd", r13, g)


def dricci_einsum(gamma, dgamma, ddgamma):
    """d_e S_bc, the trace over d = a of d_e r13[d,a,b,c], term by term."""
    return (
        np.einsum("...eaabc->...ebc", ddgamma)
        - np.einsum("...ebaac->...ebc", ddgamma)
        + np.einsum("...eaam,...mbc->...ebc", dgamma, gamma)
        + np.einsum("...aam,...embc->...ebc", gamma, dgamma)
        - np.einsum("...eabm,...mac->...ebc", dgamma, gamma)
        - np.einsum("...abm,...emac->...ebc", gamma, dgamma)
    )


def ricci_from_log_det(m: MetricJet):
    """(S, dS) of a depth-3 jet from the Ricci potential Phi = log det g,
    with no Christoffel symbol or Riemann tensor: S = -pairing(d^2 Phi) and
    dS = -pairing(d^3 Phi).  With D_a = G d_a g and D_ab = G d_a d_b g,

        d_ab Phi  = tr D_ab - tr(D_a D_b),
        d_eab Phi = t/2 - tr(D_e D_ab) - tr(D_ea D_b) - tr(D_a D_eb)
                    + tr(D_e D_a D_b) + tr(D_a D_e D_b),

    where tr(G d_e d_a d_b g) = t/2 because G is J-invariant."""
    one = np.einsum("...xy,...ayz->...axz", m.G, m.dg)
    two = np.einsum("...xy,...abyz->...abxz", m.G, m.ddg)
    d2 = np.einsum("...abxx->...ab", two) - np.einsum("...axy,...byx->...ab", one, one)
    d3 = (m.t / 2
          - np.einsum("...exy,...abyx->...eab", one, two)
          - np.einsum("...bxy,...eayx->...eab", one, two)
          - np.einsum("...axy,...ebyx->...eab", one, two)
          + np.einsum("...exy,...ayz,...bzx->...eab", one, one, one)
          + np.einsum("...axy,...eyz,...bzx->...eab", one, one, one))
    return -pair_second_partials(d2, m.n), -pair_second_partials(d3, m.n)


def endo_family_dot_bilinear_einsum(a, s):
    """-S(A u, v) - S(u, A v) for the family a[d,c,x,y], by einsum."""
    return (-np.einsum("...miab,...mj->...ijab", a, s)
            - np.einsum("...mjab,...im->...ijab", a, s))


def j_skew_einsum(t, j):
    """t(J., .) + t(., J.) on the first slot pair and on the last, by einsum."""
    first = np.einsum("...imab,mj->...ijab", t, j) + np.einsum("...mjab,mi->...ijab", t, j)
    last = np.einsum("...ijam,mb->...ijab", t, j) + np.einsum("...ijmb,ma->...ijab", t, j)
    return first, last


# -- the Deszcz fit one point at a time ------------------------------------------


def deszcz_fit_loop(data, plan):
    """(spread, residual, f_hats) of the holo_ricci_pseudosymmetric rung,
    fitting f_S = R.S / Qc(g,S) one point at a time.  Sample k pairs
    direction v_k = k mod (directions) with plane seed x_k; R.S and Qc are
    evaluated on (v_k, v_k; x_k, Jx_k) one sample at a time by quad_eval."""
    j = data.bundle.metric.J
    m = j.shape[0]
    scale = data.scales["R.S"]
    vacuous = max_norm(data.rs, 4) / scale
    spread = vacuous.copy()
    residual = vacuous.copy()
    f_hats = [None] * len(vacuous)
    for p in range(len(vacuous)):
        dirs = direction_samples(plan, p, m)
        pairs = [(dirs[k % plan.directions], x) for k, x in enumerate(data.planes[p])]
        nums = np.array([quad_eval(data.rs[p], v, v, x, j @ x) for v, x in pairs])
        dens = np.array([quad_eval(data.qc[p], v, v, x, j @ x) for v, x in pairs])
        defined = np.abs(dens) > DEPENDENCE_THRESHOLD * data.scales["Qc"][p]
        if not defined.any():
            continue
        num_d, den_d = nums[defined], dens[defined]
        e = np.frexp(np.max(np.abs(den_d)))[1]
        num_e, den_e = np.ldexp(num_d, -e), np.ldexp(den_d, -e)
        f_hats[p] = float(np.dot(num_e, den_e) / np.dot(den_e, den_e))
        spread[p] = float(np.max(np.abs(num_d - f_hats[p] * den_d))) / scale[p]
        residual[p] = max_norm(data.rs[p] - f_hats[p] * data.qc[p]) / scale[p]
    return spread, residual, f_hats


# -- holomorphic-plane oracles -----------------------------------------------------


class DegeneratePlane(ValueError):
    """The two vectors do not span a 2-plane."""


def sectional(r04: np.ndarray, g: np.ndarray, x, y) -> float:
    """Sectional curvature of span{x, y}."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    num = float(np.einsum("abcd,a,b,c,d->", r04, x, y, y, x))
    gxx = float(x @ g @ x)
    gyy = float(y @ g @ y)
    gxy = float(x @ g @ y)
    den = gxx * gyy - gxy * gxy
    if abs(den) <= 1e-12 * max(gxx * gyy, 1e-14):
        raise DegeneratePlane("vectors do not span a plane")
    return num / den


def holomorphic_sectional(r04: np.ndarray, g: np.ndarray, j: np.ndarray, x) -> float:
    return sectional(r04, g, x, np.asarray(j, float) @ np.asarray(x, float))


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
        violations = check_rs_symmetries(t, max_norm(t, 4))
        worst = max(float(np.max(v)) for v in violations.values())
        if worst > tol:
            raise ReconstructionError(
                "holomorphic evaluations are inconsistent with the symmetry class "
                f"(max violation {worst:.3e})"
            )
    return t


# -- plain-float evaluation of a potential ---------------------------------------


def eval_scalar(e, point) -> float:
    """Evaluate a parsed potential at a chart point (length 2n, x-block then
    y-block) in plain floats, the reference for the value of eval_jet."""
    point = np.asarray(point, dtype=float)
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Coord):
        n = point.shape[0] // 2
        return float(point[e.k - 1 if e.axis == "x" else n + e.k - 1])
    if isinstance(e, Neg):
        return -eval_scalar(e.arg, point)
    if isinstance(e, Pow):
        base = eval_scalar(e.base, point)
        if e.exponent < 0 and base == 0.0:
            raise PotentialDomainError(f"division by zero value {base!r}", e)
        return base**e.exponent
    if isinstance(e, Call):
        v = eval_scalar(e.arg, point)
        if e.fn == "log":
            if v <= 0.0:
                raise PotentialDomainError(f"log of non-positive value {v!r}", e.arg)
            return np.log(v)
        if e.fn == "exp":
            return np.exp(v)
        if v <= 0.0:
            raise PotentialDomainError(f"sqrt of non-positive value {v!r}", e.arg)
        return np.sqrt(v)
    lhs = eval_scalar(e.lhs, point)
    rhs = eval_scalar(e.rhs, point)
    if e.op == "+":
        return lhs + rhs
    if e.op == "-":
        return lhs - rhs
    if e.op == "*":
        return lhs * rhs
    if rhs == 0.0:
        raise PotentialDomainError(f"division by zero value {rhs!r}", e.rhs)
    return lhs / rhs
