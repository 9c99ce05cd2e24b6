"""Jet arithmetic: exactness on polynomials, series primitives, domain errors."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    multi_index_entry,
    pair_tables_loop,
    partials_loop,
    poly_eval,
    poly_partial,
    random_poly,
)
from kahlersym.jets import (
    MAX_ORDER,
    JetDomainError,
    JetScalar,
    JetSpace,
    jet_exp,
    jet_log,
    jet_space,
    jet_sqrt,
)


def jet_of_poly(poly, space, point):
    vars_ = [JetScalar.variable(space, k, point[k]) for k in range(space.nvars)]
    acc = JetScalar.constant(space, 0.0)
    for exponents, coeff in poly.items():
        term = JetScalar.constant(space, coeff)
        for k, e in enumerate(exponents):
            for _ in range(e):
                term = term * vars_[k]
        acc = acc + term
    return acc


def test_space_monomial_count():
    # C(nvars + order, order) graded monomials
    space = jet_space(4, 5)
    assert space.size == math.comb(9, 5)
    assert space.monomials[0] == (0, 0, 0, 0)
    assert space.position[(0, 0, 0, 0)] == 0


def test_variable_and_constant_round_trip():
    space = jet_space(3, 4)
    x = JetScalar.variable(space, 0, 2.0)
    assert x.value == 2.0
    assert x.partials(1)[0] == 1.0
    assert x.partials(2)[0, 0] == 0.0
    c = JetScalar.constant(space, -7.5)
    assert c.value == -7.5
    assert c.partials(1)[2] == 0.0


def test_product_partials_match_leibniz():
    space = jet_space(2, 3)
    x = JetScalar.variable(space, 0, 1.5)
    y = JetScalar.variable(space, 1, -0.5)
    f = x * x * y  # f = x^2 y
    assert f.partials(0) == pytest.approx(1.5**2 * -0.5)
    assert f.partials(1)[0] == pytest.approx(2 * 1.5 * -0.5)
    assert f.partials(2)[0, 0] == pytest.approx(2 * -0.5)
    assert f.partials(2)[0, 1] == pytest.approx(2 * 1.5)
    assert f.partials(3)[0, 0, 1] == pytest.approx(2.0)
    assert f.partials(1)[1] == pytest.approx(1.5**2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), nvars=st.integers(1, 4))
def test_polynomial_jets_are_exact(seed, nvars):
    """Every partial of a degree-<=5 polynomial agrees with the dict oracle."""
    rng = np.random.default_rng(seed)
    poly = random_poly(rng, nvars, MAX_ORDER)
    point = rng.uniform(-1.5, 1.5, nvars)
    space = jet_space(nvars, MAX_ORDER)
    jet = jet_of_poly(poly, space, point)
    for alpha in space.monomials:
        expected = poly_eval(poly_partial(poly, alpha), point)
        got = jet.partials(sum(alpha))[multi_index_entry(alpha)]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_quotient_of_polynomials():
    space = jet_space(2, 5)
    x = JetScalar.variable(space, 0, 0.3)
    y = JetScalar.variable(space, 1, -0.2)
    f = (1.0 + x * y) / (2.0 + x)
    # check against directly computed values via finite differences of the
    # closed form at machine-tight tolerance on low orders
    def closed(p):
        return (1.0 + p[0] * p[1]) / (2.0 + p[0])

    h = 1e-5
    fd_x = (closed((0.3 + h, -0.2)) - closed((0.3 - h, -0.2))) / (2 * h)
    assert f.partials(1)[0] == pytest.approx(fd_x, rel=1e-8)
    assert f.value == pytest.approx(closed((0.3, -0.2)), rel=1e-14)


def test_negative_and_float_integer_powers():
    space = jet_space(1, 5)
    x = JetScalar.variable(space, 0, 2.0)
    inv = x ** (-2)
    assert inv.value == pytest.approx(0.25)
    assert inv.partials(1)[0] == pytest.approx(-2.0 / 2.0**3)
    alt = x ** 2.0  # float but integral is accepted
    assert alt.partials(2)[0, 0] == pytest.approx(2.0)
    with pytest.raises(TypeError):
        x ** 0.5


@pytest.mark.parametrize("order", [1, 3, 5])
def test_log_exp_inverse_composition(order):
    space = jet_space(2, order)
    x = JetScalar.variable(space, 0, 0.4)
    y = JetScalar.variable(space, 1, 0.1)
    f = 1.0 + x * x + y
    back = jet_exp(jet_log(f))
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=0, atol=1e-13)


def test_sqrt_squares_back():
    space = jet_space(2, 5)
    x = JetScalar.variable(space, 0, 0.7)
    y = JetScalar.variable(space, 1, -0.3)
    f = 2.0 + x + x * y
    r = jet_sqrt(f)
    np.testing.assert_allclose((r * r).coeffs, f.coeffs, rtol=0, atol=1e-13)


def test_log_derivatives_match_closed_form():
    # d^k/dt^k log(1 + t) at t = a is (-1)^(k+1) (k-1)! / (1+a)^k
    space = jet_space(1, 5)
    a = 0.6
    t = JetScalar.variable(space, 0, a)
    f = jet_log(1.0 + t)
    for k in range(1, 6):
        expected = (-1.0) ** (k + 1) * math.factorial(k - 1) / (1 + a) ** k
        assert f.partials(k)[(0,) * k] == pytest.approx(expected, rel=1e-13)


def test_domain_errors():
    space = jet_space(1, 3)
    x = JetScalar.variable(space, 0, 0.0)
    with pytest.raises(JetDomainError):
        jet_log(x)  # log(0)
    with pytest.raises(JetDomainError):
        jet_sqrt(x - 1.0)
    with pytest.raises(JetDomainError):
        x.reciprocal()
    with pytest.raises(JetDomainError):
        (1.0 + x) / 0.0


def test_mixed_space_rejected():
    a = JetScalar.variable(jet_space(2, 3), 0, 1.0)
    b = JetScalar.variable(jet_space(2, 2), 0, 1.0)
    with pytest.raises(ValueError):
        a + b


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        jet_space(2, MAX_ORDER + 1)
    with pytest.raises(ValueError):
        jet_space(0, 2)


def test_partials_symmetric_tensor():
    space = jet_space(3, 3)
    x = JetScalar.variable(space, 0, 0.2)
    y = JetScalar.variable(space, 1, 0.5)
    z = JetScalar.variable(space, 2, -0.1)
    f = x * y * z + x * x * y
    h = f.partials(2)
    assert h.shape == (3, 3)
    np.testing.assert_allclose(h, h.T, atol=0)
    third = f.partials(3)
    for perm in itertools.permutations(range(3)):
        np.testing.assert_allclose(third, np.transpose(third, perm), atol=0)
    assert third[0, 1, 2] == pytest.approx(1.0)


@pytest.mark.parametrize("nvars", range(1, 9))
def test_partials_gather_matches_index_walk(nvars):
    rng = np.random.default_rng(nvars)
    space = jet_space(nvars, MAX_ORDER)
    jet = JetScalar(space, rng.standard_normal(space.size))
    for degree in range(MAX_ORDER + 1):
        fast = jet.partials(degree)
        slow = partials_loop(jet, degree)
        assert np.shape(fast) == slow.shape
        assert np.array_equal(fast, slow), degree


def test_exp_overflow_is_a_domain_error():
    space = jet_space(2, 3)
    with pytest.raises(JetDomainError, match="exp of 7200.0 overflows"):
        jet_exp(JetScalar.constant(space, 7200.0))


@pytest.mark.parametrize("nvars", range(1, 9))
def test_pair_tables_match_the_pair_loop(nvars):
    for order in range(MAX_ORDER + 1):
        space = JetSpace(nvars, order)
        left, right, out = pair_tables_loop(space)
        pairs = len(left)
        assert np.array_equal(space._left[:pairs], left), order
        assert np.array_equal(space._right[:pairs], right), order
        assert np.array_equal(space._out[:pairs], out), order


def test_multiply_over_points_matches_one_point_at_a_time():
    # 70 points of (4, 5) products span three chunks of 25, the last partial;
    # zeros of both signs check that signs of zero survive too.
    space = jet_space(4, 5)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((70, space.size))
    b = rng.standard_normal((70, space.size))
    a[::3, 1::4] = -0.0
    b[1::3, 2::5] = 0.0
    stacked = space.multiply(a, b)
    # The one-point product sums in pair-table order, as np.add.at does.
    left, right, out = pair_tables_loop(space)
    singles = np.zeros((70, space.size))
    for p in range(70):
        np.add.at(singles[p], out, a[p][left] * b[p][right])
        assert np.array_equal(space.multiply(a[p], b[p]), singles[p])
    assert np.array_equal(stacked, singles)
    assert np.array_equal(np.signbit(stacked), np.signbit(singles))
    assert np.array_equal(space.multiply(a[0], b), space.multiply(np.tile(a[0], (70, 1)), b))


@pytest.mark.parametrize("primitive, value", [
    (jet_log, 1e-100),
    (jet_log, 1e100),
    (JetScalar.reciprocal, 1e-100),
    (JetScalar.reciprocal, 1e100),
])
def test_series_outside_the_float_range_is_a_domain_error(primitive, value):
    space = jet_space(2, 5)
    point = JetScalar.variable(space, 0, [0.5, value])
    with pytest.raises(JetDomainError, match=re.escape(f"of {value!r} has Taylor")):
        primitive(point)
