"""Jet arithmetic: exactness on polynomials, series primitives, domain errors."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    monomials_loop,
    monomials_of,
    multi_index_entry,
    pair_tables_loop,
    partials,
    partials_loop,
    partials_table_loop,
    poly_eval,
    poly_partial,
    position_of,
    random_poly,
    series_loop,
    support_bits,
)
from kahlersym.expressions import eval_jet, parse
from kahlersym import jets
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
from kahlersym.zoo import zoo


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


def const(space, value):
    """The constant ``value`` as a jet of ``space``: jets combine only with jets."""
    return JetScalar.constant(space, value)


def test_space_monomial_count():
    # C(nvars + order, order) graded monomials
    space = jet_space(4, 5)
    assert space.size == math.comb(9, 5)
    assert space._exponents[0].tolist() == [0, 0, 0, 0]


def test_variable_and_constant_round_trip():
    space = jet_space(3, 4)
    x = JetScalar.variable(space, 0, 2.0)
    assert x.value == 2.0
    assert partials(x, 1)[0] == 1.0
    assert partials(x, 2)[0, 0] == 0.0
    c = JetScalar.constant(space, -7.5)
    assert c.value == -7.5
    assert partials(c, 1)[2] == 0.0


def test_product_partials_match_leibniz():
    space = jet_space(2, 3)
    x = JetScalar.variable(space, 0, 1.5)
    y = JetScalar.variable(space, 1, -0.5)
    f = x * x * y  # f = x^2 y
    assert partials(f, 0) == pytest.approx(1.5**2 * -0.5)
    assert partials(f, 1)[0] == pytest.approx(2 * 1.5 * -0.5)
    assert partials(f, 2)[0, 0] == pytest.approx(2 * -0.5)
    assert partials(f, 2)[0, 1] == pytest.approx(2 * 1.5)
    assert partials(f, 3)[0, 0, 1] == pytest.approx(2.0)
    assert partials(f, 1)[1] == pytest.approx(1.5**2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), nvars=st.integers(1, 4))
def test_polynomial_jets_are_exact(seed, nvars):
    """Every partial of a degree-<=5 polynomial agrees with the dict oracle."""
    rng = np.random.default_rng(seed)
    poly = random_poly(rng, nvars, MAX_ORDER)
    point = rng.uniform(-1.5, 1.5, nvars)
    space = jet_space(nvars, MAX_ORDER)
    jet = jet_of_poly(poly, space, point)
    for alpha in monomials_of(space):
        expected = poly_eval(poly_partial(poly, alpha), point)
        got = partials(jet, sum(alpha))[multi_index_entry(alpha)]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_quotient_of_polynomials():
    space = jet_space(2, 5)
    x = JetScalar.variable(space, 0, 0.3)
    y = JetScalar.variable(space, 1, -0.2)
    f = (const(space, 1.0) + x * y) / (const(space, 2.0) + x)
    # check against directly computed values via finite differences of the
    # closed form at machine-tight tolerance on low orders
    def closed(p):
        return (1.0 + p[0] * p[1]) / (2.0 + p[0])

    h = 1e-5
    fd_x = (closed((0.3 + h, -0.2)) - closed((0.3 - h, -0.2))) / (2 * h)
    assert partials(f, 1)[0] == pytest.approx(fd_x, rel=1e-8)
    assert f.value == pytest.approx(closed((0.3, -0.2)), rel=1e-14)


def test_negative_and_float_integer_powers():
    space = jet_space(1, 5)
    x = JetScalar.variable(space, 0, 2.0)
    inv = x ** (-2)
    assert inv.value == pytest.approx(0.25)
    assert partials(inv, 1)[0] == pytest.approx(-2.0 / 2.0**3)
    alt = x ** 2.0  # float but integral is accepted
    assert partials(alt, 2)[0, 0] == pytest.approx(2.0)
    with pytest.raises(TypeError):
        x ** 0.5


@pytest.mark.parametrize("order", [1, 3, 5])
def test_log_exp_inverse_composition(order):
    space = jet_space(2, order)
    x = JetScalar.variable(space, 0, 0.4)
    y = JetScalar.variable(space, 1, 0.1)
    f = const(space, 1.0) + x * x + y
    back = jet_exp(jet_log(f))
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=0, atol=1e-13)


def test_sqrt_squares_back():
    space = jet_space(2, 5)
    x = JetScalar.variable(space, 0, 0.7)
    y = JetScalar.variable(space, 1, -0.3)
    f = const(space, 2.0) + x + x * y
    r = jet_sqrt(f)
    np.testing.assert_allclose((r * r).coeffs, f.coeffs, rtol=0, atol=1e-13)


def test_log_derivatives_match_closed_form():
    # d^k/dt^k log(1 + t) at t = a is (-1)^(k+1) (k-1)! / (1+a)^k
    space = jet_space(1, 5)
    a = 0.6
    t = JetScalar.variable(space, 0, a)
    f = jet_log(const(space, 1.0) + t)
    for k in range(1, 6):
        expected = (-1.0) ** (k + 1) * math.factorial(k - 1) / (1 + a) ** k
        assert partials(f, k)[(0,) * k] == pytest.approx(expected, rel=1e-13)


def test_domain_errors():
    space = jet_space(1, 3)
    x = JetScalar.variable(space, 0, 0.0)
    with pytest.raises(JetDomainError):
        jet_log(x)  # log(0)
    with pytest.raises(JetDomainError):
        jet_sqrt(x - const(space, 1.0))
    with pytest.raises(JetDomainError):
        x.reciprocal()
    with pytest.raises(JetDomainError):
        (const(space, 1.0) + x) / const(space, 0.0)


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
    h = partials(f, 2)
    assert h.shape == (3, 3)
    np.testing.assert_allclose(h, h.T, atol=0)
    third = partials(f, 3)
    for perm in itertools.permutations(range(3)):
        np.testing.assert_allclose(third, np.transpose(third, perm), atol=0)
    assert third[0, 1, 2] == pytest.approx(1.0)


@pytest.mark.parametrize("nvars", range(1, 9))
def test_partials_gather_matches_index_walk(nvars):
    rng = np.random.default_rng(nvars)
    space = jet_space(nvars, MAX_ORDER)
    jet = JetScalar(space, rng.standard_normal(space.size))
    for degree in range(MAX_ORDER + 1):
        fast = partials(jet, degree)
        slow = partials_loop(jet, degree)
        assert np.shape(fast) == slow.shape
        assert np.array_equal(fast, slow), degree


def test_exp_overflow_is_a_domain_error():
    space = jet_space(2, 3)
    with pytest.raises(JetDomainError, match="exp of 7200.0 overflows"):
        jet_exp(JetScalar.constant(space, 7200.0))


def degrees_of(space) -> np.ndarray:
    return np.array([sum(mono) for mono in monomials_of(space)])


@pytest.mark.parametrize("nvars", range(1, 9))
def test_jet_space_tables_match_tuple_loops(nvars):
    """The monomials, their order, factorials and keys, and the partials
    tables, against one tuple at a time."""
    for order in range(MAX_ORDER + 1):
        space = JetSpace(nvars, order)
        monomials = [mono for degree in range(order + 1)
                     for mono in monomials_loop(nvars, degree)]
        # Graded, then descending lexicographic within a degree.
        assert monomials == sorted(monomials, key=lambda mono: (sum(mono), [-e for e in mono]))
        assert space._exponents.tolist() == [list(mono) for mono in monomials]
        assert space.size == len(monomials) == math.comb(nvars + order, order)
        factorial = np.array([math.prod(map(math.factorial, mono)) for mono in monomials])
        assert space.factorial.dtype == factorial.dtype
        assert np.array_equal(space.factorial, factorial)
        keys = [sum(e * (order + 1) ** k for k, e in enumerate(mono)) for mono in monomials]
        assert space._keys.tolist() == keys
        for degree in range(order + 1):
            if nvars**degree <= 4096:
                table = space.partials_table(degree)
                assert table.dtype == np.intp
                assert np.array_equal(table, partials_table_loop(space, degree)), (order, degree)


def flags_of(space, support) -> np.ndarray:
    """A support as one bool per monomial, bit by bit."""
    return np.array([bool(support >> i & 1) for i in range(space.size)])


@pytest.mark.parametrize("nvars", range(1, 9))
def test_pair_tables_match_the_pair_loop(nvars):
    """The pair tables of two supports up to a degree are the rows of the
    pair loop to that degree whose two monomials lie in their operand's
    support, in the same order, and the product's support is the out
    positions of those rows."""
    rng = np.random.default_rng(nvars)
    for order in range(MAX_ORDER + 1):
        space = JetSpace(nvars, order)
        supports = [degree_support(space, degree) for degree in range(1, order + 1)]
        for _ in range(3):
            supports.append(support_bits(space, rng.random(space.size) < rng.random()))
        supports += [support & ~1 for support in supports]
        flags = {support: flags_of(space, support) for support in supports}
        for degree in range(order + 1):
            left, right, out = pair_tables_loop(space, degree)
            for sa, sb in itertools.product(supports, repeat=2):
                if sa <= 1 or sb <= 1:
                    continue  # multiply scales by a constant operand instead
                keep = flags[sa][left] & flags[sb][right]
                pairs, tables, support = space._chunk_tables(sa, sb, 1, degree)
                assert pairs == keep.sum()
                for table, expected in zip(tables[:, :pairs],
                                           (left[keep], right[keep], out[keep])):
                    assert np.array_equal(table, expected), (order, degree, sa, sb)
                assert support == sum(1 << int(i) for i in np.unique(out[keep]))


def bounded_coeffs(rng, space, shape, degree):
    """Random coefficients, zero above ``degree``, with zeros of both signs
    below it."""
    coeffs = rng.standard_normal(shape + (space.size,))
    coeffs[..., degrees_of(space) > degree] = 0.0
    coeffs.reshape(-1, space.size)[::3, 1::4] = -0.0
    coeffs.reshape(-1, space.size)[1::3, 2::5] = 0.0
    return coeffs


def degree_support(space, degree):
    """The support of every monomial of total degree <= ``degree``."""
    return support_bits(space, degrees_of(space) <= degree)


def test_multiply_over_points_matches_one_point_at_a_time():
    # 70 points of (4, 5) products span several chunks, the last partial;
    # zeros of both signs check that signs of zero survive too.  The
    # one-point product sums over all pairs in pair-table order, as
    # np.add.at does, so a product within the supports must skip only zeros.
    space = JetSpace(4, 5)

    def product(a, b, da, db):
        return space.multiply(a, b, degree_support(space, da), degree_support(space, db))[0]

    rng = np.random.default_rng(5)
    left, right, out = pair_tables_loop(space)
    for da, db in [(5, 5), (1, 1), (2, 2), (4, 2), (5, 2), (2, 3), (0, 3), (3, 0), (0, 0)]:
        a = bounded_coeffs(rng, space, (70,), da)
        b = bounded_coeffs(rng, space, (70,), db)
        singles = np.zeros((70, space.size))
        for p in range(70):
            np.add.at(singles[p], out, a[p][left] * b[p][right])
            one = product(a[p], b[p], da, db)
            assert np.array_equal(one, singles[p])
            assert np.array_equal(np.signbit(one), np.signbit(singles[p]))
        # The chunk tables were sized to one point above; they grow here.
        stacked = product(a, b, da, db)
        assert np.array_equal(stacked, singles), (da, db)
        assert np.array_equal(np.signbit(stacked), np.signbit(singles))
        assert np.array_equal(product(a[:3], b[:3], da, db), singles[:3])
        assert np.array_equal(product(a[0], b, da, db),
                              product(np.tile(a[0], (70, 1)), b, da, db))


def every_pair_multiply(monkeypatch):
    """Make every product gather every pair at full order, as without
    supports or degree bounds: the oracle of the full-order evaluation."""
    multiply = JetSpace.multiply
    monkeypatch.setattr(JetSpace, "multiply", lambda space, a, b, sa, sb, degree=None:
                        multiply(space, a, b, space.full, space.full))


def dense(jet):
    """The same coefficients with the full support, so that products of it
    gather every pair."""
    return JetScalar(jet.space, jet.coeffs)


MIXED_DEGREE = [
    "x1*y1 + x2^2*y2 - 3",
    "(x1 + 2*y2)^3 * x2 - y1^4 + 0.5",
    "-(0*x1) + -0*y1 - 2*x2*y2 + rsq",
    "exp(x1) * x2 + log(2 + y1*y2) * y1^2",
    "1/(3 + x1^2) + sqrt(4 + x2*y1)*x2",
    "2*(x1 - x1) + 7",
]
ZOO = zoo()


@pytest.mark.parametrize("source", sorted(ZOO) + MIXED_DEGREE)
@pytest.mark.parametrize("order", [1, 3, 5])
def test_degree_bound_holds_and_keeps_the_bits(source, order, monkeypatch):
    """The support, and the degree bound the pair tables take from it (the
    degree of its last monomial), hold every nonzero coefficient."""
    n = ZOO[source].n if source in ZOO else 2
    expr = ZOO[source].potential() if source in ZOO else parse(source, n)
    points = np.random.default_rng(order).uniform(-0.6, 0.6, (9, 2 * n))
    jet = eval_jet(expr, points, order)
    degrees = degrees_of(jet.space)
    assert np.all(jet.coeffs[..., degrees > degrees[jet.support.bit_length() - 1]] == 0.0)
    assert support_bits(jet.space, jet.coeffs) & ~jet.support == 0

    every_pair_multiply(monkeypatch)
    every_pair = eval_jet(expr, points, order).coeffs
    assert np.array_equal(jet.coeffs, every_pair)
    assert np.array_equal(np.signbit(jet.coeffs), np.signbit(every_pair))


def test_supports_of_the_ring_operations():
    space = jet_space(2, 5)

    def monomials(*exponents):
        return sum(1 << position_of(space)[e] for e in exponents)

    one, ex, ey, exy = monomials((0, 0)), monomials((1, 0)), monomials((0, 1)), monomials((1, 1))
    x = JetScalar.variable(space, 0, 0.5)
    y = JetScalar.variable(space, 1, -1.5)
    c = JetScalar.constant(space, 3.0)
    assert (c.support, x.support, y.support) == (one, one | ex, one | ey)
    assert (x + c).support == (c - x).support == (const(space, 1.0) - x).support == one | ex
    assert (x + y).support == (y - x).support == one | ex | ey
    assert (x * y).support == one | ex | ey | exy
    assert (x * y + x).support == (x * y).support
    assert (-(x * y)).support == (const(space, 2.5) * x * y).support \
        == (x * y / const(space, 4.0)).support == (x * y).support
    assert (x**3 * y**4).support == monomials(*[(a, b) for a in range(4) for b in range(5)
                                                if a + b <= 5])
    assert jet_log(const(space, 1.0) + x).support == monomials(*[(a, 0) for a in range(6)])
    assert jet_exp(c).support == one
    assert JetScalar(space, x.coeffs).support == space.full
    assert JetScalar.variable(jet_space(2, 0), 1, 2.0).support == 1


def test_constant_operand_product_keeps_the_signs_of_zero():
    space = jet_space(3, 4)
    rng = np.random.default_rng(8)
    b = bounded_coeffs(rng, space, (12,), 4)
    for value in (2.0, -2.0, 0.0, -0.0):
        c = JetScalar.constant(space, np.full(12, value))
        for left, right in ((c, JetScalar(space, b)), (JetScalar(space, b), c)):
            got = (left * right).coeffs
            expected = (dense(left) * dense(right)).coeffs
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected)), value


def test_non_finite_products_gather_every_pair():
    # A skipped product 0 * inf would be NaN: a product with an operand
    # that is not finite gives the same coefficients, NaN in the same
    # places, as gathering every pair, and has the full support.
    space = jet_space(2, 4)
    x = JetScalar.variable(space, 0, 0.5)
    y = JetScalar.variable(space, 1, -1.5)
    with np.errstate(invalid="ignore", over="ignore"):
        huge = x * const(space, 1e200) * (y * const(space, 1e200))
        cases = [
            (JetScalar.constant(space, np.inf), y),
            (y, JetScalar.constant(space, np.nan)),
            (huge, huge),
            (huge * x, y),
            (x * const(space, np.inf), y * y),
        ]
    for a, b in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            got = a * b
            expected = dense(a) * dense(b)
        assert not np.all(np.isfinite(got.coeffs))
        assert np.array_equal(got.coeffs, expected.coeffs, equal_nan=True)
        assert got.support == space.full
    # Finite operands whose product overflows: the skipped products are
    # +0 or -0, so the result has the bits of every pair, and its support
    # stays the one the pairs give.
    a, b = x * const(space, 1e200), y * const(space, 1e200)
    with np.errstate(over="ignore"):
        got = a * b
    assert not np.all(np.isfinite(got.coeffs))
    assert_same_bits(got.coeffs, every_pair_product(space, a.coeffs, b.coeffs))
    assert got.support == (x * y).support != space.full


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


def every_pair_product(space, a, b):
    """The truncated product over every pair of the pair loop, one point at a
    time, each coefficient summed in pair order from +0.0."""
    left, right, out = pair_tables_loop(space)
    a, b = np.broadcast_arrays(a, b)
    flat_a, flat_b = a.reshape(-1, space.size), b.reshape(-1, space.size)
    result = np.zeros(flat_a.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        for p in range(len(flat_a)):
            np.add.at(result[p], out, flat_a[p][left] * flat_b[p][right])
    return result.reshape(a.shape)


def assert_same_bits(got, want):
    """Equal bits where finite (signs of zero included), NaN in the same places."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def sparse_coeffs(rng, space, shape, degree):
    """bounded_coeffs with whole coefficients zero at every point, so that the
    supports are proper subsets, and zeros of both signs."""
    coeffs = bounded_coeffs(rng, space, shape, degree)
    dropped = rng.random(space.size) < 0.5
    coeffs[..., dropped] = np.where(rng.random(coeffs[..., dropped].shape) < 0.5, 0.0, -0.0)
    return coeffs


@pytest.mark.parametrize("nvars, order", [(1, 5), (2, 5), (4, 5), (3, 4), (6, 3)])
def test_support_tables_match_the_pair_loop(nvars, order):
    space = JetSpace(nvars, order)
    rng = np.random.default_rng(10 * nvars + order)
    for da, db in [(order, order), (1, 1), (2, 1), (order, 2), (1, order)]:
        for shape in [(), (7,)]:
            a = sparse_coeffs(rng, space, shape, da)
            b = sparse_coeffs(rng, space, shape, db)
            if shape and da > 1:
                a[0, 0] = 0.0  # the constant term zero at one point only
            # The data supports, and supersets of them by random extra bits.
            sa, sb = support_bits(space, a), support_bits(space, b)
            extra = support_bits(space, rng.random(space.size) < 0.3)
            for support_a, support_b in ((sa, sb), (sa | extra, sb), (sa, sb | extra)):
                got, support = space.multiply(a, b, support_a, support_b)
                assert_same_bits(got, every_pair_product(space, a, b))
                assert support_bits(space, got) & ~support == 0
                if shape:
                    for p in range(shape[0]):
                        one = space.multiply(a[p], b[p], support_a, support_b)
                        assert_same_bits(one[0], got[p])
            # An operand zero at every point gathers no pair at all.
            zero = np.where(rng.random(b.shape) < 0.5, 0.0, -0.0)
            got, support = space.multiply(a, zero, sa, 0)
            assert_same_bits(got, every_pair_product(space, a, zero))
            assert support == 0


HORNER = [
    "log(2 + x1*y1 + x2^2)",
    "exp(x1 - y2*x2) * y1",
    "sqrt(3 + x1*x2 + y1^3)",
    "1/(2 + y1 + x1*x2) + x2",
    "log(1 + absq(1)) + 0.3*log(1 + absq(2))",
    "exp(rsq) * log(1 + x1^2)",
]


@pytest.mark.parametrize("source", HORNER)
def test_products_inside_horner_are_every_pair_products(source, monkeypatch):
    """Every product eval_jet forms (the Horner steps of log, exp, sqrt and
    1/ included) has the bits of the product over every pair on the
    degrees up to its bound."""
    seen = []
    multiply = JetSpace.multiply

    def recorded(space, a, b, sa, sb, degree=None):
        result = multiply(space, a, b, sa, sb, degree)
        # A copy: Horner adds the next series constant in place.
        seen.append((space, a, b, degree, result[0].copy()))
        return result

    monkeypatch.setattr(JetSpace, "multiply", recorded)
    points = np.random.default_rng(3).uniform(-0.5, 0.5, (5, 4))
    points[1, 0] = 0.0  # a zero coordinate: a coefficient zero at one point
    for rows in (points, points[2]):
        seen.clear()
        eval_jet(parse(source, 2), rows, 5)
        assert seen
        assert any(degree is not None and degree < 5 for *_, degree, _ in seen)
        for space, a, b, degree, result in seen:
            kept = degrees_of(space) <= (space.order if degree is None else degree)
            assert_same_bits(result[..., kept], every_pair_product(space, a, b)[..., kept])


def test_non_finite_operand_with_zero_constant_gets_every_pair():
    """An inf at a top-degree coefficient times a jet whose constant term is
    zero, as in a Horner step: the pair of the inf with that constant is
    inf * 0 = NaN, which a product over the supports alone would skip."""
    space = jet_space(2, 4)
    rng = np.random.default_rng(12)
    a = bounded_coeffs(rng, space, (3,), 4)
    a[1, -1] = np.inf
    h = bounded_coeffs(rng, space, (3,), 2)
    h[:, 0] = 0.0
    sa, sh = space.full, degree_support(space, 2) & ~1
    for left, sl, right, sr in ((a, sa, h, sh), (h, sh, a, sa), (a[1], sa, h[1], sh)):
        with np.errstate(invalid="ignore"):
            got = JetScalar(space, left, support=sl) * JetScalar(space, right, support=sr)
        want = every_pair_product(space, left, right)
        assert np.isnan(want).any()
        assert_same_bits(got.coeffs, want)
        assert got.support == space.full


def test_support_table_cache_is_bounded():
    space = JetSpace(3, 4)
    rng = np.random.default_rng(13)
    b = bounded_coeffs(rng, space, (4,), 4)
    for k in range(3 * jets._MAX_PAIR_TABLES):
        a = bounded_coeffs(rng, space, (4,), 4)
        a[..., rng.random(space.size) < 0.5] = 0.0  # a support of its own
        a[:, 0] = 1.0 + k
        got, _ = space.multiply(a, b, support_bits(space, a), space.full)
        assert len(space._pair_tables) <= jets._MAX_PAIR_TABLES
        assert_same_bits(got, every_pair_product(space, a, b))
    assert len(space._pair_tables) == jets._MAX_PAIR_TABLES


def test_horner_step_after_an_overflow_keeps_the_non_finite_bits(monkeypatch):
    """1/(0.01 + x1 + 1e148*x1^2) at x1 = 0, order 5: a Horner step of the
    reciprocal overflows only at the top degree, and the next step's pair
    of that inf with the nilpotent part's zero constant term, outside its
    support, is NaN over all pairs.  The support tables must not skip it."""
    expr = parse("1/(0.01 + x1 + 1e148*x1^2) * y1", 1)
    points = np.array([[0.0, 0.3], [0.0, -0.2]])
    with np.errstate(over="ignore", invalid="ignore"):
        jet = eval_jet(expr, points, 5)
        every_pair_multiply(monkeypatch)
        every_pair = eval_jet(expr, points, 5)
    assert not np.isfinite(every_pair.coeffs).all(axis=-1).any()
    assert_same_bits(jet.coeffs, every_pair.coeffs)
    assert jet.support == jet.space.full


def horner_cases(rng, space, points):
    """log, exp, sqrt, 1/ and a quotient of random polynomials, and a
    composition of two of them, expanded about a stack of points."""

    def poly():
        return jet_of_poly(random_poly(rng, space.nvars, 3), space, points.T) * const(space, 0.25)

    def positive():
        p = poly()
        return p + const(space, 0.5 - float(p.coeffs[..., 0].min()))

    return [
        lambda: jet_log(positive()),
        lambda: jet_exp(poly()),
        lambda: jet_sqrt(positive()),
        lambda: const(space, 1.0) / positive(),
        lambda: poly() / positive(),
        lambda: jet_exp(jet_log(positive()) * const(space, 0.5)) - poly(),
    ]


@pytest.mark.parametrize("nvars", range(1, 9))
def test_degree_bounded_horner_has_the_bits_of_every_pair(nvars, monkeypatch):
    """log, exp, sqrt, 1/ and quotients of random polynomials, at every
    order, on stacked points with a zero coordinate: the degree-bounded
    Horner steps give the bits of the full-order every-pair evaluation,
    signs of zero included."""
    for order in range(MAX_ORDER + 1):
        space = jet_space(nvars, order)
        points = np.random.default_rng(order).uniform(-0.6, 0.6, (4, nvars))
        points[1, 0] = 0.0
        seed = 100 * nvars + order
        got = [case() for case in horner_cases(np.random.default_rng(seed), space, points)]
        with monkeypatch.context() as patched:
            every_pair_multiply(patched)
            want = [case() for case in horner_cases(np.random.default_rng(seed), space, points)]
        for g, w in zip(got, want):
            assert_same_bits(g.coeffs, w.coeffs)


def horner_degrees(monkeypatch, make):
    """The degree bounds JetSpace.multiply is asked for while ``make()``
    runs, and its result."""
    degrees = []
    multiply = JetSpace.multiply

    def recorded(space, a, b, sa, sb, degree=None):
        degrees.append(space.order if degree is None else degree)
        return multiply(space, a, b, sa, sb, degree)

    with monkeypatch.context() as patched:
        patched.setattr(JetSpace, "multiply", recorded)
        result = make()
    return degrees, result


def test_horner_past_the_overflow_guard_asks_only_full_order_products(monkeypatch):
    """The reciprocal of 1/(0.01 + x1 + 1e148*x1^2) overflows in a Horner
    step: the bound on its steps' coefficients is not below 1e300, so every
    product is asked at full order, and the NaN bits of the every-pair
    evaluation are kept."""
    expr = parse("1/(0.01 + x1 + 1e148*x1^2) * y1", 1)
    points = np.array([[0.0, 0.3], [0.0, -0.2]])
    with np.errstate(over="ignore", invalid="ignore"):
        degrees, jet = horner_degrees(monkeypatch, lambda: eval_jet(expr, points, 5))
        every_pair_multiply(monkeypatch)
        every_pair = eval_jet(expr, points, 5)
    assert degrees and set(degrees) == {5}
    assert np.isnan(jet.coeffs).any()
    assert_same_bits(jet.coeffs, every_pair.coeffs)


@pytest.mark.parametrize("value, bounded", [(686.6, True), (686.7, False)])
def test_horner_degree_bounds_stop_at_the_guard(value, bounded, monkeypatch):
    """exp(x1 + x2) at order 5: the series is e^v / k!, h = x1 + x2, and the
    bound on the full steps' coefficients is e^v (1 + 2 + ... + 2^5) =
    63 e^v.  Just under 1e300 (v = 686.6) the steps are degree-bounded;
    just over (v = 686.7), finite as every coefficient still is, they run
    at full order.  Both give the bits of the every-pair evaluation."""
    space = jet_space(2, 5)
    assert (63 * math.exp(value) < 1e300) == bounded
    x1, x2 = JetScalar.variable(space, 0, value), JetScalar.variable(space, 1, 0.0)
    degrees, jet = horner_degrees(monkeypatch, lambda: jet_exp(x1 + x2))
    assert np.isfinite(jet.coeffs).all()
    assert degrees == ([1, 2, 3, 4, 5] if bounded else [5] * 5)
    every_pair_multiply(monkeypatch)
    assert_same_bits(jet.coeffs, jet_exp(x1 + x2).coeffs)


@pytest.mark.parametrize("n, bounded, full", [(3, 2718, 4512), (4, 7504, 12336)])
def test_degree_bounds_cut_the_gathered_products(n, bounded, full, monkeypatch):
    """Products gathered per point by eval_jet("log(1+rsq)") at order 5 (the
    fs_cp potentials of high_dim): the degree-bounded Horner steps gather
    39% fewer than full-order steps, so a silent fall-back to full order
    fails here."""
    counted = []
    chunk_tables = JetSpace._chunk_tables

    def recorded(space, sa, sb, points, degree):
        tables = chunk_tables(space, sa, sb, points, degree)
        counted.append(tables[0] * points)
        return tables

    monkeypatch.setattr(JetSpace, "_chunk_tables", recorded)
    points = np.random.default_rng(n).uniform(-0.5, 0.5, (7, 2 * n))
    eval_jet(parse("log(1+rsq)", n), points, 5)
    assert sum(counted) == 7 * bounded
    counted.clear()
    multiply = JetSpace.multiply
    monkeypatch.setattr(JetSpace, "multiply", lambda space, a, b, sa, sb, degree=None:
                        multiply(space, a, b, sa, sb))
    eval_jet(parse("log(1+rsq)", n), points, 5)
    assert sum(counted) == 7 * full


@pytest.mark.parametrize("source", sorted(ZOO) + MIXED_DEGREE + HORNER)
def test_every_jet_support_holds_its_nonzero_coefficients(source, monkeypatch):
    """Every jet eval_jet forms, operands and Horner steps included, has a
    support that marks every coefficient nonzero at some point."""
    formed = []
    init = JetScalar.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        formed.append(self)

    monkeypatch.setattr(JetScalar, "__init__", recorded)
    n = ZOO[source].n if source in ZOO else 2
    expr = ZOO[source].potential() if source in ZOO else parse(source, n)
    points = np.random.default_rng(4).uniform(-0.6, 0.6, (7, 2 * n))
    points[2, 0] = 0.0
    for order in (1, 3, 5):
        formed.clear()
        eval_jet(expr, points, order)
        assert formed
        for jet in formed:
            space = jet.space
            assert support_bits(space, jet.coeffs) & ~jet.support == 0, order


SERIES_STACKS = [
    [0.5, 2.0, 1e-100, 1e100, 3.0],
    [1.5, np.inf, 0.25, np.nan, 7.0],
    [-0.5, 1.0, 0.0, -0.0, -np.inf],
    [0.75, 1e-100, -2.0, 1e100],
    [1.25, 1e100, -2.0, 1e-100],
    [800.0, -800.0, 1e-200, 1e200, 5e-324, 1.7e308],
    [2.0, 0.5, -1e-300, 1e300],
    [0.1, 0.7, 4.0],
    # Enough values that numpy's SIMD log, exp or power would differ from
    # libm's somewhere (on an AVX-512 host a few log values in 3,000 do).
    np.random.default_rng(19).uniform(0.05, 20.0, 3000).tolist(),
]
PRIMITIVES = {"log": jet_log, "exp": jet_exp, "sqrt": jet_sqrt,
              "reciprocal": JetScalar.reciprocal}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
@pytest.mark.parametrize("values", SERIES_STACKS, ids=range(len(SERIES_STACKS)))
def test_series_over_the_stack_match_the_point_loop(name, values, monkeypatch):
    """The series each primitive builds for a whole stack have the bits of
    the one-point formulas in Python floats (tests/helpers.series_loop),
    and a stack with a value outside the domain raises that loop's error
    for the first such value, message included.  Building them warns of
    nothing (pytest turns a RuntimeWarning into an error)."""
    built = []
    monkeypatch.setattr(JetScalar, "_compose", lambda self, series: built.append(series))
    for order in range(MAX_ORDER + 1):
        space = jet_space(2, order)
        jet = JetScalar.variable(space, 1, np.tile(values, (2, 1)))  # points (2, P)
        flat = jet.coeffs[..., 0].ravel().tolist()
        try:
            want = np.array([series_loop(name, order, c0) for c0 in flat])
        except JetDomainError as err:
            with pytest.raises(JetDomainError, match=f"^{re.escape(str(err))}$"):
                PRIMITIVES[name](jet)
            continue
        built.clear()
        PRIMITIVES[name](jet)
        (got,) = built
        assert got.shape == want.shape
        assert_same_bits(got, want)


def test_integer_powers_have_the_bits_of_powers_from_one():
    """x**k squares and multiplies from the base itself; it has the bits of
    the same square-and-multiply started from the constant 1, signs of
    zero included, for bounded and raw jets."""
    space = jet_space(3, 4)
    rng = np.random.default_rng(21)
    x = JetScalar.variable(space, 0, [0.5, -1.5, 0.0])
    y = JetScalar.variable(space, 2, [2.0, 0.25, -0.75])
    raw = JetScalar(space, bounded_coeffs(rng, space, (3,), 2))
    for base in (x, x * y - const(space, 0.5), raw, -raw):
        for exponent in range(8):
            want = JetScalar.constant(space, 1.0)
            power, k = base, exponent
            while k:
                if k & 1:
                    want = want * power
                k >>= 1
                if k:
                    power = power * power
            got = base**exponent
            assert got is not base
            assert_same_bits(got.coeffs, want.coeffs)
            assert got.support == want.support
