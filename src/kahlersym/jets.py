"""Truncated multivariate Taylor (jet) arithmetic.

A :class:`JetScalar` holds the Taylor coefficients of a smooth scalar
function of ``nvars`` real variables about a point, truncated at a fixed
total degree.  Sums, products, integer powers and quotients are computed
in the truncated polynomial ring, so they are exact (up to roundoff) on
polynomials whose total degree fits the truncation order.  log, exp,
sqrt and reciprocals are evaluated by composing their univariate Taylor
series, built for every point of the stack at once, with the nilpotent
part of the jet.  Every jet carries a support, the monomials that may be
nonzero, and a product forms only the pairs of coefficients within its
operands' supports; a Horner step forms only the degrees that can reach
the result.

Coefficients are stored in the Taylor normalisation: the entry for a
multi-index ``a`` is the partial derivative divided by ``a!``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations_with_replacement, repeat

import numpy as np

MAX_ORDER = 5
# k! for every exponent a jet can hold.
_FACTORIALS = np.array([math.factorial(k) for k in range(MAX_ORDER + 1)])
# Product pairs per chunk in JetSpace.multiply, so that a chunk's
# gathered products and index tables stay in cache.
_PAIRS_PER_CHUNK = 2**12
# Pair tables a jet space keeps, one per pair of operand supports.
_MAX_PAIR_TABLES = 64


class JetDomainError(ArithmeticError):
    """Evaluation left the domain of a primitive: log(<=0), sqrt(<=0), 1/0,
    or an exp whose value overflows a float."""


class JetSpace:
    """Shared monomial tables for all jets with the same shape.

    The monomials are the multi-indices of total degree <= ``order``,
    graded by degree and, within a degree, in descending lexicographic
    order of their exponents: 1, x1, x2, ..., x1^2, x1 x2, ...  Every table
    here and every product's summation order follow that order.  Flat
    index tables multiply coefficient arrays a chunk of points at a time;
    :meth:`partials_table` lays out the partials of one order.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError("jet space needs at least one variable")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must lie in [0, {MAX_ORDER}], got {order}")
        self.nvars = nvars
        self.order = order
        # Key a multi-index a by sum_k a_k (order+1)^k: no digit carries
        # below the truncation order, so the key of a product monomial is
        # the sum of its factors' keys, and the key of an index tuple is the
        # sum of its indices' weights.  combinations_with_replacement lists
        # the sorted index tuples of one degree in lexicographic order, so
        # the exponents they count come in descending lexicographic order.
        self._weights = (order + 1) ** np.arange(nvars, dtype=np.int64)
        weights = self._weights.tolist()
        self._keys = np.fromiter(
            chain.from_iterable(map(sum, combinations_with_replacement(weights, degree))
                                for degree in range(order + 1)), dtype=np.int64)
        self._exponents = self._keys[:, None] // self._weights % (order + 1)
        self.size = len(self._keys)
        self.factorial = _FACTORIALS[self._exponents].prod(axis=1)
        self._by_key = np.argsort(self._keys)
        self._degrees = self._exponents.sum(axis=1)
        # A support is an int whose bit i marks monomial i as possibly
        # nonzero; ``full`` marks every monomial.
        self.full = (1 << self.size) - 1
        # (support_a, support_b, degree) -> (pairs per point, tables,
        # support of the product); see _chunk_tables.
        self._pair_tables: dict[tuple, tuple] = {}

    def _position_of_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._by_key[np.searchsorted(self._keys, keys, sorter=self._by_key)]

    def partials_table(self, degree: int, base: int | np.ndarray = 0) -> np.ndarray:
        """Array of shape (nvars,) * degree holding, at every index tuple,
        the position of the monomial that counts those indices times the
        monomial at position ``base``; an array ``base`` stacks one such
        table per entry on its own axes."""
        keys = self._keys[base]
        for _ in range(degree):
            keys = np.add.outer(keys, self._weights)
        return self._position_of_keys(keys)

    def _chunk_tables(self, support_a: int, support_b: int, points: int,
                      degree: int):
        """(pairs per point, tables, support): the rows left, right and out
        of one point's product, laid out flat for a run of points, point p's
        pairs offset by p * size; and the support of the product, the out
        positions of those pairs.  The pairs (i, j) are those with i in
        ``support_a``, j in ``support_b`` and deg a_i + deg a_j <= ``degree``,
        in row-major order, and out is the position of a_i + a_j.  Since the
        monomials are graded, row i pairs with a prefix of ``support_b``, and
        the pairs of a lower ``degree`` are a subsequence of those of a higher
        one.

        A table covers as many points as the largest call so far, up to a
        chunk of _PAIRS_PER_CHUNK pairs, so that a space keeps no more
        table than its calls use.  A space keeps at most _MAX_PAIR_TABLES
        tables, keyed by (support_a, support_b, degree), and drops the
        oldest first."""
        key = (support_a, support_b, degree)
        cached = self._pair_tables.get(key)
        if cached is None:
            rows = np.flatnonzero(self._flags(support_a))
            cols = np.flatnonzero(self._flags(support_b))
            lengths = np.searchsorted(self._degrees[cols], degree - self._degrees[rows],
                                      side="right")
            left = np.repeat(rows, lengths)
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            right = cols[np.arange(len(left)) - starts]
            out = self._position_of_keys(self._keys[left] + self._keys[right])
            flags = np.zeros(self.size, dtype=bool)
            flags[out] = True
            if len(self._pair_tables) >= _MAX_PAIR_TABLES:
                del self._pair_tables[next(iter(self._pair_tables))]
            cached = self._pair_tables[key] = (
                len(left), np.stack([left, right, out]),
                int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"))
        pairs, tables, support = cached
        want = max(1, min(points, _PAIRS_PER_CHUNK // max(pairs, 1)))
        if tables.shape[1] < want * pairs:
            offsets = np.arange(want) * self.size
            tables = (tables[:, None, :pairs] + offsets[:, None]).reshape(3, -1)
            cached = self._pair_tables[key] = (pairs, tables, support)
        return cached

    def _flags(self, support: int) -> np.ndarray:
        """A support as one bool per monomial."""
        packed = np.frombuffer(support.to_bytes((self.size + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=self.size, bitorder="little").astype(bool)

    def multiply(self, a: np.ndarray, b: np.ndarray, support_a: int,
                 support_b: int, degree: int | None = None) -> tuple[np.ndarray, int]:
        """Truncated product of coefficient arrays of shape (..., size) whose
        coefficients outside ``support_a`` (of a) and ``support_b`` (of b)
        are zero; returns the product and its support.

        Products are gathered only for the pairs whose two coefficients are
        both in their operand's support, and a constant operand (support
        within {0}) scales the other: ``0.0 + a0 * b``.  With finite
        operands every skipped product is +0 or -0, and every sum starts
        from +0.0, so the result is bitwise the product over all pairs,
        also where it overflows.  A skipped 0 * inf would be NaN, not zero,
        so an operand that is not finite must come with the full support,
        as JetScalar products pass it; then every pair is gathered, and the
        product has the full support.

        ``degree`` (default: the order) bounds the degrees the caller needs:
        pairs of a higher degree are not gathered, so those coefficients are
        zero and outside the support, unless a constant operand scales the
        other.  Every coefficient up to ``degree`` has the bits of the
        product at full order.
        """
        if degree is None:
            degree = self.order
        if support_a <= 1:
            return 0.0 + a[..., :1] * b, support_b if support_a else 0
        elif support_b <= 1:
            return 0.0 + a * b[..., :1], support_a if support_b else 0
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        a = a.reshape(-1)
        b = b.reshape(-1)
        # np.bincount adds each product in table order, starting from +0.0,
        # so every point gets the same bits whatever the points beside it.
        pairs, (left, right, out), support = self._chunk_tables(
            support_a, support_b, len(a) // self.size, degree)
        if not pairs or not len(a):  # an empty stack has no chunk to join
            return np.zeros(shape), support
        chunk = len(left) // pairs * self.size
        parts = []
        for start in range(0, len(a), chunk):
            stop = min(start + chunk, len(a))
            count = (stop - start) // self.size * pairs
            products = a[start:stop].take(left[:count]) * b[start:stop].take(right[:count])
            parts.append(np.bincount(out[:count], products, minlength=stop - start))
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out.reshape(shape), support

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class JetScalar:
    """Taylor expansion of a scalar function, truncated at a total degree.

    ``coeffs`` has shape (..., size): leading axes index points, so one jet
    holds the expansions about many points, each computed exactly as it
    would be alone.

    ``support`` marks the monomials that may be nonzero (bit i for
    monomial i), found from how the jet was formed, not from its data: a
    constant has support {0}, a variable {0, e_k}; a sum takes the union
    of the supports; a product the out positions of the pairs it gathers
    (every monomial if an operand is not finite); negation
    keeps it.  Every coefficient outside the support is zero while the
    coefficients are finite.  A jet built from raw coefficients has the
    full support.

    Whether every coefficient is finite is found once per jet and kept: a
    constant's from its value, any other's by a scan the first time it is
    a product operand.  So coefficients are not changed in place after
    that.
    """

    __slots__ = ("space", "coeffs", "support", "_finite")

    def __init__(self, space: JetSpace, coeffs, *, support: int | None = None):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.support = space.full if support is None else support
        self._finite = None

    def _is_finite(self) -> bool:
        if self._finite is None:
            self._finite = bool(np.isfinite(self.coeffs).all())
        return self._finite

    @classmethod
    def constant(cls, space: JetSpace, value) -> "JetScalar":
        """A constant: ``value`` is a float or an array over point axes."""
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros(value.shape + (space.size,))
        coeffs[..., 0] = value
        jet = cls(space, coeffs, support=1)
        jet._finite = bool(np.isfinite(value).all())
        return jet

    @classmethod
    def variable(cls, space: JetSpace, index: int, value) -> "JetScalar":
        """The coordinate function number ``index`` expanded about ``value``."""
        if not 0 <= index < space.nvars:
            raise ValueError(f"variable index {index} out of range")
        jet = cls.constant(space, value)
        if space.order >= 1:
            position = 1 + index  # the degree-1 monomials follow the constant
            jet.coeffs[..., position] = 1.0
            jet.support |= 1 << position
        return jet

    @property
    def value(self):
        """The value: a float, or an array over the point axes."""
        return _per_point(self.coeffs[..., 0])

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, JetScalar):
            if other.space is not self.space:
                raise ValueError("jets belong to different spaces")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs + other.coeffs,
                         support=self.support | other.support)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs - other.coeffs,
                         support=self.support | other.support)

    def __neg__(self):
        return JetScalar(self.space, -self.coeffs, support=self.support)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._times(other)

    def _times(self, other: "JetScalar", degree: int | None = None) -> "JetScalar":
        """The product with a jet of the same space, its coefficients formed
        up to ``degree`` (JetSpace.multiply)."""
        if self._is_finite() and other._is_finite():
            support_a, support_b = self.support, other.support
        else:
            support_a = support_b = self.space.full
        coeffs, support = self.space.multiply(self.coeffs, other.coeffs, support_a,
                                              support_b, degree)
        return JetScalar(self.space, coeffs, support=support)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, float) and exponent.is_integer():
            exponent = int(exponent)
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        exponent = int(exponent)
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        if exponent == 0:
            return JetScalar.constant(self.space, 1.0)
        # Square and multiply from the base itself: base.coeffs + 0.0 has
        # the bits of 1 * base, and a product holds no -0.0.
        result = None
        base = self
        k = exponent
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                break
            base = base * base
        if result is self:
            return JetScalar(self.space, self.coeffs + 0.0, support=self.support)
        return result

    def reciprocal(self) -> "JetScalar":
        order = self.space.order

        def check(c0):
            if c0 == 0.0:
                raise JetDomainError(f"division by zero value {c0!r}")
            _check_float_range("reciprocal", c0, range(1, order + 2))

        values = _values(self)
        powers = _powers(values, range(1, order + 2))
        if powers is None or not powers.all():
            _raise_first(values, check)
        with np.errstate(over="ignore"):
            series = np.array([(-1.0) ** k for k in range(order + 1)]) / powers
        return self._compose(series)

    def _compose(self, series: np.ndarray) -> "JetScalar":
        """Horner evaluation of univariate series at the nilpotent part h;
        ``series`` holds one row of coefficients per point, flat over the
        point axes: (points, K).  Each series constant is added to the
        constant term in place, which has the bits of adding a constant
        jet, since a product holds no -0.0.

        Each product with h raises every degree by at least one, so the
        step that will be multiplied by h k more times reaches the result
        only through its degrees <= order - k, and forms only those: its
        pairs of those degrees are the full step's, in the same order, so
        the result has the bits of full-order steps.  A skipped coefficient
        would matter only if it were not finite, since its pair with h's
        zero constant term is then NaN over all pairs.  So the degrees are
        bounded only if every coefficient of the full steps is bounded
        below 1e300: starting from B = max|series|, a step's coefficients
        are at most B * max|h| * popcount(h.support) + max|series|.
        Otherwise, as for a series or an h that is not finite, every step
        runs at full order."""
        shape = self.coeffs.shape[:-1]
        series = series.reshape(shape + series.shape[-1:])
        h = JetScalar(self.space, self.coeffs.copy(), support=self.support & ~1)
        h.coeffs[..., 0] = 0.0
        order = self.space.order
        steps = series.shape[-1] - 1
        # max and min rather than np.abs, which would allocate a copy; both
        # are NaN if any entry is.
        largest = float(max(series.max(initial=0.0), -series.min(initial=0.0)))
        h_largest = float(max(h.coeffs.max(initial=0.0), -h.coeffs.min(initial=0.0)))
        bound = largest
        for _ in range(steps):
            bound = bound * h_largest * h.support.bit_count() + largest
        bounded = bound < 1e300
        acc = JetScalar.constant(self.space, series[..., -1])
        for k in range(steps - 1, -1, -1):
            acc = acc._times(h, order - k if bounded else order)
            acc.coeffs[..., 0] += series[..., k]
            acc.support |= 1
        return acc

    def __repr__(self):
        return f"JetScalar(order={self.space.order}, value={self.value!r})"


def _per_point(values: np.ndarray):
    """A float for a single point, else the array over the point axes."""
    return float(values) if values.ndim == 0 else values


# -- univariate series, for every point of a stack at once ----------------------
#
# Each primitive builds its series coefficients as a (points, order + 1)
# array with the IEEE operations of the one-point formula: libm's log, exp
# and pow mapped over the values as Python floats (numpy's own SIMD log
# and power can differ in the last bit), then exact divisions and
# products in numpy.  Where some value is out of the primitive's domain,
# the first such value in point order raises, with its message.


def _values(j: JetScalar) -> list[float]:
    return j.coeffs[..., 0].ravel().tolist()


def _powers(values: list[float], exponents: range) -> np.ndarray | None:
    """(points, len(exponents)) table of c0**k from libm's pow, or None if
    one of them overflows."""
    try:
        columns = [list(map(math.pow, values, repeat(float(k)))) for k in exponents]
    except OverflowError:
        return None
    return np.array(columns, dtype=float).reshape(len(exponents), len(values)).T


def _check_float_range(name: str, c0: float, exponents: range) -> None:
    """Raise unless every c0**k is a nonzero float."""
    try:
        inside = all(math.pow(c0, k) != 0.0 for k in exponents)
    except OverflowError:
        inside = False
    if not inside:
        raise JetDomainError(
            f"{name} of {c0!r} has Taylor coefficients outside the float range")


def _raise_first(values: list[float], check) -> None:
    """Raise the JetDomainError of the first value ``check`` rejects."""
    for c0 in values:
        check(c0)


def jet_log(j: JetScalar) -> JetScalar:
    order = j.space.order

    def check(c0):
        if c0 <= 0.0:
            raise JetDomainError(f"log of non-positive value {c0!r}")
        _check_float_range("log", c0, range(1, order + 1))

    values = _values(j)
    powers = _powers(values, range(1, order + 1))
    if powers is None or not powers.all() or (j.coeffs[..., 0] <= 0.0).any():
        _raise_first(values, check)
    signs = np.array([(-1.0) ** (k + 1) for k in range(1, order + 1)])
    with np.errstate(over="ignore"):
        tail = signs / (np.arange(1, order + 1) * powers)
    return j._compose(np.column_stack([list(map(math.log, values)), tail]))


def jet_exp(j: JetScalar) -> JetScalar:
    order = j.space.order

    def check(c0):
        try:
            math.exp(c0)
        except OverflowError:
            raise JetDomainError(f"exp of {c0!r} overflows a float") from None

    values = _values(j)
    try:
        e0 = np.array(list(map(math.exp, values)))
    except OverflowError:
        _raise_first(values, check)
    return j._compose(e0[:, None] / _FACTORIALS[:order + 1])


def jet_sqrt(j: JetScalar) -> JetScalar:
    order = j.space.order
    c0 = j.coeffs[..., 0].ravel()
    outside = np.flatnonzero(c0 <= 0.0)
    if len(outside):
        raise JetDomainError(f"sqrt of non-positive value {float(c0[outside[0]])!r}")
    series = [np.sqrt(c0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            # binomial(1/2, k) * c0^(1/2 - k), built up iteratively
            series.append(series[-1] * (1.5 - k) / (k * c0))
    return j._compose(np.stack(series, axis=-1))
