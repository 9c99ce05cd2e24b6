"""Truncated multivariate Taylor (jet) arithmetic.

A :class:`JetScalar` holds the Taylor coefficients of a smooth scalar
function of ``nvars`` real variables about a point, truncated at a fixed
total degree.  Sums, products, integer powers and quotients are computed
in the truncated polynomial ring, so they are exact (up to roundoff) on
polynomials whose total degree fits the truncation order.  log, exp and
sqrt are evaluated by composing their univariate Taylor series with the
nilpotent part of the jet.

Coefficients are stored in the Taylor normalisation: the entry for a
multi-index ``a`` is the partial derivative divided by ``a!``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 5
# Product pairs per chunk in JetSpace.multiply, so that a chunk's
# gathered products and index tables stay in cache.
_PAIRS_PER_CHUNK = 2**12
# Pair tables a jet space keeps, one per pair of operand supports.
_MAX_PAIR_TABLES = 64


class JetDomainError(ArithmeticError):
    """Evaluation left the domain of a primitive: log(<=0), sqrt(<=0), 1/0,
    or an exp whose value overflows a float."""


def _monomials(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in _monomials(nvars - 1, degree - head):
            yield (head,) + tail


class JetSpace:
    """Shared monomial tables for all jets with the same shape.

    Holds the graded list of multi-indices up to ``order`` and flat index
    tables used to multiply coefficient arrays a chunk of points at a
    time; :meth:`partials_table` lays out the partials of one order.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError("jet space needs at least one variable")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must lie in [0, {MAX_ORDER}], got {order}")
        self.nvars = nvars
        self.order = order
        monomials: list[tuple[int, ...]] = []
        for degree in range(order + 1):
            monomials.extend(_monomials(nvars, degree))
        self.monomials = tuple(monomials)
        self.size = len(monomials)
        self.position = {mono: i for i, mono in enumerate(monomials)}
        self.factorial = np.array(
            [math.prod(math.factorial(e) for e in mono) for mono in monomials]
        )
        # Key a multi-index a by sum_k a_k (order+1)^k: no digit carries
        # below the truncation order, so the key of a product monomial is
        # the sum of its factors' keys.
        exponents = np.asarray(monomials, dtype=np.int64).reshape(-1, nvars)
        self._weights = (order + 1) ** np.arange(nvars, dtype=np.int64)
        self._keys = exponents @ self._weights
        self._by_key = np.argsort(self._keys)
        self._degrees = exponents.sum(axis=1)
        # prefix[d]: the number of monomials of degree <= d (they are graded).
        self._prefix = np.searchsorted(self._degrees, np.arange(order + 1), side="right")
        # (da, db, support_a, support_b) -> (pairs per point, tables); see
        # _chunk_tables.
        self._pair_tables: dict[tuple, tuple] = {}

    def _position_of_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._by_key[np.searchsorted(self._keys, keys, sorter=self._by_key)]

    def partials_table(self, degree: int) -> np.ndarray:
        """Array of shape (nvars,) * degree holding, at every index tuple,
        the position of the monomial that counts those indices."""
        grid = np.indices((self.nvars,) * degree, dtype=np.intp)
        return self._position_of_keys(self._weights[grid].sum(axis=0))

    def pair_table(self, da: int, db: int):
        """(left, right, out) of one point's product: the pairs (i, j) with
        deg a_i <= da, deg a_j <= db and deg a_i + deg a_j <= order, in
        row-major order, and the position of a_i + a_j."""
        rows = self._prefix[da]
        lengths = self._prefix[np.minimum(db, self.order - self._degrees[:rows])]
        left = np.repeat(np.arange(rows), lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        right = np.arange(len(left)) - starts
        return left, right, self._position_of_keys(self._keys[left] + self._keys[right])

    def _support(self, coeffs: np.ndarray, degree: int) -> np.ndarray:
        """Which coefficients of total degree <= ``degree`` are nonzero at
        some point of the stack."""
        return coeffs.reshape(-1, self.size)[:, :self._prefix[degree]].any(axis=0)

    def _chunk_tables(self, da: int, db: int, support_a: np.ndarray,
                      support_b: np.ndarray, points: int):
        """(pairs per point, tables): the rows left, right and out of the
        (da, db) pair table restricted to the pairs whose coefficients are
        both in their operand's support, laid out flat for a run of points,
        point p's pairs offset by p * size.

        A table covers as many points as the largest call so far, up to a
        chunk of _PAIRS_PER_CHUNK pairs, so that a space keeps no more
        table than its calls use.  A space keeps at most _MAX_PAIR_TABLES
        tables and drops the oldest first."""
        key = (da, db, support_a.tobytes(), support_b.tobytes())
        cached = self._pair_tables.get(key)
        if cached is None:
            left, right, out = self.pair_table(da, db)
            keep = support_a[left] & support_b[right]
            if len(self._pair_tables) >= _MAX_PAIR_TABLES:
                del self._pair_tables[next(iter(self._pair_tables))]
            cached = self._pair_tables[key] = (int(keep.sum()),
                                               np.stack([left[keep], right[keep], out[keep]]))
        pairs, tables = cached
        want = max(1, min(points, _PAIRS_PER_CHUNK // max(pairs, 1)))
        if tables.shape[1] < want * pairs:
            offsets = np.arange(want) * self.size
            tables = (tables[:, None, :pairs] + offsets[:, None]).reshape(3, -1)
            cached = self._pair_tables[key] = (pairs, tables)
        return cached

    def multiply(self, a: np.ndarray, b: np.ndarray, da: int, db: int) -> np.ndarray:
        """Truncated product of coefficient arrays of shape (..., size) whose
        coefficients above total degree ``da`` (of a) and ``db`` (of b) are
        zero.

        A constant operand scales the other: ``0.0 + a0 * b``.  Otherwise
        products are gathered through the (da, db) pair table, restricted
        to the pairs whose two coefficients are both nonzero at some point
        of the stack (their supports).  With finite coefficients every
        skipped product is +0 or -0, and every sum starts from +0.0, so the
        result is bitwise the product over all pairs.

        A skipped 0 * inf would be NaN, not zero, so a product with an
        operand that is not finite must not come out finite:
        :meth:`JetScalar.__mul__` then forms every product.  A coefficient
        that is not finite is in its operand's support, and it meets the
        other operand's constant term, in the constant scaling and in
        every pair table.  Where that constant term is zero throughout
        the stack (Horner's nilpotent part), the pair would be skipped, so
        the support tables are used only if the operand is finite.
        """
        if da == 0:
            return 0.0 + a[..., :1] * b
        if db == 0:
            return 0.0 + a * b[..., :1]
        support_a = self._support(a, da)
        support_b = self._support(b, db)
        if (not (support_a[0] or np.isfinite(b).all())
                or not (support_b[0] or np.isfinite(a).all())):
            # A non-finite coefficient could miss the zero constant term.
            support_a[:] = support_b[:] = True
        return self._gather(a, b, da, db, support_a, support_b)

    def _gather(self, a: np.ndarray, b: np.ndarray, da: int, db: int,
                support_a: np.ndarray, support_b: np.ndarray) -> np.ndarray:
        """The products of the (da, db) pairs within the supports, summed
        into their coefficients a chunk of points at a time: ``np.bincount``
        adds each product in table order, starting from +0.0, so every
        point gets the same bits whatever the points beside it."""
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        a = a.reshape(-1)
        b = b.reshape(-1)
        pairs, (left, right, out) = self._chunk_tables(da, db, support_a, support_b,
                                                       len(a) // self.size)
        if not pairs:
            return np.zeros(shape)
        chunk = len(left) // pairs * self.size
        parts = []
        for start in range(0, len(a), chunk):
            stop = min(start + chunk, len(a))
            count = (stop - start) // self.size * pairs
            products = a[start:stop].take(left[:count]) * b[start:stop].take(right[:count])
            parts.append(np.bincount(out[:count], products, minlength=stop - start))
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out.reshape(shape)

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

    ``degree`` bounds the total degree of the nonzero coefficients:
    constants have 0 and variables 1, a sum takes the larger bound and a
    product the sum of both, capped at the order; scaling and negation
    keep it.  Every coefficient above it is zero while the coefficients
    are finite.  The bound of a jet built from raw coefficients is the
    order.
    """

    __slots__ = ("space", "coeffs", "degree")

    def __init__(self, space: JetSpace, coeffs, degree: int | None = None):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.degree = space.order if degree is None else degree

    @classmethod
    def constant(cls, space: JetSpace, value) -> "JetScalar":
        """A constant: ``value`` is a float or an array over point axes."""
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros(value.shape + (space.size,))
        coeffs[..., 0] = value
        return cls(space, coeffs, 0)

    @classmethod
    def variable(cls, space: JetSpace, index: int, value) -> "JetScalar":
        """The coordinate function number ``index`` expanded about ``value``."""
        if not 0 <= index < space.nvars:
            raise ValueError(f"variable index {index} out of range")
        jet = cls.constant(space, value)
        if space.order >= 1:
            unit = tuple(1 if k == index else 0 for k in range(space.nvars))
            jet.coeffs[..., space.position[unit]] = 1.0
            jet.degree = 1
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
        if isinstance(other, (int, float, np.floating, np.integer)):
            return JetScalar.constant(self.space, float(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs + other.coeffs,
                         max(self.degree, other.degree))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs - other.coeffs,
                         max(self.degree, other.degree))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, other.coeffs - self.coeffs,
                         max(self.degree, other.degree))

    def __neg__(self):
        return JetScalar(self.space, -self.coeffs, self.degree)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return JetScalar(self.space, self.coeffs * float(other), self.degree)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        space = self.space
        coeffs = space.multiply(self.coeffs, other.coeffs, self.degree, other.degree)
        if np.isfinite(coeffs).all():
            return JetScalar(space, coeffs, min(self.degree + other.degree, space.order))
        # A non-finite result: a skipped product may be 0 * inf = NaN, not
        # zero.  Form every product, as for jets without a bound.
        every = np.ones(space.size, dtype=bool)
        return JetScalar(space, space._gather(self.coeffs, other.coeffs, space.order,
                                              space.order, every, every))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise JetDomainError("division by zero")
            return JetScalar(self.space, self.coeffs / float(other), self.degree)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, float) and exponent.is_integer():
            exponent = int(exponent)
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        exponent = int(exponent)
        if exponent < 0:
            if np.any(self.coeffs[..., 0] == 0.0):
                raise JetDomainError("zero raised to a negative power")
            return self.reciprocal() ** (-exponent)
        result = JetScalar.constant(self.space, 1.0)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def reciprocal(self) -> "JetScalar":
        order = self.space.order

        def series(c0):
            if c0 == 0.0:
                raise JetDomainError("division by zero")
            return [(-1.0) ** k / c0 ** (k + 1) for k in range(order + 1)]

        return _compose_per_point(self, series, "reciprocal")

    def _compose(self, series: np.ndarray) -> "JetScalar":
        """Horner evaluation of univariate series at the nilpotent part;
        ``series`` holds one row of coefficients per point, (..., K)."""
        h = JetScalar(self.space, self.coeffs.copy(), self.degree)
        h.coeffs[..., 0] = 0.0
        acc = JetScalar.constant(self.space, series[..., -1])
        for k in range(series.shape[-1] - 2, -1, -1):
            acc = acc * h + JetScalar.constant(self.space, series[..., k])
        return acc

    def __repr__(self):
        return f"JetScalar(order={self.space.order}, value={self.value!r})"


def _per_point(values: np.ndarray):
    """A float for a single point, else the array over the point axes."""
    return float(values) if values.ndim == 0 else values


def _compose_per_point(j: JetScalar, series, name: str) -> JetScalar:
    """Compose ``j`` with the univariate series that ``series(c0)`` builds
    in Python floats from the value c0 at each point.

    A series whose coefficients leave the float range (c0**k underflows
    to 0 or overflows) raises JetDomainError naming the value.
    """
    values = j.coeffs[..., 0]
    rows = []
    for c0 in values.ravel().tolist():
        try:
            rows.append(series(c0))
        except (ZeroDivisionError, OverflowError):
            raise JetDomainError(
                f"{name} of {c0!r} has Taylor coefficients outside the float range"
            ) from None
    return j._compose(np.array(rows).reshape(values.shape + (j.space.order + 1,)))


def jet_log(j: JetScalar) -> JetScalar:
    order = j.space.order

    def series(c0):
        if c0 <= 0.0:
            raise JetDomainError(f"log of non-positive value {c0!r}")
        coeffs = [math.log(c0)]
        for k in range(1, order + 1):
            coeffs.append((-1.0) ** (k + 1) / (k * c0**k))
        return coeffs

    return _compose_per_point(j, series, "log")


def jet_exp(j: JetScalar) -> JetScalar:
    order = j.space.order

    def series(c0):
        try:
            e0 = math.exp(c0)
        except OverflowError:
            raise JetDomainError(f"exp of {c0!r} overflows a float") from None
        return [e0 / math.factorial(k) for k in range(order + 1)]

    return _compose_per_point(j, series, "exp")


def jet_sqrt(j: JetScalar) -> JetScalar:
    order = j.space.order

    def series(c0):
        if c0 <= 0.0:
            raise JetDomainError(f"sqrt of non-positive value {c0!r}")
        coeffs = [math.sqrt(c0)]
        for k in range(1, order + 1):
            # binomial(1/2, k) * c0^(1/2 - k), built up iteratively
            coeffs.append(coeffs[-1] * (1.5 - k) / (k * c0))
        return coeffs

    return _compose_per_point(j, series, "sqrt")
