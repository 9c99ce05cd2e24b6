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

    Holds the graded list of multi-indices up to ``order``, a sparse
    index table used to multiply coefficient vectors, and (built on first
    use) one gather table per derivative order for :meth:`JetScalar.partials`.
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
        left, right, out = [], [], []
        for i, a in enumerate(monomials):
            da = sum(a)
            for j, b in enumerate(monomials):
                if da + sum(b) > order:
                    continue
                left.append(i)
                right.append(j)
                out.append(self.position[tuple(p + q for p, q in zip(a, b))])
        self._left = np.asarray(left, dtype=np.intp)
        self._right = np.asarray(right, dtype=np.intp)
        self._out = np.asarray(out, dtype=np.intp)
        self._partials_tables: dict[int, np.ndarray] = {}

    def partials_table(self, degree: int) -> np.ndarray:
        """Array of shape (nvars,) * degree holding, at every index tuple,
        the position of the monomial that counts those indices."""
        table = self._partials_tables.get(degree)
        if table is None:
            m = self.nvars
            # Key a multi-index a by sum_k a_k (order+1)^k; the key of an
            # index tuple is then the sum of the weights of its entries.
            weights = (self.order + 1) ** np.arange(m, dtype=np.int64)
            keys = np.asarray(self.monomials, dtype=np.int64) @ weights
            grid = np.indices((m,) * degree, dtype=np.intp)
            tuple_keys = weights[grid].sum(axis=0)
            by_key = np.argsort(keys)
            table = by_key[np.searchsorted(keys, tuple_keys, sorter=by_key)]
            self._partials_tables[degree] = table
        return table

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size)
        np.add.at(out, self._out, a[self._left] * b[self._right])
        return out

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class JetScalar:
    """Taylor expansion of a scalar function, truncated at a total degree."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, space: JetSpace, value: float) -> "JetScalar":
        coeffs = np.zeros(space.size)
        coeffs[0] = value
        return cls(space, coeffs)

    @classmethod
    def variable(cls, space: JetSpace, index: int, value: float) -> "JetScalar":
        """The coordinate function number ``index`` expanded about ``value``."""
        if not 0 <= index < space.nvars:
            raise ValueError(f"variable index {index} out of range")
        coeffs = np.zeros(space.size)
        coeffs[0] = value
        if space.order >= 1:
            unit = tuple(1 if k == index else 0 for k in range(space.nvars))
            coeffs[space.position[unit]] = 1.0
        return cls(space, coeffs)

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def partial(self, multi_index) -> float:
        """One partial derivative: coefficient times the multi-index factorial."""
        pos = self.space.position[tuple(multi_index)]
        return float(self.coeffs[pos] * self.space.factorial[pos])

    def partials(self, degree: int) -> np.ndarray:
        """All partial derivatives of one order, as a dense symmetric array."""
        if not 0 <= degree <= self.space.order:
            raise ValueError(
                f"degree {degree} not available at truncation order {self.space.order}"
            )
        if degree == 0:
            return np.float64(self.coeffs[0])
        scaled = self.coeffs * self.space.factorial
        return scaled[self.space.partials_table(degree)]

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
        return JetScalar(self.space, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, other.coeffs - self.coeffs)

    def __neg__(self):
        return JetScalar(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return JetScalar(self.space, self.coeffs * float(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return JetScalar(self.space, self.space.multiply(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise JetDomainError("division by zero")
            return JetScalar(self.space, self.coeffs / float(other))
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
        c0 = self.value
        if c0 == 0.0:
            raise JetDomainError("division by a jet with zero value")
        series = [(-1.0) ** k / c0 ** (k + 1) for k in range(self.space.order + 1)]
        return self._compose(series)

    def _compose(self, series) -> "JetScalar":
        """Horner evaluation of a univariate series at the nilpotent part."""
        h = JetScalar(self.space, self.coeffs.copy())
        h.coeffs[0] = 0.0
        acc = JetScalar.constant(self.space, series[-1])
        for c in reversed(series[:-1]):
            acc = acc * h + c
        return acc

    def __repr__(self):
        return f"JetScalar(order={self.space.order}, value={self.value!r})"


def jet_log(j: JetScalar) -> JetScalar:
    c0 = j.value
    if c0 <= 0.0:
        raise JetDomainError(f"log of non-positive value {c0!r}")
    series = [math.log(c0)]
    for k in range(1, j.space.order + 1):
        series.append((-1.0) ** (k + 1) / (k * c0**k))
    return j._compose(series)


def jet_exp(j: JetScalar) -> JetScalar:
    try:
        e0 = math.exp(j.value)
    except OverflowError:
        raise JetDomainError(f"exp of {j.value!r} overflows a float") from None
    series = [e0 / math.factorial(k) for k in range(j.space.order + 1)]
    return j._compose(series)


def jet_sqrt(j: JetScalar) -> JetScalar:
    c0 = j.value
    if c0 <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {c0!r}")
    series = [math.sqrt(c0)]
    for k in range(1, j.space.order + 1):
        # binomial(1/2, k) * c0^(1/2 - k), built up iteratively
        series.append(series[-1] * (1.5 - k) / (k * c0))
    return j._compose(series)
