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
_PAIRS_PER_CHUNK = 2**15


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

    Holds the graded list of multi-indices up to ``order``, flat index
    tables used to multiply coefficient arrays a chunk of points at a
    time, and (built on first use) one gather table per derivative order
    for :meth:`JetScalar.partials`.
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
        # Product pairs (i, j) with deg a_i + deg a_j <= order, row-major.
        # The monomials are graded, so each i pairs with a prefix of them.
        degrees = exponents.sum(axis=1)
        prefix = np.searchsorted(degrees, np.arange(order + 1), side="right")
        lengths = prefix[order - degrees]
        left = np.repeat(np.arange(self.size), lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        right = np.arange(len(left)) - starts
        out = self._position_of_keys(self._keys[left] + self._keys[right])
        # Flat tables for a chunk of points: point p's pairs are offset by
        # p * size.  A partial chunk uses a prefix of them.
        self._pairs = len(left)
        self._chunk_points = max(1, _PAIRS_PER_CHUNK // self._pairs)
        offsets = (np.arange(self._chunk_points) * self.size)[:, None]
        self._left = (left + offsets).ravel()
        self._right = (right + offsets).ravel()
        self._out = (out + offsets).ravel()
        self._partials_tables: dict[int, np.ndarray] = {}

    def _position_of_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._by_key[np.searchsorted(self._keys, keys, sorter=self._by_key)]

    def partials_table(self, degree: int) -> np.ndarray:
        """Array of shape (nvars,) * degree holding, at every index tuple,
        the position of the monomial that counts those indices."""
        table = self._partials_tables.get(degree)
        if table is None:
            grid = np.indices((self.nvars,) * degree, dtype=np.intp)
            table = self._position_of_keys(self._weights[grid].sum(axis=0))
            self._partials_tables[degree] = table
        return table

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of coefficient arrays of shape (..., size).

        Products are gathered and summed through the flat tables a chunk
        of points at a time.  ``np.bincount`` adds each product to its
        coefficient in table order, as ``np.add.at`` into zeros would, so
        every point gets the same bits whatever the points beside it.
        """
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        a = a.reshape(-1)
        b = b.reshape(-1)
        chunk = self._chunk_points * self.size
        parts = []
        for start in range(0, len(a), chunk):
            stop = min(start + chunk, len(a))
            count = (stop - start) // self.size * self._pairs
            products = (a[start:stop].take(self._left[:count])
                        * b[start:stop].take(self._right[:count]))
            parts.append(np.bincount(self._out[:count], products, minlength=stop - start))
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
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, space: JetSpace, value) -> "JetScalar":
        """A constant: ``value`` is a float or an array over point axes."""
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros(value.shape + (space.size,))
        coeffs[..., 0] = value
        return cls(space, coeffs)

    @classmethod
    def variable(cls, space: JetSpace, index: int, value) -> "JetScalar":
        """The coordinate function number ``index`` expanded about ``value``."""
        if not 0 <= index < space.nvars:
            raise ValueError(f"variable index {index} out of range")
        jet = cls.constant(space, value)
        if space.order >= 1:
            unit = tuple(1 if k == index else 0 for k in range(space.nvars))
            jet.coeffs[..., space.position[unit]] = 1.0
        return jet

    @property
    def value(self):
        """The value: a float, or an array over the point axes."""
        return _per_point(self.coeffs[..., 0])

    def partials(self, degree: int) -> np.ndarray:
        """All partial derivatives of one order, as a dense symmetric array
        (..., nvars, ..., nvars) after the point axes."""
        if not 0 <= degree <= self.space.order:
            raise ValueError(
                f"degree {degree} not available at truncation order {self.space.order}"
            )
        if degree == 0:
            return self.coeffs[..., 0][()]
        scaled = self.coeffs * self.space.factorial
        return scaled.take(self.space.partials_table(degree), axis=-1)

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
        h = JetScalar(self.space, self.coeffs.copy())
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
