"""Exact truncated power series in one formal variable q over the integers.

A :class:`TruncatedSeries` stores the coefficients of q^0 .. q^N for a fixed
truncation order N; every operation is exact integer arithmetic modulo
q^(N+1).  The q-Pochhammer builders cover the finite products
(1 +- q^a)(1 +- q^(a+s))... and their infinite limits, which is all the
machinery the partition generating functions in this package need.

Coefficients are plain Python integers, so arithmetic can never wrap.  The
engine still enforces the 64-bit representation bound declared for this
artifact: any coefficient reaching |c| >= 2**63 raises
:class:`CoefficientOverflowError` instead of silently producing a value that
a fixed-width consumer could not hold.  Every series is checked when it is
constructed, so the guard sees exactly the values the plain loops produced:
``max``/``min`` test the whole vector at C speed, and only a vector that
fails is scanned again to name the first offending coefficient, whose
exponent the error carries as ``exponent``.

The kernels do their per-coefficient work inside C builtins rather than in
interpreted loops, with the same exact integer results:

* ``_mul_factor`` is one slice assignment of ``map(add|sub)`` over the list
  and its copy shifted by m.  ``_div_factor`` by (1 - q^m) is a running sum
  along each residue class mod m, one ``accumulate`` per class, when m is
  small against the length; by (1 + q^m) it first multiplies by (1 - q^m)
  and then runs the sums mod 2m.  For larger m it walks the list in blocks
  of m, each block reading the one before it, which is already updated.
  :func:`series_sum` and the coefficientwise operators also go by slice.
* The Cauchy product uses Kronecker substitution (Harvey, arXiv:0712.4046):
  both operands are packed as signed base-2**w digits into one Python int,
  the two ints are multiplied, and the first N+1 digits are read back.  The
  digit width w covers the largest possible coefficient of the product, so
  the digits never carry into each other.  An operand with at most
  ``SPARSE_MUL_TERMS`` nonzero terms (a short correction polynomial, a
  single factor) is instead multiplied row by row, one slice update per
  nonzero term, which is faster below that size.
* :meth:`TruncatedSeries.reciprocal` runs the schoolbook recurrence, one
  ``sum(map(mul))`` per coefficient.  The package's reciprocal products are
  built by dividing by one factor at a time with ``_div_factor`` instead.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, floordiv, mul, neg, sub

from ._record import Record

COEFF_LIMIT = 1 << 63

PLUS = 1
MINUS = -1


class SeriesError(Exception):
    """Base class for series-engine failures."""


class OrderMismatchError(SeriesError):
    """Two series of different truncation orders were combined."""


class NonUnitConstantError(SeriesError):
    """Reciprocal requested for a series whose constant term is not +-1."""


class CoefficientOverflowError(SeriesError):
    """A coefficient left the supported 64-bit signed range; ``exponent`` is
    the exponent of the first coefficient that did."""

    def __init__(self, message: str, exponent: int):
        super().__init__(message)
        self.exponent = exponent


def _check_bounds(coeffs) -> None:
    if not coeffs or (-COEFF_LIMIT < min(coeffs) and max(coeffs) < COEFF_LIMIT):
        return
    for i, c in enumerate(coeffs):
        if c >= COEFF_LIMIT or c <= -COEFF_LIMIT:
            raise CoefficientOverflowError(f"coefficient magnitude {abs(c)} exceeds 2**63", i)


def _halve(coeffs) -> tuple:
    """Every coefficient divided by 2, requiring exact divisibility."""
    if any(map((1).__and__, coeffs)):
        i = next(i for i, c in enumerate(coeffs) if c % 2)
        raise SeriesError(f"coefficient of q^{i} is odd: {coeffs[i]}")
    return tuple(map(floordiv, coeffs, repeat(2)))


# In-place kernels on coefficient lists.  `sign` is +1 or -1, i.e. the
# factor is (1 + sign*q^m).  Both run in O(order) and are the workhorses
# behind every Pochhammer product and every reciprocal product the package
# builds.  Both are lower-triangular: entry i of the result depends on
# entries <= i only, so a caller may drop the tail of the list before a
# call and keep the rest exact.

_ADD_SIGNED = {PLUS: add, MINUS: sub}  # sign -> (x, y) -> x + sign*y


def _mul_factor(coeffs: list, m: int, sign: int) -> None:
    """coeffs *= (1 + sign*q^m): c[i] += sign*c[i-m], from the old c."""
    if m <= 0:
        raise ValueError("factor exponent must be positive")
    if m < len(coeffs):
        coeffs[m:] = map(_ADD_SIGNED[sign], coeffs[m:], coeffs[:-m])


def _div_factor(coeffs: list, m: int, sign: int) -> None:
    """coeffs /= (1 + sign*q^m): c[i] -= sign*c[i-m], from the new c."""
    if m <= 0:
        raise ValueError("factor exponent must be positive")
    # Dividing by (1 - q^d) is a running sum along each residue class mod d,
    # and 1/(1 + q^m) = (1 - q^m)/(1 - q^(2m)).  The sums take d slice
    # updates where the block walk below takes len/m, so they serve while
    # d*d < len.
    d = m if sign == MINUS else 2 * m
    if d * d < len(coeffs):
        if sign == PLUS:
            _mul_factor(coeffs, m, MINUS)
        for j in range(d):
            coeffs[j::d] = accumulate(coeffs[j::d])
        return
    op = _ADD_SIGNED[-sign]
    for start in range(m, len(coeffs), m):
        coeffs[start:start + m] = map(op, coeffs[start:start + m], coeffs[start - m:start])


# An operand with at most this many nonzero terms is multiplied row by row,
# one slice update per nonzero term; denser operands go through Kronecker
# substitution.  Against a dense operand of 60-bit coefficients the two take
# the same time at about 18 nonzero terms at order 50, 24 at order 250 and
# 30 at order 740, so 20 stays within a quarter of the faster one there.
SPARSE_MUL_TERMS = 20


def _bits(coeffs) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length()


def _pack(coeffs, width: int) -> int:
    """sum(c[i] * 2**(8*width*i)): residues mod 2**(8*width) minus a carry
    word that takes back the 2**(8*width) each negative residue added."""
    def digits(values) -> bytes:
        return b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))

    value = int.from_bytes(digits(map(((1 << 8 * width) - 1).__and__, coeffs)), "little")
    if min(coeffs) < 0:
        value -= int.from_bytes(digits(map((0).__gt__, coeffs)), "little") << 8 * width
    return value


def _sparse_product(sparse, dense, n: int) -> list:
    """Schoolbook product truncated at q^n, one slice update per nonzero term."""
    out = [0] * (n + 1)
    for i, c in enumerate(sparse):
        if c:
            out[i:] = map(add, out[i:], map(mul, dense, repeat(c)))
    return out


def _kronecker_product(a, b, n: int) -> list:
    """Product truncated at q^n by Kronecker substitution.

    |coefficient| of the product < (n+1) * max|a| * max|b|, so digits of
    8*width bits hold every coefficient offset by half a digit, and the
    low n+1 digits of product + offset are the coefficients plus that half.
    """
    width = (_bits(a) + _bits(b) + (n + 1).bit_length() + 8) // 8
    size = width * (n + 1)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * (n + 1), "little")
    low = (_pack(a, width) * _pack(b, width) + offset) & ((1 << 8 * size) - 1)
    packed = low.to_bytes(size, "little")
    cuts = map(slice, range(0, size, width), range(width, size + 1, width))
    digits = map(int.from_bytes, map(packed.__getitem__, cuts), repeat("little"))
    return list(map(half.__rsub__, digits))


class EqualityReport(Record):
    """Verdict of a coefficientwise comparison over a window of indices.

    On failure, ``index`` is the smallest mismatching exponent and ``left``
    / ``right`` are the two coefficients found there.
    """

    __slots__ = ("equal", "index", "left", "right")

    def __init__(self, equal: bool, index: int | None = None, left: int | None = None,
                 right: int | None = None) -> None:
        self._set(equal, index, left, right)


class TruncatedSeries(Record):
    """Integer coefficient vector c[0..N] of a series known modulo q^(N+1);
    a frozen value (:mod:`qpart._record`), checked against the coefficient
    bound when it is built."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) == 0:
            raise SeriesError("a truncated series needs at least the q^0 term")
        _check_bounds(coeffs)
        _set_coeffs(self, coeffs)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build from any iterable; pad with zeros up to `order` if given."""
        cs = list(coeffs)
        if order is not None:
            if len(cs) > order + 1:
                raise SeriesError("more coefficients than order allows")
            cs.extend([0] * (order + 1 - len(cs)))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order)

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if not 0 <= i <= self.order:
            raise IndexError(f"exponent {i} outside [0, {self.order}]")
        return self.coeffs[i]

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other)
        return TruncatedSeries(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other)
        return TruncatedSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(neg, self.coeffs)))

    def scale(self, factor: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(mul, self.coeffs, repeat(factor))))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the common order."""
        self._require_same_order(other)
        a, b = self.coeffs, other.coeffs
        if a.count(0) < b.count(0):
            a, b = b, a  # a is the sparser operand
        n = self.order
        if n + 1 - a.count(0) <= SPARSE_MUL_TERMS:
            return TruncatedSeries(tuple(_sparse_product(a, b, n)))
        return TruncatedSeries(tuple(_kronecker_product(a, b, n)))

    def shift(self, c: int) -> "TruncatedSeries":
        """Multiply by q^c: coefficient i of the result is coefficient i-c."""
        if c < 0:
            raise SeriesError("shift distance must be non-negative")
        if c == 0:
            return self
        n = self.order
        if c > n:
            return TruncatedSeries.zero(n)
        return TruncatedSeries((0,) * c + self.coeffs[: n + 1 - c])

    def reciprocal(self) -> "TruncatedSeries":
        """Inverse r with self * r == 1 up to the order.

        Requires constant term +1 or -1; everything this package inverts
        (Pochhammer products) has one.  Runs the schoolbook recurrence
        r[i] = -a[0] * sum of a[j]*r[i-j] over j >= 1, one sum(map(mul)) per
        coefficient, on a plain list; only the result is checked against
        the bound.
        """
        a = self.coeffs
        if a[0] not in (1, -1):
            raise NonUnitConstantError(
                f"cannot invert series with constant term {a[0]}"
            )
        r = [a[0]]
        for i in range(1, len(a)):
            r.append(-a[0] * sum(map(mul, a[i:0:-1], r)))
        return TruncatedSeries(tuple(r))

    def halve(self) -> "TruncatedSeries":
        """Divide every coefficient by 2, requiring exact divisibility."""
        return TruncatedSeries(_halve(self.coeffs))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": list(self.coeffs)}

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*q^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"


_set_coeffs = TruncatedSeries.coeffs.__set__  # the slot's setter, past the refusing __setattr__


def series_sum(terms, order: int) -> TruncatedSeries:
    """Sum an iterable of equal-order series; empty sum is the zero series."""
    acc = [0] * (order + 1)
    for t in terms:
        if t.order != order:
            raise OrderMismatchError("summand order differs from target order")
        acc = list(map(add, acc, t.coeffs))
    return TruncatedSeries(tuple(acc))


def pochhammer_finite(sign: int, start_exp: int, step: int, terms: int,
                      order: int) -> TruncatedSeries:
    """Product of `terms` factors (1 + sign*q^(start_exp + i*step)).

    Zero terms gives the one series.  Factors whose exponent exceeds the
    order are still part of the product but cannot touch coefficients
    <= order, so they are skipped.
    """
    return TruncatedSeries(tuple(_pochhammer(sign, start_exp, step, terms, order)))


def _pochhammer(sign: int, start_exp: int, step: int, terms: int, order: int) -> list:
    """The coefficients of :func:`pochhammer_finite` as a plain list, unchecked."""
    if sign not in (PLUS, MINUS):
        raise ValueError("sign must be +1 or -1")
    if terms < 0:
        raise ValueError("number of factors must be non-negative")
    if start_exp < 1 or step < 1:
        raise ValueError("start exponent and step must be positive")
    coeffs = [1] + [0] * order
    for i in range(terms):
        m = start_exp + i * step
        if m > order:
            break
        _mul_factor(coeffs, m, sign)
    return coeffs


def pochhammer_infinite(sign: int, start_exp: int, step: int,
                        order: int) -> TruncatedSeries:
    """Infinite product limit: exactly the factors with exponent <= order.

    Later factors are 1 + O(q^(order+1)) and cannot change any retained
    coefficient.
    """
    if start_exp < 1 or step < 1:
        raise ValueError("start exponent and step must be positive")
    terms_needed = max(0, (order - start_exp) // step + 1)
    return pochhammer_finite(sign, start_exp, step, terms_needed, order)


def pochhammer_infinite_starts(sign: int, order: int) -> list[TruncatedSeries]:
    """All tail products over start exponents at step 1, in one sweep.

    Entry m-1 is the infinite product of (1 + sign*q^j) for j >= m, for
    m = 1 .. order+1.  Built by the downward recurrence
    tail(m) = (1 + sign*q^m) * tail(m+1), which costs O(order^2) total
    instead of O(order^2) per entry.
    """
    coeffs = [1] + [0] * order
    out: list[tuple[int, ...]] = [tuple(coeffs)]
    for m in range(order, 0, -1):
        _mul_factor(coeffs, m, sign)
        out.append(tuple(coeffs))
    out.reverse()
    return [TruncatedSeries(t) for t in out]


def compare_series(a: TruncatedSeries, b: TruncatedSeries,
                   start: int = 0) -> EqualityReport:
    """Coefficientwise equality over exponents [start, order]: one slice
    comparison in C, and only a window that differs is scanned again to
    name its first mismatch."""
    if a.order != b.order:
        raise OrderMismatchError(f"order mismatch: {a.order} vs {b.order}")
    start = max(start, 0)
    if a.coeffs[start:] == b.coeffs[start:]:
        return EqualityReport(True)
    for i in range(start, a.order + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return EqualityReport(False, i, a.coeffs[i], b.coeffs[i])
