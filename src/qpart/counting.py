"""Dual-path counting: exhaustive enumeration and generating-function
coefficients for every partition class, each path an oracle for the other.

One table, ``_ENGINES``, holds the three engines of each class id.
``members(n, k)`` generates the members of weight n by recursive descent
(largest part first, residual-weight pruning); :func:`enumerate_class`, and
through it the bijections, materialises them.  ``count(n, k)`` walks the
same descent with plain recursive counters that build no members; it backs
:func:`count_by_enumeration`.  Neither reads a generating function.
``gf(k, order)`` builds the class generating function on the exact engine
in :mod:`qpart.series`, and :func:`gf` reads coefficients off it.  Each
parity-split family (Dk, Bk, Ck, and the distinct and bounded-distinct
Pe/Po pairs) has one signed builder S(k, order, sign) that marks every
part the split counts with the sign: S(+1) is the whole family and S(-1)
the even-minus-odd difference, so the halves are (S(+1) +- S(-1))/2, which
must be integral.

Every signed series is built once per (builder, k, order, sign) and kept in
one bounded cache, ``_signed``, that the two halves, the whole-family row
(Dk, SptKd, C) and :func:`gf_parity_difference` all read; a series is
immutable, so sharing it is safe.  Its bound, ``SIGNED_CACHE_SIZE``, is set
beside it.  The builders keep their running products as plain lists and
add shifted terms into one accumulator by slice.  A running core is cut to
the coefficients its later terms can still reach before each update: the
kernels are lower-triangular, so what is kept stays exact.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .partitions import (
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    anchor_decompositions,
)
from .series import (
    MINUS,
    PLUS,
    TruncatedSeries,
    _div_factor,
    _mul_factor,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_infinite_starts,
)

# ---------------------------------------------------------------------------
# raw enumerators (tuples in canonical descending order)
# ---------------------------------------------------------------------------


def _distinct(total: int, hi: int, lo: int = 1):
    """Distinct parts in [lo, hi] summing to `total`, descending."""
    if total == 0:
        yield ()
        return
    hi = min(hi, total)
    if hi < lo or (hi + lo) * (hi - lo + 1) // 2 < total:
        return
    for v in range(hi, lo - 1, -1):
        rest = total - v
        # Parts in [lo, v-1] cannot reach rest; smaller v only make it worse.
        if rest >= v and (v + lo - 1) * (v - lo) // 2 < rest:
            break
        if rest == 0:
            yield (v,)
        elif rest >= lo:
            for tail in _distinct(rest, v - 1, lo):
                yield (v,) + tail


def _odd_multiset(total: int, hi: int):
    """Odd parts <= hi with unrestricted multiplicity, descending."""
    if total == 0:
        yield ()
        return
    if hi < 1:
        return
    if hi % 2 == 0:
        hi -= 1
    if hi == 1:
        yield (1,) * total
        return
    for c in range(total // hi, -1, -1):
        for rest in _odd_multiset(total - c * hi, hi - 2):
            yield (hi,) * c + rest


def _c_core(total: int, v: int, l: int):
    """Parts <= v summing to `total`, distinct below l+1, free in (l, 2l]."""
    if total == 0:
        yield ()
        return
    if v > l:
        for c in range(total // v, -1, -1):
            for rest in _c_core(total - c * v, v - 1, l):
                yield (v,) * c + rest
        return
    # Distinct region: a part above the total can only be left out.
    if v > total:
        v = total
    if v < 1 or v * (v + 1) // 2 < total:
        return
    yield from _c_core(total, v - 1, l)
    for rest in _c_core(total - v, v - 1, l):
        yield (v,) + rest


def _window_values(l: int, k: int) -> list[int]:
    return [2 * l + 2 * i for i in range(1, k)]


def _window_subsets(l: int, k: int, budget: int, want_even: bool):
    """Distinct even window extras of the requested count parity, descending."""
    values = [v for v in _window_values(l, k) if v <= budget]
    for r in range(len(values) + 1):
        if (r % 2 == 0) != want_even:
            continue
        for combo in itertools.combinations(values, r):
            if sum(combo) <= budget:
                yield tuple(sorted(combo, reverse=True))


def _iter_bk(n: int, k: int, want_even: bool):
    # Fix the largest odd part 2l-1, pick window extras, fill with odd parts.
    for l in range(1, (n + 1) // 2 + 1):
        base = 2 * l - 1
        for extras in _window_subsets(l, k, n - base, want_even):
            rest = n - base - sum(extras)
            for fill in _odd_multiset(rest, base):
                yield tuple(sorted(extras + (base,) + fill, reverse=True))


def _iter_ck(n: int, k: int, want_even: bool):
    # Fix the anchor 2l, pick window extras, fill the core below the anchor.
    for l in range(1, n // 2 + 1):
        anchor = 2 * l
        for extras in _window_subsets(l, k, n - anchor, want_even):
            rest = n - anchor - sum(extras)
            for core in _c_core(rest, anchor, l):
                parts = tuple(sorted(extras + (anchor,) + core, reverse=True))
                yield anchor, parts


def _iter_dk(n: int, k: int, odd: int | None = None, first: int = 0):
    """Dk members with smallest part s >= first (first = 1: SptKd), and with
    a number of parts above the smallest of parity `odd` if given.

    Zero-smallest members carry their k explicit zeros.
    """
    for s in range(first, n // k + 1):
        for rest in _distinct(n - k * s, n - k * s, s + 1):
            if odd is None or len(rest) % 2 == odd:
                yield rest + (s,) * k


def _iter_e(n: int):
    for m in range(1, n + 1, 2):
        for fill in _odd_multiset(n - m, m - 2):
            yield (m,) + fill


def _iter_f(n: int):
    for m in range(2, n + 1, 2):
        for fill in _odd_multiset(n - m, m - 1):
            yield (m,) + fill


def _iter_pprime(n: int, k: int):
    rest = n - (k - 1)
    if rest < 0:
        return
    for a in _distinct(rest, rest, 2):
        yield a + (1,) * (k - 1)


def _iter_pdprime(n: int, k: int):
    # at k = 1 this is P2: no (s+1)-parts, distinct parts >= s+2
    for s in range(1, n + 1):
        rest = n - s - (s + 1) * (k - 1)
        if rest < 0:
            break
        for a in _distinct(rest, rest, s + 2):
            yield a + (s + 1,) * (k - 1) + (s,)


def _iter_distinct_parity(n: int, hi: int, odd: int):
    return (a for a in _distinct(n, hi) if len(a) % 2 == odd)


# ---------------------------------------------------------------------------
# count-only walks: the descent of the raw enumerators, their prunes
# included, with one leaf per member and no tuples built.
# ---------------------------------------------------------------------------


def _count_distinct(total: int, hi: int, lo: int = 1) -> int:
    """Leaves of :func:`_distinct`."""
    if total == 0:
        return 1
    if hi > total:
        hi = total
    if hi < lo or (hi + lo) * (hi - lo + 1) // 2 < total:
        return 0
    count = 0
    for v in range(hi, lo - 1, -1):
        rest = total - v
        if rest >= v and (v + lo - 1) * (v - lo) // 2 < rest:
            break
        if rest == 0:
            count += 1
        elif rest >= lo:
            count += _count_distinct(rest, v - 1, lo)
    return count


def _count_distinct_parity(total: int, hi: int, lo: int, odd: int) -> int:
    """Leaves of :func:`_distinct` whose number of parts has parity `odd`."""
    if total == 0:
        return 1 - odd
    if hi > total:
        hi = total
    if hi < lo or (hi + lo) * (hi - lo + 1) // 2 < total:
        return 0
    count = 0
    for v in range(hi, lo - 1, -1):
        rest = total - v
        if rest >= v and (v + lo - 1) * (v - lo) // 2 < rest:
            break
        if rest == 0:
            count += odd
        elif rest >= lo:
            count += _count_distinct_parity(rest, v - 1, lo, 1 - odd)
    return count


def _count_odd_multiset(total: int, hi: int) -> int:
    """Leaves of :func:`_odd_multiset`."""
    if total == 0:
        return 1
    if hi < 1:
        return 0
    if hi % 2 == 0:
        hi -= 1
    if hi == 1:
        return 1
    count = 0
    for c in range(total // hi, -1, -1):
        count += _count_odd_multiset(total - c * hi, hi - 2)
    return count


def _count_c_core(total: int, v: int, l: int) -> int:
    """Leaves of :func:`_c_core`."""
    if total == 0:
        return 1
    if v > l:
        count = 0
        for c in range(total // v, -1, -1):
            count += _count_c_core(total - c * v, v - 1, l)
        return count
    if v > total:
        v = total
    if v < 1 or v * (v + 1) // 2 < total:
        return 0
    return _count_c_core(total, v - 1, l) + _count_c_core(total - v, v - 1, l)


def _count_rest(total: int, lo: int, odd: int | None) -> int:
    """Distinct parts >= lo summing to `total`, of any length or of parity `odd`."""
    if odd is None:
        return _count_distinct(total, total, lo)
    return _count_distinct_parity(total, total, lo, odd)


def _count_bk(n: int, k: int, want_even: bool) -> int:
    count = 0
    for l in range(1, (n + 1) // 2 + 1):
        base = 2 * l - 1
        for extras in _window_subsets(l, k, n - base, want_even):
            count += _count_odd_multiset(n - base - sum(extras), base)
    return count


def _count_ck(n: int, k: int, want_even: bool) -> int:
    count = 0
    for l in range(1, n // 2 + 1):
        anchor = 2 * l
        for extras in _window_subsets(l, k, n - anchor, want_even):
            count += _count_c_core(n - anchor - sum(extras), anchor, l)
    return count


def _count_dk(n: int, k: int, odd: int | None = None, first: int = 0) -> int:
    return sum(_count_rest(n - k * s, s + 1, odd) for s in range(first, n // k + 1))


def _count_e(n: int) -> int:
    return sum(_count_odd_multiset(n - m, m - 2) for m in range(1, n + 1, 2))


def _count_f(n: int) -> int:
    return sum(_count_odd_multiset(n - m, m - 1) for m in range(2, n + 1, 2))


def _count_pprime(n: int, k: int) -> int:
    rest = n - (k - 1)
    return _count_distinct(rest, rest, 2) if rest >= 0 else 0


def _count_pdprime(n: int, k: int) -> int:
    count = 0
    for s in range(1, n + 1):
        rest = n - s - (s + 1) * (k - 1)
        if rest < 0:
            break
        count += _count_distinct(rest, rest, s + 2)
    return count


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _tails(sign: int, order: int) -> tuple[TruncatedSeries, ...]:
    # tails[m-1] = product of (1 + sign*q^j) over j >= m
    return tuple(pochhammer_infinite_starts(sign, order))


# Bound of the signed-build cache.  One entry is a tuple of order+1 integers
# below 2**63, at most 33 KB at order 750, so 64 entries stay under 2.2 MB.
# The series_deep benchmark (every class at order 740, then T3x, T8, T9 and
# T12) builds 44 distinct signed series and a CLI command a few, so within
# one run each is built once.
SIGNED_CACHE_SIZE = 64


@lru_cache(maxsize=SIGNED_CACHE_SIZE)
def _signed(build, k: int | None, order: int, sign: int, *rest) -> TruncatedSeries:
    """build(k, order, sign, *rest), made once per key and then shared."""
    return build(k, order, sign, *rest)


def _halves(build, parity: int):
    """Builder of the even (parity 0) or odd half of a split family, from its
    signed builder: (S(+1) + S(-1))/2 or (S(+1) - S(-1))/2."""
    def halve(k: int | None, order: int) -> TruncatedSeries:
        plus, minus = _signed(build, k, order, PLUS), _signed(build, k, order, MINUS)
        return (plus - minus if parity else plus + minus).halve()
    return halve


def _gf_distinct(k: int | None, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Distinct parts, below k when k is given, each marked with the sign."""
    if k is None:
        return pochhammer_infinite(sign, 1, 1, order)
    return pochhammer_finite(sign, 1, 1, k - 1, order)


def _tail_sum(sign: int, order: int, terms) -> TruncatedSeries:
    """Sum of q^s * tails[i] over the (s, i) in `terms`, every s <= order."""
    tails = _tails(sign, order)
    acc = [0] * (order + 1)
    for s, i in terms:
        acc[s:] = map(add, acc[s:], tails[i].coeffs)
    return TruncatedSeries(tuple(acc))


def _gf_dk(k: int, order: int, sign: int = PLUS, first: int = 0) -> TruncatedSeries:
    """Sum over the smallest-part index j >= first of q^(jk) * tail(j+1).

    With sign -1 each part above the smallest carries a -1 weight, so the
    coefficients become the even-minus-odd difference of the parity split.
    first = 1 leaves out the zero smallest part, which gives SptKd.
    """
    return _tail_sum(sign, order, ((j * k, j) for j in range(first, order // k + 1)))


def _running_sum(order: int, shift, update, k: int = 1, sign: int = PLUS) -> TruncatedSeries:
    """Sum of q^shift(l) * core_l * window_l over l = 1, 2, ... while shift(l) <= order.

    core_l is kept as one running coefficient list: update(core, l) turns
    core_(l-1) into core_l in place, from core_0 = 1.  window_l is the
    product of (1 + sign*q^v) over the window values of l at parameter k,
    which is 1 at k = 1.  The shift grows with l, so only the first
    order - shift(l) + 1 coefficients of core_l reach the sum; the rest is
    dropped before the update, which leaves the kept ones exact because
    the update kernels are lower-triangular.
    """
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    l = 1
    while (s := shift(l)) <= order:
        del core[order - s + 1:]
        update(core, l)
        term = core
        window = _window_values(l, k)
        if window:
            term = core.copy()
            for v in window:
                _mul_factor(term, v, sign)
        acc[s:] = map(add, acc[s:], term)
        l += 1
    return TruncatedSeries(tuple(acc))


def _grow_odd_core(core: list, l: int) -> None:
    # free odd parts up to 2l-1
    _div_factor(core, 2 * l - 1, MINUS)


def _grow_c_core(core: list, l: int) -> None:
    # distinct parts up to l, free parts in (l, 2l]
    _mul_factor(core, l, PLUS)
    _mul_factor(core, l, MINUS)
    _div_factor(core, 2 * l - 1, MINUS)
    _div_factor(core, 2 * l, MINUS)


def _grow_e_core(core: list, l: int) -> None:
    # free odd parts below the unique largest part 2l-1
    if l > 1:
        _div_factor(core, 2 * l - 3, MINUS)


def _gf_bk(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Largest-odd-part sum of the window-marked B product."""
    return _running_sum(order, lambda l: 2 * l - 1, _grow_odd_core, k, sign)


def _gf_ck(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Anchor sum of the window-marked C product, over the anchor half l."""
    return _running_sum(order, lambda l: 2 * l, _grow_c_core, k, sign)


def _gf_p1(order: int) -> TruncatedSeries:
    # Smallest part s >= 2, then distinct parts above s.
    return _tail_sum(PLUS, order, ((s, s) for s in range(2, order + 1)))


def _gf_pdprime(k: int, order: int) -> TruncatedSeries:
    # Smallest part s, k-1 parts s+1, then distinct parts above s+1; the
    # shift s + (s+1)(k-1) = sk + k - 1 stays <= order.
    return _tail_sum(PLUS, order, ((s * k + k - 1, min(s + 1, order))
                                   for s in range(1, (order - k + 1) // k + 1)))


class _Engine(NamedTuple):
    members: Callable  # (n, k) -> tuples; (anchor, tuple) pairs if anchored
    count: Callable  # (n, k) -> number of members, by count-only walk
    gf: Callable  # (k, order) -> generating function truncated at order


# class id -> engines; C is Ck_e and P2 is Pdprime, both at k = 1.  Rows
# reach the qpart.series functions by module-level name at call time, never
# through a captured reference, so a patch of one of those names (a tracer,
# the independence test) stays in the path.
_ENGINES: dict[str, _Engine] = {
    "A": _Engine(lambda n, k: _distinct(n, n), lambda n, k: _count_distinct(n, n),
                 _gf_distinct),
    "B": _Engine(lambda n, k: _odd_multiset(n, n) if n else (),
                 lambda n, k: _count_odd_multiset(n, n) if n else 0,
                 lambda k, order: pochhammer_infinite(MINUS, 1, 2, order).reciprocal()),
    "C": _Engine(lambda n, k: _iter_ck(n, 1, True), lambda n, k: _count_ck(n, 1, True),
                 lambda k, order: _signed(_gf_ck, 1, order, PLUS)),
    "Dk": _Engine(_iter_dk, _count_dk, lambda k, order: _signed(_gf_dk, k, order, PLUS)),
    "Dk_e": _Engine(lambda n, k: _iter_dk(n, k, 0), lambda n, k: _count_dk(n, k, 0),
                    _halves(_gf_dk, 0)),
    "Dk_o": _Engine(lambda n, k: _iter_dk(n, k, 1), lambda n, k: _count_dk(n, k, 1),
                    _halves(_gf_dk, 1)),
    "Bk_e": _Engine(lambda n, k: _iter_bk(n, k, True), lambda n, k: _count_bk(n, k, True),
                    _halves(_gf_bk, 0)),
    "Bk_o": _Engine(lambda n, k: _iter_bk(n, k, False), lambda n, k: _count_bk(n, k, False),
                    _halves(_gf_bk, 1)),
    "Ck_e": _Engine(lambda n, k: _iter_ck(n, k, True), lambda n, k: _count_ck(n, k, True),
                    _halves(_gf_ck, 0)),
    "Ck_o": _Engine(lambda n, k: _iter_ck(n, k, False), lambda n, k: _count_ck(n, k, False),
                    _halves(_gf_ck, 1)),
    "E": _Engine(lambda n, k: _iter_e(n), lambda n, k: _count_e(n),
                 lambda k, order: _running_sum(order, lambda l: 2 * l - 1, _grow_e_core)),
    "F": _Engine(lambda n, k: _iter_f(n), lambda n, k: _count_f(n),
                 lambda k, order: _running_sum(order, lambda l: 2 * l, _grow_odd_core)),
    "P1": _Engine(lambda n, k: _distinct(n, n, 2) if n else (),
                  lambda n, k: _count_distinct(n, n, 2) if n else 0,
                  lambda k, order: _gf_p1(order)),
    "P2": _Engine(lambda n, k: _iter_pdprime(n, 1), lambda n, k: _count_pdprime(n, 1),
                  lambda k, order: _gf_pdprime(1, order)),
    "Pprime": _Engine(_iter_pprime, _count_pprime,
                      lambda k, order: pochhammer_infinite(PLUS, 2, 1, order).shift(k - 1)),
    "Pdprime": _Engine(_iter_pdprime, _count_pdprime, _gf_pdprime),
    "Pe_d": _Engine(lambda n, k: _iter_distinct_parity(n, n, 0),
                    lambda n, k: _count_distinct_parity(n, n, 1, 0), _halves(_gf_distinct, 0)),
    "Po_d": _Engine(lambda n, k: _iter_distinct_parity(n, n, 1),
                    lambda n, k: _count_distinct_parity(n, n, 1, 1), _halves(_gf_distinct, 1)),
    "Pe_bounded": _Engine(lambda n, k: _iter_distinct_parity(n, k - 1, 0),
                          lambda n, k: _count_distinct_parity(n, k - 1, 1, 0),
                          _halves(_gf_distinct, 0)),
    "Po_bounded": _Engine(lambda n, k: _iter_distinct_parity(n, k - 1, 1),
                          lambda n, k: _count_distinct_parity(n, k - 1, 1, 1),
                          _halves(_gf_distinct, 1)),
    "SptKd": _Engine(lambda n, k: _iter_dk(n, k, None, 1), lambda n, k: _count_dk(n, k, None, 1),
                     lambda k, order: _signed(_gf_dk, k, order, PLUS, 1)),
}

# parity-split family -> signed builder, whose S(-1) is the even-minus-odd difference
_SIGNED = {"Dk": _gf_dk, "Bk": _gf_bk, "Ck": _gf_ck}


def enumerate_class(spec: ClassSpec, n: int) -> list:
    """Complete duplicate-free list of class members of weight n.

    C-family members come back as :class:`AnchoredPartition`, everything
    else as :class:`Partition`.
    """
    if n < 0:
        raise PartitionError("weight must be non-negative")
    members = _ENGINES[spec.class_id].members(n, spec.k)
    if spec.anchored:
        return [AnchoredPartition(a, Partition(parts)) for a, parts in members]
    return [Partition(parts) for parts in members]


@lru_cache(maxsize=65536)
def count_by_enumeration(spec: ClassSpec, n: int) -> int:
    """Number of class members of weight n, by exhaustive count-only walk.

    Walks the descent of :func:`enumerate_class` without building members
    and never reads a generating function, so it stays an independent
    oracle for :func:`gf`.
    """
    if n < 0:
        raise PartitionError("weight must be non-negative")
    return _ENGINES[spec.class_id].count(n, spec.k)


@lru_cache(maxsize=256)
def gf(spec: ClassSpec, order: int) -> TruncatedSeries:
    """Generating function of the class, truncated at `order`.

    The q^n coefficient is the class count at weight n (anchored counting
    for the C family).  Parity-split classes recombine the sign-marked
    evaluations; non-integral halves would signal an implementation bug and
    raise.
    """
    if order < 0:
        raise PartitionError("order must be non-negative")
    return _ENGINES[spec.class_id].gf(spec.k, order)


@lru_cache(maxsize=64)
def gf_parity_difference(class_family: str, k: int, order: int) -> TruncatedSeries:
    """Even-minus-odd difference series of a parity-split family.

    One evaluation of the sign-marked product at -1; cheaper and more
    direct than subtracting the two recombined halves.
    """
    if class_family not in _SIGNED:
        raise PartitionError(f"no parity split for family {class_family!r}")
    return _signed(_SIGNED[class_family], k, order, MINUS)


def count_by_series(spec: ClassSpec, n: int, order: int | None = None) -> int:
    """The q^n coefficient of the class generating function, built to at
    least order n."""
    if n < 0:
        raise PartitionError("weight must be non-negative")
    series = gf(spec, max(n, order or 0))
    return series.coefficient(n)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def ak_doubled_specs(k: int) -> tuple[ClassSpec, ...]:
    """The classes P1, Pprime, P2 and Pdprime whose counts sum to 2*A_k(n)."""
    return ClassSpec("P1"), ClassSpec("Pprime", k), ClassSpec("P2"), ClassSpec("Pdprime", k)


def count_ak_doubled(k: int, n: int, method: str = "enumeration",
                     order: int | None = None) -> int:
    """2*A_k(n) = P1 + Pprime + P2 + Pdprime counts at weight n."""
    specs = ak_doubled_specs(k)
    if method == "enumeration":
        return sum(count_by_enumeration(s, n) for s in specs)
    if method == "series":
        return sum(count_by_series(s, n, order) for s in specs)
    raise PartitionError(f"unknown counting method {method!r}")


@dataclass(frozen=True)
class DkRelation:
    """D_k(n) = 2 * sum_m coefficients[m] * A(n - m) for all n > threshold."""

    k: int
    coefficients: tuple[int, ...]
    threshold: int


def derive_dk_relation(k: int) -> DkRelation:
    """Distinct-count expansion of D_k.

    The multiplier polynomial is sum_{j=0}^{k-1} (-1)^j (q^(k-j); q)_j; the
    relation holds beyond the degree k(k-1)/2 of the alternating correction
    polynomial (q; q)_{k-1}.
    """
    if k < 1:
        raise PartitionError("k must be positive")
    threshold = k * (k - 1) // 2
    order = max(threshold, 1)
    poly = TruncatedSeries.zero(order)
    for j in range(k):
        term = pochhammer_finite(MINUS, k - j, 1, j, order)
        poly = poly + (term if j % 2 == 0 else -term)
    coeffs = list(poly.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return DkRelation(k, tuple(coeffs), threshold)


def pentagonal_indicator(n: int) -> int:
    """(-1)^m when n = m(3m+-1)/2 for some m >= 0, else 0."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    m = 1
    while m * (3 * m - 1) // 2 <= n:
        if n in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            return -1 if m % 2 else 1
        m += 1
    return 0


# ---------------------------------------------------------------------------
# tables and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class CountTable:
    """Counts of one class over 0..nmax, by one counting method."""

    spec: ClassSpec
    method: str
    values: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "class": self.spec.class_id,
            "k": self.spec.k,
            "method": self.method,
            "values": {str(n): c for n, c in sorted(self.values.items())},
        }

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in sorted(self.values.items()))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [f"| n | {self.spec} |", "| --- | --- |"]
        lines.extend(f"| {n} | {c} |" for n, c in sorted(self.values.items()))
        return "\n".join(lines) + "\n"


def count_table(spec: ClassSpec, nmax: int, method: str = "enumeration",
                order: int | None = None) -> CountTable:
    if method == "enumeration":
        values = {n: count_by_enumeration(spec, n) for n in range(nmax + 1)}
    elif method == "series":
        series = gf(spec, max(nmax, order or 0))
        values = {n: series.coefficient(n) for n in range(nmax + 1)}
    else:
        raise PartitionError(f"unknown counting method {method!r}")
    return CountTable(spec, method, values)


@dataclass(frozen=True)
class AmbiguityReport:
    """Anchored versus raw-multiset counts for the C family at one weight."""

    k: int
    n: int
    anchored_even: int
    anchored_odd: int
    raw_even: int
    raw_odd: int
    raw_distinct_multisets: int
    ambiguous: tuple[tuple[Partition, tuple[AnchoredPartition, ...]], ...]

    @property
    def diverges(self) -> bool:
        return (self.anchored_even != self.raw_even
                or self.anchored_odd != self.raw_odd
                or self.anchored_even + self.anchored_odd != self.raw_distinct_multisets)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "anchored": {"even": self.anchored_even, "odd": self.anchored_odd},
            "raw": {"even": self.raw_even, "odd": self.raw_odd,
                    "distinct_multisets": self.raw_distinct_multisets},
            "diverges": self.diverges,
            "ambiguous": [
                {"parts": p.to_json(),
                 "decompositions": [ap.to_json() for ap in aps]}
                for p, aps in self.ambiguous
            ],
        }


def c_family_ambiguity(k: int, n: int) -> AmbiguityReport:
    """Compare anchored counting with raw-multiset counting at weight n.

    Raw counting asks only whether *some* valid decomposition of the
    multiset has the requested extras parity, so a multiset with two
    decompositions of different parity lands in both raw classes while the
    anchored count books each decomposition once.
    """
    anchored_even = count_by_enumeration(ClassSpec("Ck_e", k), n)
    anchored_odd = count_by_enumeration(ClassSpec("Ck_o", k), n)
    seen: dict[tuple[int, ...], list[AnchoredPartition]] = {}
    for anchor, parts in itertools.chain(_iter_ck(n, k, True), _iter_ck(n, k, False)):
        seen.setdefault(parts, []).append(AnchoredPartition(anchor, Partition(parts)))
    raw_even = raw_odd = 0
    ambiguous = []
    for parts in sorted(seen):
        p = Partition(parts)
        decomps = anchor_decompositions(k, p)
        parities = {len([v for v in parts if v > ap.anchor]) % 2 for ap in decomps}
        if 0 in parities:
            raw_even += 1
        if 1 in parities:
            raw_odd += 1
        if len(decomps) > 1:
            ambiguous.append((p, tuple(decomps)))
    return AmbiguityReport(
        k=k, n=n,
        anchored_even=anchored_even, anchored_odd=anchored_odd,
        raw_even=raw_even, raw_odd=raw_odd,
        raw_distinct_multisets=len(seen),
        ambiguous=tuple(ambiguous),
    )
