"""Dual-path counting: exhaustive enumeration and generating-function
coefficients for every partition class, each path an oracle for the other.

The enumeration path generates every class member of a given weight by
recursive descent (largest part first, residual-weight pruning).
:func:`enumerate_class`, and through it the bijections, materialises the
members from generators; :func:`count_by_enumeration` walks the same
descent with plain recursive counters that build no members.  Neither
reads a generating function.  The series path builds the class generating
function on the exact engine in :mod:`qpart.series` and reads off
coefficients.  Parity-split families (Bk, Ck, Dk) come from one evaluation
of the sign-marked product at each of the two sign choices: the sum at +1
and the difference at -1 recombine as (sum +- difference)/2, which must be
integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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
    series_sum,
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
        for rest in _distinct(total - v, v - 1, lo):
            yield (v,) + rest


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
    if v < 1:
        return
    if v <= l and v * (v + 1) // 2 < total:
        return
    if v > l:
        for c in range(total // v, -1, -1):
            for rest in _c_core(total - c * v, v - 1, l):
                yield (v,) * c + rest
    else:
        for rest in _c_core(total, v - 1, l):
            yield rest
        if v <= total:
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


def _iter_a(n: int):
    yield from _distinct(n, n)


def _iter_b(n: int):
    if n >= 1:
        yield from _odd_multiset(n, n)


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


def _iter_dk(n: int, k: int, parity: str = "any"):
    """Dk members; zero-smallest members carry their k explicit zeros."""
    def take(length_above: int) -> bool:
        if parity == "any":
            return True
        want_even = parity == "e"
        return (length_above % 2 == 0) == want_even

    for a in _distinct(n, n):
        if take(len(a)):
            yield a + (0,) * k
    for s in range(1, n // k + 1):
        for rest in _distinct(n - k * s, n - k * s, s + 1):
            if take(len(rest)):
                yield rest + (s,) * k


def _iter_sptkd(n: int, k: int):
    for s in range(1, n // k + 1):
        for rest in _distinct(n - k * s, n - k * s, s + 1):
            yield rest + (s,) * k


def _iter_e(n: int):
    for m in range(1, n + 1, 2):
        for fill in _odd_multiset(n - m, m - 2):
            yield (m,) + fill


def _iter_f(n: int):
    for m in range(2, n + 1, 2):
        for fill in _odd_multiset(n - m, m - 1):
            yield (m,) + fill


def _iter_p1(n: int):
    if n >= 1:
        yield from _distinct(n, n, 2)


def _iter_p2(n: int):
    for s in range(1, n + 1):
        for rest in _distinct(n - s, n - s, s + 2):
            yield rest + (s,)


def _iter_pprime(n: int, k: int):
    if k == 1:
        yield from _distinct(n, n, 2)
        return
    rest = n - (k - 1)
    if rest < 0:
        return
    for a in _distinct(rest, rest, 2):
        yield a + (1,) * (k - 1)


def _iter_pdprime(n: int, k: int):
    if k == 1:
        yield from _iter_p2(n)
        return
    for s in range(1, n + 1):
        rest = n - s - (s + 1) * (k - 1)
        if rest < 0:
            break
        for a in _distinct(rest, rest, s + 2):
            yield a + (s + 1,) * (k - 1) + (s,)


def _iter_p_parity(n: int, want_even: bool, max_part: int | None = None):
    hi = n if max_part is None else min(n, max_part)
    for a in _distinct(n, hi):
        if (len(a) % 2 == 0) == want_even:
            yield a


def _raw_members(spec: ClassSpec, n: int):
    """Tuples (or (anchor, tuple) pairs for the C family) of weight n."""
    if n < 0:
        raise PartitionError("weight must be non-negative")
    cid, k = spec.class_id, spec.k
    if cid == "A":
        return _iter_a(n)
    if cid == "B":
        return _iter_b(n)
    if cid == "C":
        return _iter_ck(n, 1, True)
    if cid == "Dk":
        return _iter_dk(n, k)
    if cid == "Dk_e":
        return _iter_dk(n, k, "e")
    if cid == "Dk_o":
        return _iter_dk(n, k, "o")
    if cid == "Bk_e":
        return _iter_bk(n, k, True)
    if cid == "Bk_o":
        return _iter_bk(n, k, False)
    if cid == "Ck_e":
        return _iter_ck(n, k, True)
    if cid == "Ck_o":
        return _iter_ck(n, k, False)
    if cid == "E":
        return _iter_e(n)
    if cid == "F":
        return _iter_f(n)
    if cid == "P1":
        return _iter_p1(n)
    if cid == "P2":
        return _iter_p2(n)
    if cid == "Pprime":
        return _iter_pprime(n, k)
    if cid == "Pdprime":
        return _iter_pdprime(n, k)
    if cid == "Pe_d":
        return _iter_p_parity(n, True)
    if cid == "Po_d":
        return _iter_p_parity(n, False)
    if cid == "Pe_bounded":
        return _iter_p_parity(n, True, k - 1)
    if cid == "Po_bounded":
        return _iter_p_parity(n, False, k - 1)
    if cid == "SptKd":
        return _iter_sptkd(n, k)
    raise PartitionError(f"unhandled class id {cid!r}")


def enumerate_class(spec: ClassSpec, n: int) -> list:
    """Complete duplicate-free list of class members of weight n.

    C-family members come back as :class:`AnchoredPartition`, everything
    else as :class:`Partition`.
    """
    if spec.anchored:
        return [AnchoredPartition(a, Partition(parts)) for a, parts in _raw_members(spec, n)]
    return [Partition(parts) for parts in _raw_members(spec, n)]


# ---------------------------------------------------------------------------
# count-only walks: the descent of the raw enumerators, one leaf per member,
# building no tuples.  Pruning uses the enumerators' tests, but a walk skips a
# subtree that holds no member (one test ends a whole run of values) where
# the enumerator would enter it and return empty.
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
        # Parts in [lo, v-1] cannot reach rest; smaller v only make it worse.
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
    # Distinct region: a part above the total can only be left out.
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


def _count_dk(n: int, k: int, odd: int | None = None) -> int:
    count = _count_rest(n, 1, odd)
    for s in range(1, n // k + 1):
        count += _count_rest(n - k * s, s + 1, odd)
    return count


def _count_sptkd(n: int, k: int) -> int:
    return sum(_count_distinct(n - k * s, n - k * s, s + 1) for s in range(1, n // k + 1))


def _count_e(n: int) -> int:
    return sum(_count_odd_multiset(n - m, m - 2) for m in range(1, n + 1, 2))


def _count_f(n: int) -> int:
    return sum(_count_odd_multiset(n - m, m - 1) for m in range(2, n + 1, 2))


def _count_pprime(n: int, k: int) -> int:
    rest = n - (k - 1)
    return _count_distinct(rest, rest, 2) if rest >= 0 else 0


def _count_pdprime(n: int, k: int) -> int:
    # at k = 1 this is the P2 walk: no (s+1)-parts, distinct parts >= s+2
    count = 0
    for s in range(1, n + 1):
        rest = n - s - (s + 1) * (k - 1)
        if rest < 0:
            break
        count += _count_distinct(rest, rest, s + 2)
    return count


# class id -> count-only walk (n, k) -> number of members of weight n
_WALKS = {
    "A": lambda n, k: _count_distinct(n, n),
    "B": lambda n, k: _count_odd_multiset(n, n) if n >= 1 else 0,
    "C": lambda n, k: _count_ck(n, 1, True),
    "Dk": lambda n, k: _count_dk(n, k),
    "Dk_e": lambda n, k: _count_dk(n, k, 0),
    "Dk_o": lambda n, k: _count_dk(n, k, 1),
    "Bk_e": lambda n, k: _count_bk(n, k, True),
    "Bk_o": lambda n, k: _count_bk(n, k, False),
    "Ck_e": lambda n, k: _count_ck(n, k, True),
    "Ck_o": lambda n, k: _count_ck(n, k, False),
    "E": lambda n, k: _count_e(n),
    "F": lambda n, k: _count_f(n),
    "P1": lambda n, k: _count_distinct(n, n, 2) if n >= 1 else 0,
    "P2": lambda n, k: _count_pdprime(n, 1),
    "Pprime": _count_pprime,
    "Pdprime": _count_pdprime,
    "Pe_d": lambda n, k: _count_distinct_parity(n, n, 1, 0),
    "Po_d": lambda n, k: _count_distinct_parity(n, n, 1, 1),
    "Pe_bounded": lambda n, k: _count_distinct_parity(n, k - 1, 1, 0),
    "Po_bounded": lambda n, k: _count_distinct_parity(n, k - 1, 1, 1),
    "SptKd": _count_sptkd,
}


@lru_cache(maxsize=65536)
def count_by_enumeration(spec: ClassSpec, n: int) -> int:
    """Number of class members of weight n, by exhaustive count-only walk.

    Walks the descent of :func:`enumerate_class` without building members
    and never reads a generating function, so it stays an independent
    oracle for :func:`gf`.
    """
    if n < 0:
        raise PartitionError("weight must be non-negative")
    return _WALKS[spec.class_id](n, spec.k)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _tails(sign: int, order: int) -> tuple[TruncatedSeries, ...]:
    # tails[m-1] = product of (1 + sign*q^j) over j >= m
    return tuple(pochhammer_infinite_starts(sign, order))


def _gf_a(order: int) -> TruncatedSeries:
    return pochhammer_infinite(PLUS, 1, 1, order)


def _gf_b(order: int) -> TruncatedSeries:
    return pochhammer_infinite(MINUS, 1, 2, order).reciprocal()


def _gf_dk(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Sum over the smallest-part index j of q^(jk) * tail(j+1).

    With sign -1 each part above the smallest carries a -1 weight, so the
    coefficients become the even-minus-odd difference of the parity split.
    """
    tails = _tails(sign, order)
    terms = []
    j = 0
    while j * k <= order:
        terms.append(tails[j].shift(j * k))
        j += 1
    return series_sum(terms, order)


def _gf_sptkd(k: int, order: int) -> TruncatedSeries:
    tails = _tails(PLUS, order)
    terms = []
    j = 1
    while j * k <= order:
        terms.append(tails[j].shift(j * k))
        j += 1
    return series_sum(terms, order)


def _apply_window(coeffs: list, l: int, k: int, sign: int, order: int) -> None:
    for v in _window_values(l, k):
        if v <= order:
            _mul_factor(coeffs, v, sign)


def _gf_ck(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Anchor sum of the window-marked C product.

    The running factor distinct(1..l) / tail(l+1..2l) is maintained
    incrementally over the anchor half l; each summand then multiplies in
    its up-to-(k-1) window factors and shifts by the anchor weight 2l.
    """
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    l = 0
    while 2 * (l + 1) <= order:
        l += 1
        if l <= order:
            _mul_factor(core, l, PLUS)
            _mul_factor(core, l, MINUS)
        if 2 * l - 1 <= order:
            _div_factor(core, 2 * l - 1, MINUS)
        if 2 * l <= order:
            _div_factor(core, 2 * l, MINUS)
        term = core.copy()
        _apply_window(term, l, k, sign, order)
        shift = 2 * l
        for i in range(order - shift, -1, -1):
            if term[i]:
                acc[i + shift] += term[i]
    return TruncatedSeries(tuple(acc))


def _gf_bk(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Largest-odd-part sum of the window-marked B product."""
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    l = 0
    while 2 * (l + 1) - 1 <= order:
        l += 1
        if 2 * l - 1 <= order:
            _div_factor(core, 2 * l - 1, MINUS)
        term = core.copy()
        _apply_window(term, l, k, sign, order)
        shift = 2 * l - 1
        for i in range(order - shift, -1, -1):
            if term[i]:
                acc[i + shift] += term[i]
    return TruncatedSeries(tuple(acc))


def _gf_c(order: int) -> TruncatedSeries:
    return _gf_ck(1, order)


def _gf_e(order: int) -> TruncatedSeries:
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    m = 0
    while 2 * m + 1 <= order:
        if m >= 1 and 2 * m - 1 <= order:
            _div_factor(core, 2 * m - 1, MINUS)
        shift = 2 * m + 1
        for i in range(order - shift, -1, -1):
            if core[i]:
                acc[i + shift] += core[i]
        m += 1
    return TruncatedSeries(tuple(acc))


def _gf_f(order: int) -> TruncatedSeries:
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    m = 1
    while 2 * m <= order:
        if 2 * m - 1 <= order:
            _div_factor(core, 2 * m - 1, MINUS)
        shift = 2 * m
        for i in range(order - shift, -1, -1):
            if core[i]:
                acc[i + shift] += core[i]
        m += 1
    return TruncatedSeries(tuple(acc))


def _gf_p1(order: int) -> TruncatedSeries:
    tails = _tails(PLUS, order)
    # Tail products starting above the order are identically 1.
    terms = [tails[s].shift(s) for s in range(2, order + 1)]
    return series_sum(terms, order)


def _gf_p2(order: int) -> TruncatedSeries:
    tails = _tails(PLUS, order)
    terms = [tails[min(s + 1, order)].shift(s) for s in range(1, order + 1)]
    return series_sum(terms, order)


def _gf_pprime(k: int, order: int) -> TruncatedSeries:
    return pochhammer_infinite(PLUS, 2, 1, order).shift(k - 1)


def _gf_pdprime(k: int, order: int) -> TruncatedSeries:
    if k == 1:
        return _gf_p2(order)
    tails = _tails(PLUS, order)
    terms = []
    s = 1
    while s + (s + 1) * (k - 1) <= order:
        tail = tails[min(s + 1, order)]
        terms.append(tail.shift(s + (s + 1) * (k - 1)))
        s += 1
    return series_sum(terms, order)


def _gf_p_parity(order: int, want_even: bool, k: int | None = None) -> TruncatedSeries:
    if k is None:
        plus = pochhammer_infinite(PLUS, 1, 1, order)
        minus = pochhammer_infinite(MINUS, 1, 1, order)
    else:
        plus = pochhammer_finite(PLUS, 1, 1, k - 1, order)
        minus = pochhammer_finite(MINUS, 1, 1, k - 1, order)
    combined = plus + minus if want_even else plus - minus
    return combined.halve()


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
    cid, k = spec.class_id, spec.k
    if cid == "A":
        return _gf_a(order)
    if cid == "B":
        return _gf_b(order)
    if cid == "C":
        return _gf_c(order)
    if cid == "Dk":
        return _gf_dk(k, order)
    if cid == "Dk_e":
        return (_gf_dk(k, order, PLUS) + _gf_dk(k, order, MINUS)).halve()
    if cid == "Dk_o":
        return (_gf_dk(k, order, PLUS) - _gf_dk(k, order, MINUS)).halve()
    if cid == "Bk_e":
        return (_gf_bk(k, order, PLUS) + _gf_bk(k, order, MINUS)).halve()
    if cid == "Bk_o":
        return (_gf_bk(k, order, PLUS) - _gf_bk(k, order, MINUS)).halve()
    if cid == "Ck_e":
        return (_gf_ck(k, order, PLUS) + _gf_ck(k, order, MINUS)).halve()
    if cid == "Ck_o":
        return (_gf_ck(k, order, PLUS) - _gf_ck(k, order, MINUS)).halve()
    if cid == "E":
        return _gf_e(order)
    if cid == "F":
        return _gf_f(order)
    if cid == "P1":
        return _gf_p1(order)
    if cid == "P2":
        return _gf_p2(order)
    if cid == "Pprime":
        return _gf_pprime(k, order)
    if cid == "Pdprime":
        return _gf_pdprime(k, order)
    if cid == "Pe_d":
        return _gf_p_parity(order, True)
    if cid == "Po_d":
        return _gf_p_parity(order, False)
    if cid == "Pe_bounded":
        return _gf_p_parity(order, True, k)
    if cid == "Po_bounded":
        return _gf_p_parity(order, False, k)
    if cid == "SptKd":
        return _gf_sptkd(k, order)
    raise PartitionError(f"unhandled class id {cid!r}")


@lru_cache(maxsize=64)
def gf_parity_difference(class_family: str, k: int, order: int) -> TruncatedSeries:
    """Even-minus-odd difference series of a parity-split family.

    One evaluation of the sign-marked product at -1; cheaper and more
    direct than subtracting the two recombined halves.
    """
    if class_family == "Dk":
        return _gf_dk(k, order, MINUS)
    if class_family == "Bk":
        return _gf_bk(k, order, MINUS)
    if class_family == "Ck":
        return _gf_ck(k, order, MINUS)
    raise PartitionError(f"no parity split for family {class_family!r}")


def count_by_series(spec: ClassSpec, n: int, order: int | None = None) -> int:
    series = gf(spec, max(n, order or 0))
    return series.coefficient(n)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def count_ak_doubled(k: int, n: int, method: str = "enumeration",
                     order: int | None = None) -> int:
    """2*A_k(n) = P1 + Pprime + P2 + Pdprime counts at weight n."""
    specs = [
        ClassSpec("P1"),
        ClassSpec("Pprime", k),
        ClassSpec("P2"),
        ClassSpec("Pdprime", k),
    ]
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
