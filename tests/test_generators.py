"""The member generators of :mod:`qpart.counting` yield the same members, in
the same order, as the recursive generators they replaced.

The three recursive generators below are verbatim copies of the earlier
code and serve as references.  ``enumerate_class`` lists members in
generator order and ``qpart enumerate`` prints them in that order, so the
order is part of the output, not only the set; it is compared, class by
class, with the per-class generators kept in ``tests/oracles.py``.
"""

import oracles
from qpart import counting
from qpart.counting import enumerate_class
from qpart.partitions import CLASS_INFO, ClassSpec

# Every argument of every generator runs to one past the range that changes
# its output: above the total a bound no longer cuts anything.
TOTAL = 40
# Every class spec with k = 1..KMAX is compared at weights 0..CLASS_TOTAL.
KMAX = 5
CLASS_TOTAL = 30
# The full (v, l) grid of _c_core has 9.5 million members at total 40; it
# runs to this total, and the anchored cores (v = 2l) that every caller
# asks for run to TOTAL.
CORE_GRID_TOTAL = 24


# ---------------------------------------------------------------------------
# references: the recursive generators, verbatim
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


# ---------------------------------------------------------------------------
# same members, same order
# ---------------------------------------------------------------------------


def test_distinct_matches_reference_order():
    for total in range(TOTAL + 1):
        for hi in range(total + 2):
            for lo in range(1, total + 2):
                assert list(counting._distinct(total, hi, lo)) == \
                    list(_distinct(total, hi, lo)), (total, hi, lo)


def test_odd_multiset_matches_reference_order():
    for total in range(TOTAL + 1):
        for hi in range(-1, total + 2):
            assert list(counting._odd_multiset(total, hi)) == \
                list(_odd_multiset(total, hi)), (total, hi)


def test_c_core_matches_reference_order_at_every_anchor():
    for total in range(TOTAL + 1):
        for l in range(1, total + 2):
            assert list(counting._c_core(total, 2 * l, l)) == \
                list(_c_core(total, 2 * l, l)), (total, l)


def test_c_core_matches_reference_order_on_the_full_grid():
    for total in range(CORE_GRID_TOTAL + 1):
        for v in range(total + 2):
            for l in range(1, total + 2):
                assert list(counting._c_core(total, v, l)) == \
                    list(_c_core(total, v, l)), (total, v, l)


def test_enumerate_class_matches_reference_order():
    specs = [ClassSpec(cid, k) for cid, (requires_k, _) in CLASS_INFO.items()
             for k in (range(1, KMAX + 1) if requires_k else (None,))]
    for spec in specs:
        for n in range(CLASS_TOTAL + 1):
            assert enumerate_class(spec, n) == oracles.class_members(spec, n), (spec, n)
