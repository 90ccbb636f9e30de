"""Series engine: arithmetic, Pochhammer builders, comparison reports.

Expected coefficient tables are frozen literals; each [derived] table is
recomputed in-test by an independent brute-force oracle (subset sums or
direct partition enumeration) so the series path never checks itself.
"""

import itertools
import random
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart import series as series_module
from qpart.series import (
    COEFF_LIMIT,
    MINUS,
    PLUS,
    SPARSE_MUL_TERMS,
    CoefficientOverflowError,
    EqualityReport,
    NonUnitConstantError,
    OrderMismatchError,
    SeriesError,
    TruncatedSeries,
    compare_series,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_infinite_starts,
    series_sum,
)
from qpart.series import _div_factor, _kronecker_product, _mul_factor, _sparse_product

S = TruncatedSeries.from_coeffs


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def distinct_part_counts(nmax, max_part=None):
    """Count subsets of {1..max_part} by sum: distinct-part partitions."""
    universe = range(1, (max_part or nmax) + 1)
    counts = [0] * (nmax + 1)
    for r in range(len(list(universe)) + 1):
        for combo in itertools.combinations(universe, r):
            s = sum(combo)
            if s <= nmax:
                counts[s] += 1
    return counts


def odd_part_counts(nmax):
    """Count partitions into odd parts by brute-force recursion."""
    def count(total, largest):
        if total == 0:
            return 1
        return sum(count(total - v, v) for v in range(1, min(total, largest) + 1, 2))
    return [count(n, n) for n in range(nmax + 1)]


DISTINCT_COUNTS_10 = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
ODD_COUNTS_20 = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 27, 32, 38, 46, 54, 64]
BOUNDED_DISTINCT_5_AT_15 = [1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1]


def test_oracles_match_frozen_tables():
    assert distinct_part_counts(10) == DISTINCT_COUNTS_10
    assert odd_part_counts(20) == ODD_COUNTS_20
    assert distinct_part_counts(15, 5) == BOUNDED_DISTINCT_5_AT_15


# ---------------------------------------------------------------------------
# add / sub / shift
# ---------------------------------------------------------------------------


def test_add_simple():
    assert (S([1, 1]) + S([1, -1])).coeffs == (2, 0)


def test_add_zero_is_identity():
    s = S([3, -2, 5, 0, 7])
    assert s + TruncatedSeries.zero(4) == s


def test_add_doubles_distinct_gf():
    gf = pochhammer_infinite(PLUS, 1, 1, 10)
    doubled = gf + gf
    assert list(doubled.coeffs) == [2 * c for c in DISTINCT_COUNTS_10]
    assert list(doubled.coeffs) == [2 * c for c in distinct_part_counts(10)]


def test_add_order_mismatch():
    with pytest.raises(OrderMismatchError):
        S([1, 2]) + S([1, 2, 3])


def test_shift_simple():
    assert S([1, 1, 0, 0]).shift(2).coeffs == (0, 0, 1, 1)


def test_shift_zero_is_identity():
    s = S([4, 0, -1])
    assert s.shift(0) == s


def test_shift_beyond_order_is_zero():
    assert S([1, 2, 3]).shift(5).coeffs == (0, 0, 0)


def test_shift_rejects_negative():
    with pytest.raises(SeriesError):
        S([1]).shift(-1)


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------


def test_mul_simple():
    a = S([1, 1, 0, 0])
    b = S([1, 0, 1, 0])
    assert (a * b).coeffs == (1, 1, 1, 1)


def test_mul_one_is_identity():
    s = S([2, -3, 0, 5])
    assert s * TruncatedSeries.one(3) == s


def test_mul_bounded_distinct_product():
    prod = pochhammer_finite(PLUS, 1, 1, 5, 15)
    assert list(prod.coeffs) == BOUNDED_DISTINCT_5_AT_15
    assert list(prod.coeffs) == distinct_part_counts(15, 5)


# ---------------------------------------------------------------------------
# reciprocal
# ---------------------------------------------------------------------------


def test_reciprocal_geometric():
    assert S([1, -1] + [0] * 5).reciprocal().coeffs == (1,) * 7


def test_reciprocal_of_one():
    assert TruncatedSeries.one(6).reciprocal() == TruncatedSeries.one(6)


def test_reciprocal_odd_part_counts():
    inv = pochhammer_infinite(MINUS, 1, 2, 20).reciprocal()
    assert list(inv.coeffs) == ODD_COUNTS_20
    assert list(inv.coeffs) == odd_part_counts(20)


def test_reciprocal_requires_unit_constant():
    with pytest.raises(NonUnitConstantError):
        S([2, 1]).reciprocal()
    for order in (0, 1, 64, 300):
        for constant in (0, -2, 3):
            with pytest.raises(NonUnitConstantError):
                S([constant] + [1] * order).reciprocal()


def test_reciprocal_of_negative_unit():
    s = S([-1, 3, 2, -4, 1])
    assert s * s.reciprocal() == TruncatedSeries.one(4)


def reference_reciprocal(a):
    """The schoolbook recurrence r[i] = -a[0] * sum of a[j]*r[i-j], j >= 1."""
    out = [a[0]]
    for i in range(1, len(a)):
        out.append(-a[0] * sum(a[j] * out[i - j] for j in range(1, i + 1) if a[j]))
    return out


def _reciprocal_inputs(order):
    """Unit-constant inputs with constant term +1 and -1: dense (distinct
    parts), sparse (Euler's product, whose inverse leaves the bound at q^406;
    1 - q^3 - q^7, at q^307; 1 - 2q - q^2, at q^50) and the odd-parts
    product, whose inverse at 740 sits just under it."""
    for row in (pochhammer_infinite(PLUS, 1, 1, order).coeffs,
                pochhammer_infinite(MINUS, 1, 1, order).coeffs,
                S([1, 0, 0, -1, 0, 0, 0, -1][:order + 1], order).coeffs,
                S([1, -2, -1][:order + 1], order).coeffs,
                pochhammer_infinite(MINUS, 1, 2, order).coeffs):
        yield row
        yield tuple(map(neg, row))


def _assert_reciprocal_matches(row, want):
    """row's reciprocal is `want`, or both leave the bound at its first
    coefficient that does."""
    over = [i for i, c in enumerate(want) if abs(c) >= COEFF_LIMIT]
    if over:
        with pytest.raises(CoefficientOverflowError) as raised:
            TruncatedSeries(row).reciprocal()
        assert str(raised.value) == f"coefficient magnitude {abs(want[over[0]])} exceeds 2**63"
        assert raised.value.exponent == over[0]
    else:
        assert TruncatedSeries(row).reciprocal().coeffs == tuple(want)


def test_reciprocal_matches_schoolbook_recurrence():
    # every order 0..300, and order 740; a prefix of the reference at the
    # largest order is the reference at a smaller one, since the recurrence
    # is lower-triangular
    for top, orders in ((300, range(301)), (740, (740,))):
        for row in _reciprocal_inputs(top):
            want = reference_reciprocal(row)
            for order in orders:
                _assert_reciprocal_matches(row[:order + 1], want[:order + 1])


# ---------------------------------------------------------------------------
# pochhammer builders
# ---------------------------------------------------------------------------


def test_pochhammer_finite_small():
    assert pochhammer_finite(MINUS, 1, 1, 2, 3).coeffs == (1, -1, -1, 1)


def test_pochhammer_zero_terms_is_one():
    assert pochhammer_finite(MINUS, 1, 1, 0, 5) == TruncatedSeries.one(5)
    assert pochhammer_finite(PLUS, 3, 2, 0, 5) == TruncatedSeries.one(5)


def test_pochhammer_even_step():
    got = pochhammer_finite(MINUS, 2, 2, 2, 10)
    direct = S([1, 0, -1] + [0] * 8) * S([1, 0, 0, 0, -1] + [0] * 6)
    assert got == direct


def test_pochhammer_infinite_distinct_counts():
    got = pochhammer_infinite(PLUS, 1, 1, 8)
    assert list(got.coeffs) == DISTINCT_COUNTS_10[:9]
    assert list(got.coeffs) == distinct_part_counts(8)


def test_pochhammer_infinite_pentagonal_signs():
    got = pochhammer_infinite(MINUS, 1, 1, 12)
    assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_pochhammer_infinite_start_above_order():
    assert pochhammer_infinite(MINUS, 9, 1, 8) == TruncatedSeries.one(8)


def test_pochhammer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pochhammer_finite(2, 1, 1, 1, 5)
    with pytest.raises(ValueError):
        pochhammer_finite(MINUS, 0, 1, 1, 5)
    with pytest.raises(ValueError):
        pochhammer_finite(MINUS, 1, 1, -1, 5)
    with pytest.raises(ValueError):
        pochhammer_infinite(MINUS, 0, 1, 5)
    with pytest.raises(ValueError, match="start exponent and step must be positive"):
        pochhammer_infinite(PLUS, 1, 0, 10)


def test_pochhammer_infinite_starts_family():
    order = 30
    for sign in (PLUS, MINUS):
        family = pochhammer_infinite_starts(sign, order)
        assert len(family) == order + 1
        for m in (1, 2, 7, order, order + 1):
            assert family[m - 1] == pochhammer_infinite(sign, m, 1, order)


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


def test_compare_equal_series():
    a = S([1, 2, 3])
    assert compare_series(a, S([1, 2, 3])).equal


def test_compare_window_excludes_mismatch():
    a = S([0, 0, 0, 5, 9, 9])
    b = S([0, 0, 0, 7, 9, 9])
    full = compare_series(a, b)
    assert not full.equal and (full.index, full.left, full.right) == (3, 5, 7)
    assert compare_series(a, b, start=4).equal


def test_compare_window_names_its_first_mismatch_past_start():
    # an earlier mismatch below start is not named; the first in the window is
    a = S([1, 0, 0, 5, 9, 9, 2])
    b = S([2, 0, 0, 5, 8, 7, 2])
    assert compare_series(a, b) == EqualityReport(False, 0, 1, 2)
    assert compare_series(a, b, start=1) == EqualityReport(False, 4, 9, 8)
    assert compare_series(a, b, start=4) == EqualityReport(False, 4, 9, 8)
    assert compare_series(a, b, start=5) == EqualityReport(False, 5, 9, 7)
    assert compare_series(a, b, start=6) == EqualityReport(True)
    assert compare_series(a, b, start=9) == EqualityReport(True)
    assert compare_series(a, b, start=-3) == EqualityReport(False, 0, 1, 2)


def _signed_smallest_part_sides(k, big_n, order):
    """Both sides of the finite tail identity, built independently."""
    tails = pochhammer_infinite_starts(PLUS, order)
    lhs = series_sum([tails[j].shift(k * j) for j in range(big_n + 1)], order)
    partial = TruncatedSeries.one(order)
    for m in range(1, big_n + 1):
        partial = partial * pochhammer_finite(PLUS, m, 1, 1, order)
    recip = partial.reciprocal()
    two = TruncatedSeries.one(order).scale(2)
    bracket = TruncatedSeries.zero(order)
    for j in range(k):
        term = pochhammer_finite(MINUS, j + 1, 1, k - j - 1, order) \
            * (two - recip.shift((big_n + 1) * j))
        bracket = bracket + (term if (j + k - 1) % 2 == 0 else -term)
    return lhs, tails[0] * bracket


def test_compare_finite_tail_identity_cell():
    lhs, rhs = _signed_smallest_part_sides(2, 5, 60)
    assert compare_series(lhs, rhs).equal


def test_compare_order_mismatch():
    with pytest.raises(OrderMismatchError):
        compare_series(S([1]), S([1, 0]))


# ---------------------------------------------------------------------------
# overflow guard and serialization
# ---------------------------------------------------------------------------


def test_overflow_detected_on_construction():
    with pytest.raises(CoefficientOverflowError):
        S([1 << 63])
    # the error names the first coefficient past the bound, and its exponent
    with pytest.raises(CoefficientOverflowError) as raised:
        S([1, 2, -(1 << 63), 1 << 64])
    assert str(raised.value) == f"coefficient magnitude {1 << 63} exceeds 2**63"
    assert raised.value.exponent == 2


def test_overflow_detected_in_multiplication():
    big = S([1 << 62, 1 << 62])
    with pytest.raises(CoefficientOverflowError):
        big * S([2, 2])
    # dense operands take the Kronecker path
    terms = 2 * SPARSE_MUL_TERMS
    big = S([1 << 62] + [1] * (terms - 1))
    with pytest.raises(CoefficientOverflowError):
        big * S([2] * terms)
    with pytest.raises(CoefficientOverflowError):
        S([1 << 61] * terms) * S([-1] * terms)


def test_monomial_and_str():
    assert "3*q^2" in str(S([0, 0, 3, 0, 0]))


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


@st.composite
def series_pair(draw, max_order=10, max_coeff=40):
    order = draw(st.integers(0, max_order))
    box = st.integers(-max_coeff, max_coeff)
    a = draw(st.lists(box, min_size=order + 1, max_size=order + 1))
    b = draw(st.lists(box, min_size=order + 1, max_size=order + 1))
    return S(a), S(b)


@st.composite
def series_triple(draw, max_order=8, max_coeff=20):
    order = draw(st.integers(0, max_order))
    box = st.integers(-max_coeff, max_coeff)
    rows = [draw(st.lists(box, min_size=order + 1, max_size=order + 1)) for _ in range(3)]
    return tuple(S(r) for r in rows)


@given(series_pair())
def test_add_commutes(pair):
    a, b = pair
    assert a + b == b + a


@given(series_pair())
def test_mul_commutes(pair):
    a, b = pair
    assert a * b == b * a


@given(series_triple())
def test_mul_associates_and_distributes(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_pair())
@settings(max_examples=60)
def test_unit_constant_series_invert(pair):
    a, _ = pair
    unit = S((1,) + a.coeffs[1:])
    assert unit * unit.reciprocal() == TruncatedSeries.one(unit.order)


@given(series_pair(), st.integers(0, 6))
def test_shift_composes(pair, c):
    a, _ = pair
    assert a.shift(c).shift(1) == a.shift(c + 1)


# ---------------------------------------------------------------------------
# kernels against the plain loops they replace
# ---------------------------------------------------------------------------


def reference_mul_factor(coeffs, m, sign):
    for i in range(len(coeffs) - 1, m - 1, -1):
        coeffs[i] += sign * coeffs[i - m]


def reference_div_factor(coeffs, m, sign):
    for i in range(m, len(coeffs)):
        coeffs[i] -= sign * coeffs[i - m]


def reference_product(a, b):
    n = len(a) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def reference_sum(rows, order):
    acc = [0] * (order + 1)
    for row in rows:
        for i, c in enumerate(row):
            acc[i] += c
    return acc


BIG = (1 << 62) - 1


@st.composite
def coefficient_rows(draw, count, max_order=40):
    """(order, rows): `count` rows of one order (0 included), each sparse,
    dense or zero, with signed coefficients up to 62 bits."""
    order = draw(st.integers(0, max_order))
    rows = []
    for _ in range(count):
        kind = draw(st.sampled_from(("zero", "sparse", "dense")))
        value = st.integers(-BIG, BIG) if draw(st.booleans()) else st.integers(-9, 9)
        if kind == "zero":
            cell = st.just(0)
        elif kind == "sparse":
            cell = st.one_of(st.just(0), st.just(0), st.just(0), value)
        else:
            cell = value
        rows.append(draw(st.lists(cell, min_size=order + 1, max_size=order + 1)))
    return order, rows


def _fits(coeffs):
    return all(-COEFF_LIMIT < c < COEFF_LIMIT for c in coeffs)


@given(coefficient_rows(1), st.integers(1, 45), st.sampled_from((PLUS, MINUS)))
def test_factor_kernels_match_plain_loops(order_rows, m, sign):
    # m may reach or pass the length of the list
    (row,) = order_rows[1]
    for kernel, reference in ((_mul_factor, reference_mul_factor),
                              (_div_factor, reference_div_factor)):
        got, want = list(row), list(row)
        kernel(got, m, sign)
        reference(want, m, sign)
        assert got == want


def test_div_factor_matches_plain_loop_on_both_paths():
    # small m against the length runs the residue-class sums, larger m the
    # block walk; lengths up to 90 cover both on either side of the switch
    rng = random.Random(8)
    for length in range(91):
        row = [rng.randint(-BIG, BIG) for _ in range(length)]
        for m in range(1, length + 3):
            for sign in (PLUS, MINUS):
                got, want = list(row), list(row)
                _div_factor(got, m, sign)
                reference_div_factor(want, m, sign)
                assert got == want, (length, m, sign)


def test_factor_kernels_reject_bad_exponent():
    for kernel in (_mul_factor, _div_factor):
        with pytest.raises(ValueError):
            kernel([1, 2, 3], 0, PLUS)


@given(coefficient_rows(2, max_order=60))
@settings(max_examples=150)
def test_products_match_schoolbook(order_rows):
    n, (a, b) = order_rows
    want = reference_product(a, b)
    # both sides of the sparse crossover, whatever the operands look like
    assert _sparse_product(a, b, n) == want
    assert _kronecker_product(a, b, n) == want
    if _fits(want):
        assert (S(a) * S(b)).coeffs == tuple(want)
    else:
        with pytest.raises(CoefficientOverflowError):
            S(a) * S(b)


def test_product_paths_split_at_the_crossover(monkeypatch):
    calls = []
    for name in ("_sparse_product", "_kronecker_product"):
        original = getattr(series_module, name)
        monkeypatch.setattr(series_module, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    order = 3 * SPARSE_MUL_TERMS
    dense = S(range(1, order + 2))
    for terms in (SPARSE_MUL_TERMS, SPARSE_MUL_TERMS + 1):
        sparse = S([1] * terms, order)
        assert (sparse * dense).coeffs == tuple(reference_product(sparse.coeffs, dense.coeffs))
    assert calls == ["_sparse_product", "_kronecker_product"]


@given(st.integers(0, 4).flatmap(coefficient_rows))
def test_series_sum_matches_plain_loop(order_rows):
    order, rows = order_rows
    want = reference_sum(rows, order)
    if _fits(want):
        assert series_sum([S(r) for r in rows], order).coeffs == tuple(want)
    else:
        with pytest.raises(CoefficientOverflowError):
            series_sum([S(r) for r in rows], order)
