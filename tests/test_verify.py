"""Verifier registry: reports, determinism, worked cells, serialization."""

import json
import tracemalloc

import oracles
import pytest

from qpart import counting, series, verify
from qpart.counting import count_ak_doubled, count_by_enumeration, gf_parity_difference
from qpart.partitions import ClassSpec
from qpart.series import MINUS, PLUS, CoefficientOverflowError, TruncatedSeries
from qpart.verify import (
    TASK_ORDER,
    TASKS,
    VerificationReport,
    reports_to_junit,
    run_task,
    stated_bound,
    task_grid,
)


def test_registry_contents():
    assert TASK_ORDER == ["T1", "T2", "T3", "T3x", "T4", "T5", "T6", "T7",
                          "T7c", "T8", "T9", "T10", "T11", "T12"]
    assert all(TASKS[tid].summary for tid in TASK_ORDER)


def test_stated_bound_values():
    assert [stated_bound(k) for k in (1, 2, 3, 4)] == [1, 12, 60, 224]


def test_unknown_task_rejected():
    with pytest.raises(KeyError):
        run_task("T99")


@pytest.mark.parametrize("task_id", TASK_ORDER)
def test_least_grid_checks_cells_and_below_it_is_rejected(task_id):
    task = TASKS[task_id]
    assert set(task.least) == set(task.parameters)
    report = run_task(task_id, **task.least)
    assert report.passed and report.checked_cells > 0
    for name, least in task.least.items():
        with pytest.raises(ValueError, match=f"{name} >= {least}, not {least - 1}"):
            run_task(task_id, **{name: least - 1})


def test_run_that_checks_no_cell_is_not_a_pass(monkeypatch):
    def notes_only(*, nmax: int = 3):
        yield "no checks"

    monkeypatch.setitem(TASKS, "T1", verify.TaskDef("T1", "empty", notes_only, {"nmax": 0}))
    with pytest.raises(ValueError, match="checked no cells"):
        run_task("T1")


def test_t1_small_grid():
    report = run_task("T1", nmax=25)
    assert report.passed
    assert report.checked_cells == 25
    assert report.parameters == {"nmax": 25}


def test_t2_small_grid_and_worked_cell():
    report = run_task("T2", kmax=2, nmax=12)
    assert report.passed
    assert report.checked_cells == 2 * 2 * 12
    assert count_by_enumeration(ClassSpec("Bk_e", 2), 8) == 6
    assert count_by_enumeration(ClassSpec("Ck_e", 2), 9) == 6
    assert count_by_enumeration(ClassSpec("Bk_o", 2), 8) == 1
    assert count_by_enumeration(ClassSpec("Ck_o", 2), 9) == 1
    assert any("4+2" in note for note in report.notes)


def test_t7_k3_difference_sequence():
    # the difference sequence collapses to the coefficients of
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3
    diff = gf_parity_difference("Dk", 3, 10)
    assert diff.coeffs[:5] == (1, -1, -1, 1, 0)
    assert all(c == 0 for c in diff.coeffs[4:])
    report = run_task("T7", kmax=3, nmax=20)
    assert report.passed


def test_t7_reads_the_bounded_pair_only_inside_the_grid(monkeypatch):
    # k(k-1)/2 is past the walk limit from k = 18 on; T7 reads the bounded
    # pair to nmax at most, and notes only the boundaries inside the grid
    report = run_task("T7", kmax=40)
    assert report.passed and report.checked_cells == 40 * 60
    assert report.notes[-1] == "k=40: branch boundaries diff(39)=0"
    walks, real = [], verify.count_row
    monkeypatch.setattr(verify, "count_row", lambda spec, hi: walks.append(hi) or real(spec, hi))
    assert run_task("T7", kmax=9, nmax=10, enum_nmax=0).passed
    assert max(walks) == 10


def test_t4_worked_cell():
    report = run_task("T4", kmax=4, nmax=10)
    assert report.passed
    assert count_ak_doubled(4, 7) == 8
    assert count_by_enumeration(ClassSpec("Dk", 4), 8) == 8


def test_t3_notes_record_empirical_onset():
    report = run_task("T3", kmax=2)
    assert report.passed
    onset_notes = [n for n in report.notes if "empirically" in n]
    assert len(onset_notes) == 2
    assert "stated bound 12" in onset_notes[1]


def test_t8_builds_each_falling_product_once_per_k(monkeypatch):
    # (q^(j+1); q)_(k-j-1) does not depend on N: one build per (k, j),
    # 21 for kmax = 6, rather than one per (k, j, N)
    built = []
    original = verify.pochhammer_finite

    def recording(sign, *args):
        if sign == -1:
            built.append(args)
        return original(sign, *args)

    monkeypatch.setattr(verify, "pochhammer_finite", recording)
    report = run_task("T8", kmax=6, n_terms=8, order=40)
    assert report.passed and report.checked_cells == 6 * 9 + 9
    assert sorted(built) == sorted((j + 1, 1, k - j - 1, 40)
                                   for k in range(1, 7) for j in range(k))


def test_t8_makes_one_product_per_cell(monkeypatch):
    # by linearity: one product per (k, N) and tail(1)*F_k once per k; the
    # reciprocals 1/((1+q)...(1+q^N)) and the tails are running divisions,
    # and tail(1)*recips[N] is read as tail(N+1), so none of them is a product
    products = []
    original = TruncatedSeries.__mul__

    def recording(a, b):
        products.append(a.order)
        return original(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
    kmax, n_terms = 6, 8
    report = run_task("T8", kmax=kmax, n_terms=n_terms, order=40)
    assert report.passed
    assert len(products) == kmax * (n_terms + 1) + kmax


def test_t8_closed_form_equals_the_per_j_bracket(monkeypatch):
    # the linear closed form against the per-j bracket loop it replaced, at
    # every (k, N) of T8's default grid
    compared = {}
    original = verify._series

    def recording(cell, left_name, lhs, right_name, rhs):
        if "k" in cell:
            compared[cell["k"], cell["N"]] = rhs
        return original(cell, left_name, lhs, right_name, rhs)

    monkeypatch.setattr(verify, "_series", recording)
    assert run_task("T8", kmax=6, n_terms=30, order=120).passed
    reference = oracles.t8_closed_forms(6, 30, 120)
    assert len(compared) == len(reference) == 6 * 31
    for cell, rhs in reference.items():
        assert compared[cell] == rhs, cell


@pytest.mark.parametrize("kmax, largest", [(0, 769), (1, 747)])
def test_t8_overflow_names_the_largest_order_that_builds(kmax, largest):
    # at order 800 the distinct-part product A leaves 2**63 first, at q^770;
    # with k = 1 the closed form's 2*A leaves it lower, at q^748, so T8's
    # limit is the least exponent of any of its series, not the first raised
    with pytest.raises(CoefficientOverflowError) as raised:
        run_task("T8", kmax=kmax, n_terms=2, order=800)
    assert str(raised.value).endswith(f"; the largest order that builds for T8 is {largest}")
    assert raised.value.exponent == largest + 1
    assert run_task("T8", kmax=kmax, n_terms=2, order=largest).passed


def test_infinite_products_are_built_once_per_order(monkeypatch):
    # A, Pe_d, SptKd (Dk - A), T9 and every Pprime(k) share (-q; q)_inf,
    # which Pprime(k) divides by 1 + q, so (-q^2; q)_inf is never built;
    # every product goes through one loop
    order = 97
    for cache in (counting.gf, counting._signed):
        cache.cache_clear()
    built = []
    original = series._pochhammer

    def recording(*args):
        built.append(args)
        return original(*args)

    for module in (counting, series):
        monkeypatch.setattr(module, "_pochhammer", recording)
    specs = [ClassSpec("A"), ClassSpec("Pe_d"), ClassSpec("Dk", 2), ClassSpec("SptKd", 2)]
    specs += [ClassSpec("Pprime", k) for k in range(1, 6)]
    for spec in specs:
        counting.gf(spec, order)
    assert run_task("T9", order=order).passed
    assert [args for args in built if args[0] == PLUS] == [(PLUS, 1, 1, order, order)]
    for cache in (counting.gf, counting._signed):
        cache.cache_clear()


@pytest.mark.parametrize("task_id, name, value", [
    ("T1", "nmax", True),
    ("T1", "nmax", 2.5),
    ("T8", "n_terms", "3"),
    ("T8", "n_terms", 3.0),
])
def test_grid_values_must_be_ints(task_id, name, value):
    with pytest.raises(ValueError, match=f"task {task_id} takes an integer {name}, not {value!r}"):
        run_task(task_id, **{name: value})


def test_reports_are_deterministic():
    a = run_task("T3x", kmax=2, order=60)
    b = run_task("T3x", kmax=2, order=60)
    assert a.to_json_dict(include_timing=False) == b.to_json_dict(include_timing=False)
    assert a.passed


def test_report_serialization_and_junit():
    passing = run_task("T12", order=20)
    failing = VerificationReport(
        task_id="TX", summary="made-up identity", status="fail",
        checked_cells=7,
        witness={"cell": {"n": 3}, "left_name": "lhs", "left": 1,
                 "right_name": "rhs", "right": 2},
        notes=["synthetic"], parameters={"nmax": 3}, wall_time=0.5)
    md = failing.to_markdown()
    assert "FAIL" in md and "first mismatch" in md and "synthetic" in md
    data = failing.to_json_dict()
    assert data["status"] == "fail" and data["witness"]["left"] == 1
    assert "wall_time_s" not in failing.to_json_dict(include_timing=False)
    xml = reports_to_junit([passing, failing])
    assert xml.count("<testcase") == 2
    assert xml.count("<failure") == 1
    assert 'name="T12"' in xml and 'name="TX"' in xml


def test_override_filtering():
    # None overrides are dropped; a key the task does not take is rejected
    # before the task runs
    report = run_task("T9", kmax=3, order=40, nmax=None)
    assert report.passed
    assert report.parameters == {"kmax": 3, "order": 40}
    with pytest.raises(TypeError, match="task T9 takes no nmax; it takes kmax, order"):
        run_task("T9", nmax=5)
    assert TASKS["T12"].parameters == ("order", "collapse_order")


def test_task_grid_fills_in_the_defaults_and_spells_each_name():
    assert task_grid("T8", {"order": 40, "kmax": None}) == {"kmax": 6, "n_terms": 30, "order": 40}
    flag = {"nmax": "--nmax", "kmax": "--kmax", "order": "--order"}.__getitem__
    for overrides, error, message in (
            ({"nmax": 5}, TypeError, "task T9 takes no --nmax; it takes --kmax, --order"),
            ({"order": -1}, ValueError, "task T9 takes --order >= 0, not -1"),
            ({"order": 2.5}, ValueError, "task T9 takes an integer --order, not 2.5")):
        with pytest.raises(error) as raised:
            task_grid("T9", overrides, flag)
        assert str(raised.value) == message
    with pytest.raises(KeyError, match="unknown task 'T99'; known: T1, T2, T3, T3x"):
        task_grid("T99", {})


def test_t12_holds_no_tail_family():
    # the tail family at collapse order 740 would be 741 series, 11 MiB
    tracemalloc.start()
    try:
        report = run_task("T12", collapse_order=740)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 << 20, peak


def _bump_enumeration(monkeypatch, spec, n):
    """One enumerated count off by one in every row of the class that
    reaches it, seen by verify and by counting alike."""
    original = counting.count_row

    def patched(s, hi, lo=0):
        row = original(s, hi, lo)
        if s != spec or not lo <= n <= hi:
            return row
        return row[:n - lo] + (row[n - lo] + 1,) + row[n - lo + 1:]

    for module in (verify, counting):
        monkeypatch.setattr(module, "count_row", patched)


def _plus_one(series, n):
    coeffs = list(series.coeffs)
    coeffs[n] += 1
    return TruncatedSeries(tuple(coeffs))


def _bump_series(monkeypatch, spec, n):
    """One generating-function coefficient off by one, in a real series."""
    original = counting.gf

    def patched(s, order):
        series = original(s, order)
        return _plus_one(series, n) if s == spec else series

    for module in (verify, counting):
        monkeypatch.setattr(module, "gf", patched)


def _bump_parity_difference(monkeypatch, family_k, n):
    """One coefficient of gf_parity_difference(family, k, order) off by one."""
    original = counting.gf_parity_difference

    def patched(family, k, order):
        series = original(family, k, order)
        return _plus_one(series, n) if (family, k) == family_k else series

    for module in (verify, counting):
        monkeypatch.setattr(module, "gf_parity_difference", patched)


def _bump_pochhammer(monkeypatch, name_args, n):
    """One coefficient off by one in the product that verify builds by
    calling `name` with exactly `args`."""
    name, args = name_args
    original = getattr(verify, name)

    def patched(*a):
        series = original(*a)
        return _plus_one(series, n) if a == args else series

    monkeypatch.setattr(verify, name, patched)


def _bump_division(monkeypatch, factor, n):
    """One coefficient off by one in every running list that verify divides
    by the factor (1 + sign*q^m), given as (m, sign), from that division on."""
    original = verify._div_factor

    def patched(coeffs, m, sign):
        original(coeffs, m, sign)
        if (m, sign) == factor:
            coeffs[n] += 1

    monkeypatch.setattr(verify, "_div_factor", patched)


def _witness(cell, left_name, left, right_name, right):
    return {"cell": cell, "left_name": left_name, "left": left,
            "right_name": right_name, "right": right}


@pytest.mark.parametrize("task, grid, bump, spec, n, cells, witness", [
    ("T1", {"nmax": 10}, _bump_enumeration, ClassSpec("B"), 5, 5,
     _witness({"n": 5}, "A(n) [enum]", 3, "B(n) [enum]", 4)),
    ("T1", {"nmax": 10}, _bump_enumeration, ClassSpec("Dk", 2), 6, 5,
     _witness({"n": 5}, "D2(n+1)", 7, "even value", 8)),
    ("T1", {"nmax": 10}, _bump_series, ClassSpec("C"), 7, 6,
     _witness({"n": 6}, "A(n) [enum]", 4, "C(n+1) [series]", 5)),
    ("T2", {"kmax": 2, "nmax": 8}, _bump_enumeration, ClassSpec("Ck_o", 2), 6, 29,
     _witness({"n": 5, "k": 2, "parity": "o"}, "Bk_o(n) [enum]", 1, "Ck_o(n+1) [enum]", 2)),
    ("T2", {"kmax": 2, "nmax": 8}, _bump_series, ClassSpec("Bk_e", 2), 4, 20,
     _witness({"n": 4, "k": 2, "parity": "e"}, "Bk_e(n) [enum]", 2, "Bk_e(n) [series]", 3)),
    ("T4", {"kmax": 3, "nmax": 8}, _bump_enumeration, ClassSpec("Pprime", 2), 4, 12,
     _witness({"n": 4, "k": 2}, "2*A_k(n) [enum]", 5, "D_k(n+1) [enum]", 4)),
    ("T4", {"kmax": 3, "nmax": 8}, _bump_series, ClassSpec("Dk", 3), 6, 21,
     _witness({"n": 5, "k": 3}, "2*A_k(n) [enum]", 6, "D_k(n+1) [series]", 7)),
    ("T6", {"nmax": 10}, _bump_enumeration, ClassSpec("E"), 7, 5,
     _witness({"n": 5}, "A(n) [enum]", 3, "E(n+2) [enum]", 4)),
    ("T6", {"nmax": 10}, _bump_series, ClassSpec("F"), 9, 8,
     _witness({"n": 8}, "A(n) [enum]", 6, "F(n+1) [series]", 7)),
    ("T10", {"kmax": 4, "nmax": 10}, _bump_enumeration, ClassSpec("Dk", 3), 7, 14,
     _witness({"n": 7, "k": 3}, "D_k(n)+D_k-1(n) [enum]", 15,
              "D_k-1(n-k+1)+2A(n) [enum]", 14)),
    ("T10", {"kmax": 4, "nmax": 10}, _bump_series, ClassSpec("A"), 6, 5,
     _witness({"n": 6, "k": 2}, "D_k(n)+D_k-1(n) [enum]", 14,
              "D_k-1(n-k+1)+2A(n) [series]", 16)),
    # an odd series D2 coefficient would floor to the right half
    ("T1", {"nmax": 10}, _bump_series, ClassSpec("Dk", 2), 8, 7,
     _witness({"n": 7}, "D2(n+1) [series]", 11, "even value", 12)),
    # T3: the odd-D_2k guard names (k, n), the chain names (n, k)
    ("T3", {"kmax": 1}, _bump_series, ClassSpec("Dk", 2), 5, 4,
     _witness({"k": 1, "n": 4}, "D_2k(n+1)", 5, "even value", 6)),
    ("T3", {"kmax": 2}, _bump_parity_difference, ("Bk", 2), 15, 65,
     _witness({"n": 15, "k": 2}, "Bk_e-Bk_o(n)", 23, "Ck_e-Ck_o(n+1)", 22)),
    ("T5", {"kmax": 1}, _bump_series, ClassSpec("Dk_e", 2), 10, 9,
     _witness({"n": 9, "k": 1}, "2*A_2k(n)", 16, "2*D_2k_e(n+1)", 18)),
    ("T7", {"kmax": 3, "nmax": 20}, _bump_parity_difference, ("Dk", 3), 5, 45,
     _witness({"k": 3, "n": 5}, "Dk_e-Dk_o(n) [series]", 1, "piecewise value", 0)),
    ("T7", {"kmax": 3, "nmax": 20}, _bump_enumeration, ClassSpec("Dk_o", 2), 7, 27,
     _witness({"k": 2, "n": 7}, "Dk_e-Dk_o(n) [enum]", -1, "piecewise value", 0)),
    ("T7c", {"kmax": 3, "nmax": 20}, _bump_series, ClassSpec("Dk_e", 3), 10, 46,
     _witness({"k": 3, "n": 10}, "Dk_e(n)", 8, "Dk_o(n)", 7)),
    ("T7c", {"kmax": 3, "nmax": 20}, _bump_series, ClassSpec("Dk", 2), 9, 28,
     _witness({"k": 2, "n": 9}, "Dk(n) mod 2", 1, "0", 0)),
    ("T11", {"kmax": 4, "nmax": 40}, _bump_series, ClassSpec("Dk", 3), 10, 7,
     _witness({"n": 10}, "D_3(n)", 15, "2A(n-3)-2A(n-1)+2A(n)", 14)),
    ("T11", {"kmax": 4, "nmax": 40}, _bump_enumeration, ClassSpec("Dk", 3), 12, 9,
     _witness({"n": 12}, "D_3(n) [enum]", 23, "2A(n-3)-2A(n-1)+2A(n)", 22)),
    ("T11", {"kmax": 4, "nmax": 40}, _bump_series, ClassSpec("Dk", 4), 30, 177,
     _witness({"k": 4, "n": 30}, "D_k(n)", 427, "2*sum(c_m*A(n-m))", 426)),
    # series witnesses: the exponent, then the cell
    ("T3x", {"kmax": 2, "order": 30}, _bump_parity_difference, ("Ck", 2), 7, 62,
     _witness({"exponent": 7, "k": 2}, "D_2k gf + alternating correction", 6,
              "2*(Ck diff gf + even correction)", 8)),
    ("T9", {"kmax": 3, "order": 30}, _bump_series, ClassSpec("Dk", 2), 9, 62,
     _witness({"exponent": 9, "k": 2}, "D_k gf", 13,
              "2*distinct_gf*polynomial + correction", 12)),
    ("T8", {"kmax": 4, "n_terms": 5, "order": 30}, _bump_pochhammer,
     ("pochhammer_finite", (MINUS, 2, 1, 1, 30)), 3, 13,
     _witness({"exponent": 3, "k": 3, "N": 0}, "signed smallest-part partial sum", 2,
              "tail-product closed form", 0)),
    # with no k rows only the two-minus-reciprocal rows run; the fault is
    # in the running reciprocal from its division by 1 + q^3 on
    ("T8", {"kmax": 0, "n_terms": 5, "order": 30}, _bump_division, (3, PLUS), 4, 4,
     _witness({"exponent": 4, "N": 3}, "sum of q^j/(1+q)...(1+q^j)", -2,
              "2 - reciprocal", -3)),
    ("T12", {"order": 20, "collapse_order": 30}, _bump_pochhammer,
     ("pochhammer_infinite", (MINUS, 2, 1, 20)), 4, 42,
     _witness({"exponent": 4, "c": 2}, "reciprocal tail product", 1,
              "termwise geometric sum", 2)),
    ("T12", {"order": 20, "collapse_order": 30}, _bump_pochhammer,
     ("pochhammer_finite", (MINUS, 1, 1, 2, 30)), 2, 156,
     _witness({"exponent": 2, "k": 3}, "signed smallest-part sum", -1,
              "alternating finite product", 0)),
    # the signed smallest-part sum is the Dk parity difference
    ("T12", {"order": 20, "collapse_order": 30}, _bump_parity_difference, ("Dk", 3), 2, 156,
     _witness({"exponent": 2, "k": 3}, "signed smallest-part sum", 0,
              "alternating finite product", -1)),
])
def test_dual_path_failure_witness(monkeypatch, task, grid, bump, spec, n, cells, witness):
    # passing reports carry no labels, so only a forced mismatch pins them
    bump(monkeypatch, spec, n)
    report = run_task(task, **grid)
    assert report.status == "fail"
    assert report.checked_cells == cells
    # json.dumps keeps key order, which the report bytes depend on
    assert json.dumps(report.witness) == json.dumps(witness)


@pytest.mark.parametrize("task_id", TASK_ORDER)
def test_report_parameters_are_the_task_parameters(task_id):
    # every parameter is reported under its own name, except T8's n_terms,
    # which the reports call N_max
    names = [{"n_terms": "N_max"}.get(p, p) for p in TASKS[task_id].parameters]
    report = run_task(task_id, **{p: 2 for p in TASKS[task_id].parameters})
    assert report.passed
    assert list(report.parameters.items()) == [(name, 2) for name in names]
