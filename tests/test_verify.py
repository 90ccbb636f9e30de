"""Verifier registry: reports, determinism, worked cells, serialization."""

import json
import tracemalloc

import pytest

from qpart import counting, verify
from qpart.counting import count_ak_doubled, count_by_enumeration, gf_parity_difference
from qpart.partitions import ClassSpec
from qpart.series import MINUS, TruncatedSeries, pochhammer_infinite_starts, series_sum
from qpart.verify import (
    TASK_ORDER,
    TASKS,
    VerificationReport,
    reports_to_junit,
    run_task,
    stated_bound,
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


def _tail_family_collapse(order: int, k: int) -> TruncatedSeries:
    """The sum of q^(jk) * tail(j+1) over j, read off the whole tail family."""
    tails = pochhammer_infinite_starts(MINUS, order)
    return series_sum([tails[j].shift(j * k) for j in range(order // k + 1)], order)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 60, 740])
def test_t12_collapse_sums_match_tail_family(order):
    sums = verify._collapse_sums(order)
    assert len(sums) == verify.T12_COLLAPSE_KMAX
    for k, got in enumerate(sums, 1):
        assert tuple(got) == _tail_family_collapse(order, k).coeffs, k


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


def _bump_series(monkeypatch, spec, n):
    """One generating-function coefficient off by one, in a real series."""
    original = counting.gf

    def patched(s, order):
        series = original(s, order)
        if s != spec:
            return series
        coeffs = list(series.coeffs)
        coeffs[n] += 1
        return TruncatedSeries(tuple(coeffs))

    for module in (verify, counting):
        monkeypatch.setattr(module, "gf", patched)


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
])
def test_dual_path_failure_witness(monkeypatch, task, grid, bump, spec, n, cells, witness):
    # passing reports carry no labels, so only a forced mismatch pins them
    bump(monkeypatch, spec, n)
    report = run_task(task, **grid)
    assert report.status == "fail"
    assert report.checked_cells == cells
    # json.dumps keeps key order, which the report bytes depend on
    assert json.dumps(report.witness) == json.dumps(witness)
