"""Command-line surface: dispatch, formats, exit codes, determinism."""

import argparse
import hashlib
import inspect
import itertools
import json
import time
from pathlib import Path

import pytest

from qpart import bijections, cli, counting, verify
from qpart.cli import BIJECTION_FLAGS, main
from qpart.counting import count_row

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_count_single_value(capsys):
    code, out = run_cli(capsys, "count", "--class", "Dk", "--k", "2", "--n", "7")
    assert code == 0
    assert out.strip() == "8"


def test_count_at_a_large_k_reads_only_the_window_values_that_fit(capsys):
    # past k = 28 no more window values fit under weight 60
    for cls, want in (("Bk_e", "16048"), ("Ck_o", "9006")):
        code, out = run_cli(capsys, "count", "--class", cls, "--k", "40", "--n", "60")
        assert (code, out.strip()) == (0, want), cls


def test_count_both_methods_json(capsys):
    code, out = run_cli(capsys, "count", "--class", "Bk_e", "--k", "2", "--n", "8",
                        "--method", "both", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 6
    assert data["methods"] == ["enumeration", "series"]


def test_count_table_csv(capsys):
    code, out = run_cli(capsys, "count", "--class", "A", "--nmax", "6",
                        "--method", "both", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    assert out.splitlines()[-1] == "6,4"


def test_count_requires_k_for_parameterized_class(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--class", "Dk", "--n", "7"])
    assert err.value.code == 2


def test_unknown_class_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--class", "Zk", "--n", "7"])
    assert err.value.code == 2


def test_enumerate_json_schema(capsys):
    code, out = run_cli(capsys, "enumerate", "--class", "Ck_o", "--k", "2",
                        "--n", "9", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["members"] == [{"anchor": 2, "parts": [4, 2, 2, 1]}]


def test_series_json(capsys):
    code, out = run_cli(capsys, "series", "--class", "A", "--order", "8")
    assert code == 0
    data = json.loads(out)
    assert data == {"order": 8, "coeffs": [1, 1, 1, 2, 2, 3, 4, 5, 6]}


def test_series_env_default_order(capsys, monkeypatch):
    monkeypatch.setenv("QPART_DEFAULT_ORDER", "5")
    code, out = run_cli(capsys, "series", "--class", "B")
    assert code == 0
    assert json.loads(out)["order"] == 5


def test_series_env_default_order_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("QPART_DEFAULT_ORDER", "abc")
    with pytest.raises(SystemExit) as err:
        main(["series", "--class", "A"])
    assert err.value.code == 2
    assert "QPART_DEFAULT_ORDER" in capsys.readouterr().err


@pytest.mark.parametrize("argv, largest", [
    (["series", "--class", "A", "--order", "1000"], "A is 769"),
    (["count", "--class", "A", "--n", "900", "--method", "series"], "A is 769"),
    (["count", "--class", "Dk", "--k", "2", "--nmax", "800", "--method", "both"],
     "Dk(k=2) is 748"),
    (["series", "--class", "Ck_e", "--k", "4", "--order", "1000"], "Ck_e(k=4) is 770"),
    (["verify", "--task", "T8", "--order", "748"], "T8 is 747"),
], ids=["argv0", "argv1", "argv2", "argv3", "argv4"])
def test_coefficient_overflow_is_usage_error(capsys, argv, largest):
    # the message names the largest order that builds for the class
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "exceeds 2**63" in message
    assert f"the largest order that builds for {largest}" in message


@pytest.mark.parametrize("task, nmax, largest", [
    ("T1", 748, "Dk(k=2) is 748"),  # T1 reads order nmax + 2
    ("T2", 800, "Bk_e(k=1) is 769"),
])
def test_verify_overflow_exits_before_any_walk(capsys, monkeypatch, task, nmax, largest):
    # the enumeration rows to weight ~nmax would take minutes; the series
    # path is read first, so its overflow is the usage error
    walks = []
    monkeypatch.setattr(verify, "count_row", lambda spec, hi: walks.append((spec, hi)))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["verify", "--task", task, "--nmax", str(nmax)])
    assert err.value.code == 2
    assert f"the largest order that builds for {largest}" in capsys.readouterr().err
    assert walks == []
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv, weight", [
    (["count", "--class", "C", "--n", str(counting.WALK_WEIGHT_MAX + 1)],
     counting.WALK_WEIGHT_MAX + 1),
    (["count", "--class", "Dk", "--k", "2", "--nmax", str(counting.WALK_WEIGHT_MAX + 1)],
     counting.WALK_WEIGHT_MAX + 1),
    (["verify", "--task", "T1", "--nmax", "745"], 747),  # T1 reads row nmax + 2
])
def test_walk_past_the_walk_weight_limit_exits_2(capsys, argv, weight):
    # every series still builds, so the walk limit is the usage error, and
    # it comes before any walk
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert (f"weight {weight} is past {counting.WALK_WEIGHT_MAX}, the largest weight a "
            "row walk takes") in capsys.readouterr().err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["enumerate", "--class", "Dk", "--k", "1"],
    ["bijection", "--name", "glaisher", "--roundtrip"],
    ["count", "--class", "Ck_e", "--k", "2", "--raw-diagnostic"],
])
def test_member_paths_past_the_member_weight_limit_exit_2(capsys, argv):
    # the member limit is the usage error, and it comes before any member
    # is built; the limit itself is still accepted
    limit = counting.MEMBER_WEIGHT_MAX
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main([*argv, "--n", str(limit + 1)])
    assert err.value.code == 2
    assert (f"weight {limit + 1} is past {limit}, the largest weight whose members are "
            "built") in capsys.readouterr().err
    assert time.perf_counter() - start < 5
    code, out = run_cli(capsys, "enumerate", "--class", "Pe_bounded", "--k", "3",
                        "--n", str(limit))
    assert code == 0
    assert out.endswith("0 member(s)\n")


def test_coefficient_overflow_builds_the_class_series_once(capsys, monkeypatch):
    # the library names the largest order, so the CLI searches for nothing
    engine = counting._ENGINES["Ck_e"]
    builds = []
    monkeypatch.setitem(counting._ENGINES, "Ck_e", engine._replace(
        gf=lambda k, order: builds.append(order) or engine.gf(k, order)))
    with pytest.raises(SystemExit) as err:
        main(["series", "--class", "Ck_e", "--k", "4", "--order", "1000"])
    assert err.value.code == 2
    assert "the largest order that builds for Ck_e(k=4) is 770" in capsys.readouterr().err
    assert builds == [1000]


@pytest.mark.parametrize("argv, flag", [
    (("Ck_o", "--k", "2", "--nmax", "6", "--raw-diagnostic"),
     "--raw-diagnostic takes no --nmax"),
    (("Ck_e", "--k", "2", "--n", "6", "--raw-diagnostic", "--method", "series"),
     "--raw-diagnostic takes no --method"),
    (("Ck_e", "--k", "2", "--n", "6", "--raw-diagnostic", "--format", "csv"),
     "--raw-diagnostic takes no --format"),
], ids=["nmax-raw", "method-raw", "format-raw"])
def test_count_flags_are_the_ones_the_path_reads(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(["count", "--class", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(f"count {flag}")


def test_count_negative_weight_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--class", "A", "--n", "-1"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "weight must be non-negative" in message
    for method in ("series", "both"):
        with pytest.raises(SystemExit) as err:
            main(["count", "--class", "A", "--n", "-1", "--method", method])
        assert err.value.code == 2
        assert capsys.readouterr().err == message
    for method in ("enumeration", "series", "both"):
        with pytest.raises(SystemExit) as err:
            main(["count", "--class", "A", "--nmax", "-1", "--method", method])
        assert err.value.code == 2
        assert capsys.readouterr().err == message


def test_count_takes_no_order(capsys):
    # a series count builds to its weight, where the coefficient is final
    with pytest.raises(SystemExit) as err:
        main(["count", "--class", "A", "--n", "5", "--order", "8", "--method", "series"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --order 8" in captured.err


def test_count_takes_one_weight_or_a_range(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--class", "A", "--n", "5", "--nmax", "10"])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_bijection_roundtrip_with_trace(capsys):
    code, out = run_cli(capsys, "bijection", "--name", "bkck", "--k", "3",
                        "--parity", "e", "--n", "7", "--roundtrip", "--trace")
    assert code == 0
    assert "round-trip OK" in out
    traces = json.loads(out[: out.rindex("round-trip")])
    tags = {tag for t in traces for tag in t["case_tag"]}
    assert any(tag.startswith("base[rank]") for tag in tags)

    code, out = run_cli(capsys, "bijection", "--name", "bkck", "--k", "3",
                        "--parity", "o", "--n", "7", "--roundtrip", "--trace")
    assert code == 0
    traces = json.loads(out[: out.rindex("round-trip")])
    tags = {tag for t in traces for tag in t["case_tag"]}
    assert any(tag.startswith("strip:") for tag in tags)


def test_bijection_single_input_sketch(capsys):
    code, out = run_cli(capsys, "bijection", "--name", "base-bc",
                        "--parts", "3,1,1,1,1", "--strategy", "aky-sketch",
                        "--trace")
    assert code == 0
    data = json.loads(out)
    assert data["image"] == {"anchor": 4, "parts": [4, 4]}


def test_bijection_single_anchored_input(capsys):
    code, out = run_cli(capsys, "bijection", "--name", "bkck", "--k", "3",
                        "--parity", "e", "--parts", "8,6,4,4", "--anchor", "4",
                        "--strategy", "aky-sketch", "--trace")
    assert code == 0
    data = json.loads(out)
    assert data["image"] == [8, 6, 3, 1, 1, 1, 1]
    assert data["case_tag"][:2] == ["strip:8", "strip:6"]


def test_bijection_sketch_harness_reports_failures(capsys):
    code, out = run_cli(capsys, "bijection", "--name", "base-bc", "--n", "8",
                        "--roundtrip", "--strategy", "aky-sketch")
    assert code == 0
    assert "5/6 members mapped; 1 flagged" in out


def test_bijection_domain_error_exits_one(capsys):
    code, out = run_cli(capsys, "bijection", "--name", "akdk", "--k", "2",
                        "--parts", "4,2")
    assert code == 1
    assert "bijection failed" in out


@pytest.mark.parametrize("argv, reason", [
    (("dk-recurrence", "--k", "1", "--n", "5"), "recurrence needs k >= 2"),
    (("akdk", "--k", "3", "--n", "1"), "map defined for weight >= 2"),
    (("dk-recurrence", "--k", "3", "--n", "1"), "weight must exceed k-1"),
], ids=["dk-recurrence-k1", "akdk-n1", "dk-recurrence-n1"])
def test_roundtrip_outside_domain_is_usage_error(capsys, argv, reason):
    # exit 1 is kept for a real mismatch; no member of these weight classes
    # is in the map's domain, so the sweep is refused before it starts
    with pytest.raises(SystemExit) as err:
        main(["bijection", "--name", *argv, "--roundtrip"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(reason)


@pytest.mark.parametrize("argv, message", [
    (("glaisher", "--n", "0"), "no member of B has weight 0"),
    (("bkck", "--k", "3", "--parity", "o", "--n", "2"), "no member of Bk_o(k=3) has weight 2"),
    (("base-bc", "--strategy", "aky-sketch", "--n", "0"), "no member of B has weight 0"),
], ids=["glaisher-n0", "bkck-n2", "sketch-n0"])
def test_roundtrip_over_no_member_is_usage_error(capsys, argv, message):
    # a sweep that checks nothing is not a pass
    with pytest.raises(SystemExit) as err:
        main(["bijection", "--name", *argv, "--roundtrip"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(f"checks nothing: {message}")


@pytest.mark.parametrize("argv, message", [
    (("glaisher", "--k", "3", "--n", "4", "--roundtrip"), "bijection glaisher takes no --k"),
    (("akdk", "--k", "3", "--strategy", "rank", "--parts", "4,2,1,1,1"),
     "bijection akdk takes no --strategy"),
    (("ef-shift", "--direction", "B->F", "--n", "4", "--roundtrip"),
     "bijection ef-shift takes no --direction without --parts"),
    (("dk-recurrence", "--k", "3", "--source", "Dk-1", "--n", "4", "--roundtrip"),
     "bijection dk-recurrence takes no --source without --parts"),
    (("ef-shift", "--parts", "5,3,1"), "bijection ef-shift needs --direction"),
    (("bkck", "--k", "3", "--n", "4", "--roundtrip"), "bijection bkck needs --parity"),
], ids=["glaisher-k", "akdk-strategy", "ef-shift-direction", "dk-recurrence-source",
        "ef-shift-needs-direction", "bkck-needs-parity"])
def test_bijection_flags_are_the_ones_the_map_reads(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(["bijection", "--name", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(message)


def _reads(function) -> dict:
    return {name: p for name, p in inspect.signature(function).parameters.items()
            if name not in ("value", "n")}


def test_every_map_row_sweeps_what_its_classes_count(capsys, monkeypatch):
    # the --name choices are the table's keys, and every flag a row reads is
    # an option
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices["bijection"]
    options = {a.dest: a for a in sub._actions}
    assert tuple(options["name"].choices) == tuple(bijections.MAPS)
    assert set(BIJECTION_FLAGS) <= set(options)
    # building the parser is most of a run's time; parse_args keeps no state
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    values = {"k": range(1, 5), "parity": ("e", "o"), "strategy": bijections.STRATEGIES}
    runs = 0
    for name, row in bijections.MAPS.items():
        reads = {**_reads(row.sweep), **_reads(row.domain)}
        for combo in itertools.product(*(values[flag] for flag in reads)):
            flags = dict(zip(reads, combo))
            argv = ["bijection", "--name", name,
                    *(x for flag, v in flags.items() for x in (f"--{flag}", str(v)))]
            for n in range(13):
                reason = row.domain(n, **{f: flags[f] for f in _reads(row.domain)})
                # members times directions, counted by the row walks
                m = 0 if reason else sum(
                    count_row(spec, n)[n] * len(directions)
                    for spec, directions in row.sweep(**{f: flags[f] for f in _reads(row.sweep)}))
                runs += 1
                try:
                    code = main([*argv, "--n", str(n), "--roundtrip"])
                except SystemExit as err:
                    code = err.code
                out, err = capsys.readouterr()
                where = (name, flags, n)
                if not m:
                    assert code == 2 and out == "", where
                    assert err.rstrip().endswith(reason or f"has weight {n}"), where
                elif flags.get("strategy") != bijections.AKY_SKETCH:
                    assert code == 0 and err == "", where
                    assert out == f"round-trip OK over {m} member(s) at weight {n}\n", where
                elif name == "base-bc":
                    # the sketch harness flags, never fails
                    assert code == 0 and f"/{m} members mapped;" in out, where
                else:
                    # the sketched base map inside bkck may leave its class
                    assert (code, out) == (0, f"round-trip OK over {m} member(s) at weight {n}\n") \
                        or (code == 1 and out.startswith("FAIL at ")), where
    assert runs >= 13 * len(bijections.MAPS)


def test_roundtrip_at_domain_edge_runs(capsys):
    code, out = run_cli(capsys, "bijection", "--name", "dk-recurrence", "--k", "3",
                        "--n", "3", "--roundtrip")
    assert code == 0
    assert out.strip() == "round-trip OK over 5 member(s) at weight 3"
    code, out = run_cli(capsys, "bijection", "--name", "akdk", "--k", "3",
                        "--n", "2", "--roundtrip")
    assert code == 0


def test_verify_pass_and_exit_codes(capsys, tmp_path):
    junit = tmp_path / "report.xml"
    code, out = run_cli(capsys, "verify", "--task", "T1", "--nmax", "20",
                        "--junit", str(junit), "--no-timestamp")
    assert code == 0
    assert "### T1: PASS" in out
    assert junit.read_text().count("<testcase") == 1


@pytest.mark.parametrize("argv", [("verify", "--task", "T6", "--nmax", "3"),
                                  ("report", "--all")])
def test_unwritable_junit_path_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.xml"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--junit", str(path), "--no-timestamp"])
    assert err.value.code == 2
    assert f"cannot write the JUnit summary to {path}: No such file or directory" \
        in capsys.readouterr().err
    assert not path.parent.exists()


def test_verify_unknown_task(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--task", "T99"])
    assert err.value.code == 2


def test_verify_rejects_a_flag_the_task_does_not_take(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--task", "T9", "--nmax", "5"])
    assert err.value.code == 2
    assert "task T9 takes no --nmax" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--task", "T1", "--nmax", "0"), "task T1 takes --nmax >= 1, not 0"),
    (("--task", "T3", "--kmax", "-2", "--format", "json"), "task T3 takes --kmax >= 1, not -2"),
    (("--task", "T4", "--nmax", "-3"), "task T4 takes --nmax >= 1, not -3"),
    (("--task", "T7", "--enum-nmax", "-1"), "task T7 takes --enum-nmax >= 0, not -1"),
    (("--task", "T8", "--n-terms", "-1"), "task T8 takes --n-terms >= 0, not -1"),
    (("--task", "T12", "--collapse-order", "-1"),
     "task T12 takes --collapse-order >= 0, not -1"),
])
def test_verify_rejects_an_empty_grid(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (("--task", "T1", "--n-terms", "5"), "task T1 takes no --n-terms"),
    (("--task", "T8", "--enum-nmax", "5"), "task T8 takes no --enum-nmax"),
    (("--task", "T9", "--collapse-order", "5"), "task T9 takes no --collapse-order"),
])
def test_verify_rejects_a_grid_flag_the_task_does_not_declare(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_replays_a_t8_witness_at_a_non_default_n_terms(capsys, monkeypatch):
    # the q^4 coefficient of the running reciprocal 1/((1+q)...(1+q^N)) off
    # by one from its division by 1 + q^3 on
    original = verify._div_factor

    def patched(coeffs, m, sign):
        original(coeffs, m, sign)
        if (m, sign) == (3, 1):
            coeffs[4] += 1

    monkeypatch.setattr(verify, "_div_factor", patched)
    report = verify.run_task("T8", kmax=0, n_terms=5, order=30)
    assert report.status == "fail"
    assert report.checked_cells == 4
    assert report.witness == {"cell": {"exponent": 4, "N": 3},
                              "left_name": "sum of q^j/(1+q)...(1+q^j)", "left": -2,
                              "right_name": "2 - reciprocal", "right": -3}
    code, out = run_cli(capsys, "verify", "--task", "T8", "--kmax", "0", "--n-terms", "5",
                        "--order", "30", "--format", "json", "--no-timestamp")
    assert code == 1
    replayed = json.loads(out)["reports"][0]
    assert replayed["parameters"] == {"kmax": 0, "N_max": 5, "order": 30}
    assert replayed["witness"] == report.witness


def test_verify_output_is_byte_stable(capsys):
    _, first = run_cli(capsys, "verify", "--task", "T9", "--kmax", "3",
                       "--order", "40", "--format", "json", "--no-timestamp")
    _, second = run_cli(capsys, "verify", "--task", "T9", "--kmax", "3",
                        "--order", "40", "--format", "json", "--no-timestamp")
    assert first == second
    assert "wall_time" not in first and "generated_at" not in first


def test_verify_includes_timestamp_by_default(capsys):
    _, out = run_cli(capsys, "verify", "--task", "T12", "--order", "10",
                     "--format", "json")
    data = json.loads(out)
    assert "generated_at" in data
    assert "wall_time_s" in data["reports"][0]


def test_report_all_covers_every_task_once(capsys):
    code, out = run_cli(capsys, "report", "--all", "--format", "json",
                        "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    names = [r["task"] for r in data["reports"]]
    assert names == ["T1", "T2", "T3", "T3x", "T4", "T5", "T6", "T7",
                     "T7c", "T8", "T9", "T10", "T11", "T12"]
    assert all(r["status"] == "pass" for r in data["reports"])
    # the report bytes are pinned: the JSON by the benchmark reference, the
    # markdown here
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert hashlib.sha256(out.encode()).hexdigest() == reference["report_all"]["sha256"]
    code, out = run_cli(capsys, "report", "--all", "--format", "markdown",
                        "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "033526072b0d7fa64d00aea8d537c69850542b9dc01b490b0ba5095e05a18b5c")


def test_report_all_walks_each_structure_once_from_weight_0(capsys, monkeypatch):
    # every walk starts at weight 0; every task reads its rows whole, and a
    # task that shares a structure with a later one reads it as far as the
    # later one will, so one walk serves every read: the 49 structures, and
    # the heads of the 31 C cores, under the anchors 2..62
    walks = []
    original = counting._walk

    def recording(hi, shape, args):
        walks.append((shape.__name__, args))
        return original(hi, shape, args)

    monkeypatch.setattr(counting, "_walk", recording)
    # every fill its structures' heads end in is walked from weight 0, where
    # its row counts the empty fill, as far as its lightest head needs; a
    # fill is walked again only when a later structure needs it farther:
    # P1's head 35 reads the distinct parts in [2, 34] to weight 26 of its
    # row to 61, and Dk(6)'s head (1,)*6 reads them to 28 of its row to 34
    fills = []
    for fill, (generator, walk) in list(counting.FILLS.items()):
        def recording_fill(hi, *fill_args, fill=fill, walk=walk):
            rows = walk(hi, *fill_args)
            fills.append((fill, fill_args, hi, rows[0][0] + rows[1][0]))
            return rows
        monkeypatch.setitem(counting.FILLS, fill, (generator, recording_fill))
    counting._rows.clear()
    counting.count_by_enumeration.cache_clear()
    code, _ = run_cli(capsys, "report", "--all", "--no-timestamp")
    assert code == 0
    assert len(set(walks)) == len(walks) == 80
    assert sum(shape == "_core_heads" for shape, _ in walks) == 31
    assert {empty for *_, empty in fills} == {1}
    assert len(fills) == 255
    assert len({(fill, fill_args) for fill, fill_args, _, _ in fills}) == 254
    assert [hi for *key, hi, _ in fills if key == ["distinct", (34, 2)]] == [26, 28]


def test_count_raw_diagnostic(capsys):
    code, out = run_cli(capsys, "count", "--class", "Ck_e", "--k", "2",
                        "--n", "6", "--raw-diagnostic")
    assert code == 0
    data = json.loads(out)
    assert data["diverges"] is True
    assert data["ambiguous"][0]["parts"] == [4, 2]
