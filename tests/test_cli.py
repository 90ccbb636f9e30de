"""Command-line surface: dispatch, formats, exit codes, determinism."""

import json

import pytest

from qpart.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_count_single_value(capsys):
    code, out = run_cli(capsys, "count", "--class", "Dk", "--k", "2", "--n", "7")
    assert code == 0
    assert out.strip() == "8"


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
    (["series", "--class", "Ck_e", "--k", "4", "--order", "1000"], "Ck_e(k=4) is 748"),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_coefficient_overflow_is_usage_error(capsys, argv, largest):
    # the message names the largest order that builds for the class
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "exceeds 2**63" in message
    assert f"the largest order that builds for {largest}" in message


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


def test_verify_unknown_task(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--task", "T99"])
    assert err.value.code == 2


def test_verify_rejects_a_flag_the_task_does_not_take(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--task", "T9", "--nmax", "5"])
    assert err.value.code == 2
    assert "task T9 takes no --nmax" in capsys.readouterr().err


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


def test_count_raw_diagnostic(capsys):
    code, out = run_cli(capsys, "count", "--class", "Ck_e", "--k", "2",
                        "--n", "6", "--raw-diagnostic")
    assert code == 0
    data = json.loads(out)
    assert data["diverges"] is True
    assert data["ambiguous"][0]["parts"] == [4, 2]
