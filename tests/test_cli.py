import json

import pytest

from knotproj import cli, enumeration, read_dataset
from knotproj.enumeration import BUDGET_ENV


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


MALFORMED_1_2_1 = "malformed code '1 2 1': label 2 appears 1 time(s), expected exactly 2\n"


# --- analyze --------------------------------------------------------------------


def test_analyze_human(capsys):
    code, out, err = run(capsys, "analyze", "1 2 3 1 2 3")
    assert code == 0 and err == ""
    assert "code:          1 2 3 1 2 3" in out
    assert "tr:            1" in out
    assert "in_S:          false" in out
    assert "arnold" not in out  # only computed on request


def test_analyze_json_with_arnold(capsys):
    code, out, _ = run(capsys, "analyze", "1 2 3 1 2 3", "--json", "--arnold")
    obj = json.loads(out)
    assert obj["x"] == 3 and obj["tr"] == 1
    assert obj["arnold"] == "2"
    assert obj["face_degrees"] == [2, 2, 2, 3, 3]
    assert obj["prime_factors"] == ["1 2 3 1 2 3"]


COMPOSITE_WITH_CURL = "1 2 3 1 4 4 2 3"  # a trefoil with a curl spliced in


def test_analyze_json_stdout_pinned(capsys):
    code, out, err = run(capsys, "analyze", COMPOSITE_WITH_CURL, "--json", "--arnold")
    assert code == 0 and err == ""
    assert out == """{
  "code": "1 1 2 3 4 2 3 4",
  "n": 4,
  "x": 3,
  "tr": 1,
  "realizable": true,
  "face_degrees": [
    1,
    2,
    2,
    3,
    4,
    4
  ],
  "monogons": 1,
  "strong_bigons": 0,
  "reduced": false,
  "prime_factors": [
    "1 1",
    "1 2 3 1 2 3"
  ],
  "in_S": false,
  "arnold": "2"
}
"""


def test_analyze_human_stdout_pinned(capsys):
    code, out, err = run(capsys, "analyze", COMPOSITE_WITH_CURL)
    assert code == 0 and err == ""
    assert out == """code:          1 1 2 3 4 2 3 4
n:             4
x:             3
tr:            1
realizable:    true
face_degrees:  [1, 2, 2, 3, 4, 4]
monogons:      1
strong_bigons: 0
reduced:       false
prime_factors: ["1 1", "1 2 3 1 2 3"]
in_S:          false
"""


def test_analyze_u(capsys):
    code, out, _ = run(capsys, "analyze", "")
    assert code == 0 and "(U)" in out


def test_analyze_malformed_exits_2_stdout_clean(capsys):
    code, out, err = run(capsys, "analyze", "1 2 1")
    assert code == 2 and out == ""
    assert err == MALFORMED_1_2_1


def test_analyze_unrealizable_exits_3(capsys):
    code, out, err = run(capsys, "analyze", "1 2 1 2")
    assert code == 3 and out == ""
    assert err == "not realizable (parity fails at chord 1)\n"


def test_analyze_unrealizable_beyond_parity_exits_3(capsys):
    # the parity-clean, non-spherical core plus 13 curls: n = 18
    text = "1 2 3 1 2 4 5 3 4 5 " + " ".join(f"{v} {v}" for v in range(6, 19))
    code, out, err = run(capsys, "analyze", text)
    assert code == 3 and out == ""
    assert err == "not realizable (no spherical rotation system)\n"


def test_analyze_batch(tmp_path, capsys):
    src = tmp_path / "codes.txt"
    src.write_text("1 1\n\n1 2 3 1 2 3\n")
    code, out, _ = run(capsys, "analyze", "--in", str(src), "--json")
    arr = json.loads(out)
    assert [o["code"] for o in arr] == ["1 1", "1 2 3 1 2 3"]


def test_analyze_batch_malformed_line_exits_2_stdout_clean(tmp_path, capsys):
    """A bad line stops the batch before anything is printed."""
    src = tmp_path / "codes.txt"
    src.write_text("1 1\n1 2 1\n1 2 3 1 2 3\n")
    code, out, err = run(capsys, "analyze", "--in", str(src), "--json")
    assert code == 2 and out == ""
    assert err == MALFORMED_1_2_1


def test_analyze_batch_missing_file_exits_5(capsys):
    code, out, err = run(capsys, "analyze", "--in", "/nonexistent/codes.txt")
    assert code == 5 and out == ""
    assert "cannot read" in err


def test_analyze_code_and_in_exclude_each_other(tmp_path, capsys):
    """A positional code next to --in is refused, not silently dropped."""
    src = tmp_path / "codes.txt"
    src.write_text("1 1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "1 2 1 2", "--in", str(src), "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --in: not allowed with argument code" in err


def torus_word(k):
    return " ".join(str(v) for v in list(range(1, k + 1)) * 2)


def test_arnold_guard_refuses_large_sweep(capsys):
    """The n > 12 guard is gone: the pair sum is O(n^2), so T(2,13) runs."""
    code, out, err = run(capsys, "analyze", torus_word(13), "--arnold")
    assert code == 0 and err == ""
    assert "arnold:        12" in out


def test_arnold_guard_force_proceeds(capsys):
    """No --force is needed any more, even at n = 41."""
    code, out, _ = run(capsys, "analyze", torus_word(41), "--arnold", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 41 and obj["arnold"] == "40"


def test_force_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        cli.main(["analyze", "1 1", "--arnold", "--force"])
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_main_reuses_parser_across_calls(capsys):
    code, out, _ = run(capsys, "analyze", "1 2 3 1 2 3", "--arnold", "--json")
    assert code == 0 and json.loads(out)["arnold"] == "2"
    code, out, _ = run(capsys, "analyze", "1 2 3 1 2 3", "--json")
    assert code == 0 and "arnold" not in json.loads(out)
    code, out, err = run(capsys, "verify", "--check", "bogus")
    assert code == 6 and out == "" and "unknown check" in err
    assert cli._build_parser() is cli._build_parser()


def test_help_shows_arnold_max_default(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_ARNOLD_MAX_N", 9)
    cli._build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit):
            cli.main(["enumerate", "--help"])
    finally:
        cli._build_parser.cache_clear()
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default 9)" in help_text


# --- reduce ----------------------------------------------------------------------


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "1 1 2 2")
    assert code == 0
    assert out.splitlines() == [
        "start: 1 1 2 2",
        "  1b@1 -> 1 1",
        "  1b@1 -> (U)",
        "terminal: (U)",
    ]


def test_reduce_u(capsys):
    code, out, _ = run(capsys, "reduce", "")
    assert code == 0 and out == "start: (U)\nterminal: (U)\n"


def test_reduce_non_member(capsys):
    code, out, _ = run(capsys, "reduce", "1 2 3 1 2 3")
    assert code == 0 and out == "1 2 3 1 2 3: not in S\n"


def test_reduce_malformed_exits_2(capsys):
    code, out, err = run(capsys, "reduce", "1 2 1")
    assert code == 2 and out == ""
    assert err == MALFORMED_1_2_1


def test_reduce_unrealizable_exits_3(capsys):
    code, out, err = run(capsys, "reduce", "1 2 1 2")
    assert code == 3 and out == ""
    assert err == "not realizable (parity fails at chord 1)\n"
    code, out, err = run(capsys, "reduce", "1 2 3 1 2 4 5 3 4 5")
    assert code == 3 and out == ""
    assert err == "not realizable (no spherical rotation system)\n"


# --- enumerate -------------------------------------------------------------------


def test_enumerate_writes_dataset(tmp_path, capsys):
    out_path = tmp_path / "ds.jsonl"
    code, out, _ = run(capsys, "enumerate", "3", "--out", str(out_path))
    assert code == 0
    assert "n=3: 3" in out
    recs = read_dataset(out_path)
    assert len(recs) == 5
    assert all(r.n >= 1 for r in recs)


def test_enumerate_zero_writes_u_only(tmp_path, capsys):
    out_path = tmp_path / "ds.jsonl"
    code, out, _ = run(capsys, "enumerate", "0", "--out", str(out_path))
    assert code == 0
    recs = read_dataset(out_path)
    assert len(recs) == 1 and recs[0].code == ""


def test_enumerate_over_budget_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    out_path = tmp_path / "ds.jsonl"
    code, out, err = run(capsys, "enumerate", "9", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == (
        f"n=9 exceeds the enumeration budget 8 (set {BUDGET_ENV} to raise it)\n"
    )
    assert not out_path.exists()


def test_enumerate_negative_n_exits_4(tmp_path, capsys):
    out_path = tmp_path / "ds.jsonl"
    code, out, err = run(capsys, "enumerate", "-1", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == "crossing number must be nonnegative, got -1\n"
    assert not out_path.exists()


def test_enumerate_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "2")
    out_path = tmp_path / "ds.jsonl"
    code, out, err = run(capsys, "enumerate", "3", "--out", str(out_path))
    assert code == 4 and out == ""


def test_enumerate_non_integer_budget_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "abc")
    out_path = tmp_path / "ds.jsonl"
    code, out, err = run(capsys, "enumerate", "3", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == f"{BUDGET_ENV} must be an integer, got 'abc'\n"
    assert not out_path.exists()


def test_enumerate_unwritable_exits_5(tmp_path, capsys):
    code, out, err = run(capsys, "enumerate", "1", "--out", "/nonexistent/dir/ds.jsonl")
    assert code == 5
    assert "cannot write" in err


# --- verify ----------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, err = run(capsys, "verify", "--check", "main-theorem", "--max-n", "4")
    assert code == 0
    assert out.startswith("PASS main-theorem")
    assert "elapsed" in err  # timing goes to stderr, keeping stdout stable


def test_verify_all_json_byte_stable(capsys):
    code1, out1, _ = run(capsys, "verify", "--all", "--max-n", "3", "--json")
    code2, out2, _ = run(capsys, "verify", "--all", "--max-n", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    arr = json.loads(out1)
    assert [o["check_id"] for o in arr] == list(
        __import__("knotproj").CHECK_IDS
    )
    assert all(o["passed"] for o in arr)


def test_verify_negative_max_n_exits_4(capsys):
    for argv in (["--all"], ["--check", "main-theorem"]):
        code, out, err = run(capsys, "verify", *argv, "--max-n", "-2")
        assert code == 4 and out == ""
        assert err == "crossing number must be nonnegative, got -2\n"


def test_verify_unknown_check_exits_6(capsys):
    code, out, err = run(capsys, "verify", "--check", "bogus")
    assert code == 6 and out == ""
    assert "unknown check" in err


def test_verify_json_single_object(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "inclusion-chain", "--max-n", "3", "--json"
    )
    obj = json.loads(out)
    assert obj["check_id"] == "inclusion-chain"


# --- dot --------------------------------------------------------------------------


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "1 2 1 2")
    assert code == 0
    assert out.startswith("graph chord_diagram {")
    assert out.rstrip().endswith("}")
    assert out.count("[style=dashed]") == 2


def test_dot_malformed_exits_2(capsys):
    code, out, err = run(capsys, "dot", "1")
    assert code == 2 and out == ""
    assert err == "malformed code '1': label 1 appears 1 time(s), expected exactly 2\n"
