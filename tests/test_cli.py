import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from knotproj import (
    PlanarCurve,
    chords,
    cli,
    enumerate_curves,
    enumeration,
    moves,
    planar,
    read_dataset,
    verify,
)
from knotproj.enumeration import BUDGET_ENV

from conftest import FIXTURES, curled_composite, weak_variant


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


def test_analysis_json_is_json_dumps():
    """``cli._analysis_json`` against ``json.dumps(obj, indent=2)`` on the
    analysis object of U and of every census curve with n <= 7, with and
    without the Arnold invariant: empty, one-item and long lists, every
    bool and the optional ``arnold``."""
    table = {}
    objs = []
    for with_arnold in (False, True):
        objs.append(cli._analysis_obj(planar.U.code, with_arnold, table))
        for n in range(1, 8):
            objs += [cli._analysis_obj(p.code, with_arnold, table) for p in enumerate_curves(n)]
    assert {type(v) for obj in objs for v in obj.values()} == {str, int, bool, list}
    for obj in objs:
        assert cli._analysis_json(obj) == json.dumps(obj, indent=2), obj


@pytest.mark.parametrize(
    "lines",
    [[], ["", "  "], ["1 1"], ["", "1 1", "1 2 3 1 2 3", COMPOSITE_WITH_CURL, ""]],
    ids=["no-line", "blank-lines", "one-code", "three-codes"],
)
def test_analyze_batch_json_is_json_dumps(tmp_path, capsys, lines):
    """A ``--in`` batch prints ``json.dumps`` of its list with indent 2:
    ``[]`` when the file holds no code."""
    src = tmp_path / "codes.txt"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--in", str(src), "--json", "--arnold")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)) == sum(1 for line in lines if line.strip())


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
    src.write_text("1 1\n\n1 2 3 1 2 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--in", str(src), "--json")
    arr = json.loads(out)
    assert [o["code"] for o in arr] == ["1 1", "1 2 3 1 2 3"]


def test_analyze_batch_prints_what_each_code_prints(tmp_path, capsys):
    """The codes of one ``--in`` file share a greedy-run verdict table; the
    batch prints exactly what the codes print one command at a time.  Each
    curve with n <= 6 is sent rotated by n, so the words are not canonical,
    and many runs pass states that earlier ones decided."""
    texts = [COMPOSITE_WITH_CURL]
    for n in range(1, 7):
        for p in enumerate_curves(n):
            texts.append(" ".join(map(str, p.word[n:] + p.word[:n])))
    src = tmp_path / "codes.txt"
    src.write_text("\n".join(texts) + "\n", encoding="utf-8")
    for flags in (["--arnold"], ["--json"]):
        code, batch, _ = run(capsys, "analyze", "--in", str(src), *flags)
        assert code == 0
        single = [run(capsys, "analyze", text, *flags) for text in texts]
        assert all(c == 0 for c, _, _ in single)
        if "--json" in flags:
            assert json.loads(batch) == [json.loads(out) for _, out, _ in single]
        else:
            assert batch == "\n".join(out for _, out, _ in single)
    assert '"in_S": true' in batch and '"in_S": false' in batch


def test_analyze_builds_one_table_per_command(tmp_path, capsys, monkeypatch):
    """Every ``analyze`` command passes its greedy runs one dict: a single
    code's run gets one, the codes of one ``--in`` file share one, and each
    command starts a fresh one; stdout is what it was."""
    tables = []
    original = moves._reduce

    def recorded(p, table=None):
        tables.append(table)
        return original(p, table)

    monkeypatch.setattr(moves, "_reduce", recorded)
    code, out, _ = run(capsys, "analyze", "1 2 3 1 2 3")
    assert code == 0 and "in_S:          false" in out
    code, out, _ = run(capsys, "analyze", "1 1")
    assert code == 0 and "in_S:          true" in out
    assert len(tables) == 2 and all(type(t) is dict for t in tables)
    assert tables[0] is not tables[1]
    src = tmp_path / "codes.txt"
    src.write_text(f"1 1\n1 2 3 1 2 3\n{COMPOSITE_WITH_CURL}\n", encoding="utf-8")
    code, _, _ = run(capsys, "analyze", "--in", str(src), "--json")
    assert code == 0 and len(tables) == 5
    batch = tables[2:]
    assert type(batch[0]) is dict and all(t is batch[0] for t in batch)
    assert all(batch[0] is not t for t in tables[:2])


def composite_codes():
    """40 of :func:`conftest.curled_composite`, four per n = 7..16: codes
    built from tuples alone, as the benchmark's analyze inputs are, each
    with at least one prime and one curl."""
    rng = random.Random(34)
    return [
        " ".join(map(str, curled_composite(rng, n))) for n in range(7, 17) for _ in range(4)
    ]


def test_analyze_composites_are_pinned(capsys):
    """``analyze --json --arnold`` on each of :func:`composite_codes`, the
    stdouts joined, byte for byte, by its sha256."""
    outs = []
    for text in composite_codes():
        code, out, err = run(capsys, "analyze", "--json", "--arnold", text)
        assert code == 0 and err == "", text
        assert len(json.loads(out)["prime_factors"]) >= 2, text
        outs.append(out)
    want = (FIXTURES / "analyze_composites.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == want


def test_analyze_searches_each_distinct_factor_once(capsys, monkeypatch):
    """trefoil # trefoil # trefoil with four curls: ``analyze`` runs three
    orbit searches, for the code, ``1 1`` and ``1 2 3 1 2 3``, and
    ``prime_decompose`` gives equal factor words one shared diagram."""
    trefoil = planar.realize(chords.parse_code("1 2 3 1 2 3"))
    loop = planar.realize(chords.parse_code("1 1"))
    q = trefoil
    for p, site in ((trefoil, 1), (loop, 4), (trefoil, 7), (loop, 0), (loop, 12), (loop, 5)):
        q = planar.connected_sum(q, p, site, 0)
    factors = planar.prime_decompose(q)
    assert sorted(str(f.code) for f in factors) == ["1 1"] * 4 + ["1 2 3 1 2 3"] * 3
    for f in factors:
        for g in factors:
            assert (f.code is g.code) == (f.word == g.word)
    searched = []
    orbit_min = chords._orbit_min

    def counted(word):
        searched.append(word)
        return orbit_min(word)

    monkeypatch.setattr(chords, "_orbit_min", counted)
    code, out, _ = run(capsys, "analyze", "--json", str(q.code))
    assert code == 0
    assert sorted(json.loads(out)["prime_factors"]) == sorted(str(f.code) for f in factors)
    assert sorted(orbit_min(w) for w in searched) == sorted(
        [orbit_min(q.word), (1, 1), (1, 2, 3, 1, 2, 3)]
    )


@pytest.mark.parametrize(
    "line",
    [f"1 1{sep}2 2" for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
    + ["1 2 3 1 2 3\x853 3"],
)
def test_analyze_batch_line_is_one_code(tmp_path, capsys, line):
    """A file line is split at nothing but its newline: whitespace that
    ``str.splitlines`` also breaks at stays inside the code, so the line
    prints what the one code prints, exit code and error included."""
    src = tmp_path / "codes.txt"
    src.write_text(line + "\n", encoding="utf-8")
    assert run(capsys, "analyze", "--in", str(src)) == run(capsys, "analyze", line)


def test_analyze_batch_malformed_line_exits_2_stdout_clean(tmp_path, capsys):
    """A bad line stops the batch before anything is printed."""
    src = tmp_path / "codes.txt"
    src.write_text("1 1\n1 2 1\n1 2 3 1 2 3\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--in", str(src), "--json")
    assert code == 2 and out == ""
    assert err == MALFORMED_1_2_1


def test_analyze_batch_missing_file_exits_5(capsys):
    code, out, err = run(capsys, "analyze", "--in", "/nonexistent/codes.txt")
    assert code == 5 and out == ""
    assert "cannot read" in err


def test_analyze_batch_undecodable_file_exits_5(tmp_path, capsys):
    """A byte that is not UTF-8 is an I/O failure, not a traceback."""
    src = tmp_path / "codes.txt"
    src.write_bytes(b"1 1\n\xff\n")
    code, out, err = run(capsys, "analyze", "--in", str(src))
    assert code == 5 and out == ""
    assert err.startswith(f"cannot read {src}: ") and "can't decode byte 0xff" in err


def test_analyze_code_and_in_exclude_each_other(tmp_path, capsys):
    """A positional code next to --in is refused, not silently dropped."""
    src = tmp_path / "codes.txt"
    src.write_text("1 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "1 2 1 2", "--in", str(src), "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --in: not allowed with argument code" in err


def torus_word(k):
    return " ".join(str(v) for v in list(range(1, k + 1)) * 2)


def test_arnold_sweeps_past_n_12_unguarded(capsys):
    """The n > 12 guard is gone: the pair sum is O(n^2), so T(2,13) runs."""
    code, out, err = run(capsys, "analyze", torus_word(13), "--arnold")
    assert code == 0 and err == ""
    assert "arnold:        12" in out


def test_arnold_needs_no_force_at_n_41(capsys):
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


def assert_dataset_pinned(capsys, tmp_path, n, records):
    """``enumerate n`` writes the dataset pinned by its sha256 in the fixtures."""
    out_path = tmp_path / "ds.jsonl"
    code, out, _ = run(capsys, "enumerate", str(n), "--out", str(out_path))
    assert code == 0 and out.endswith(f"({records} records)\n")
    want = (FIXTURES / f"enumerate_{n}.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want


def test_enumerate_8_dataset_is_pinned(tmp_path, capsys, monkeypatch):
    """The n <= 8 dataset (990 records) at the default budget, byte for byte."""
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert_dataset_pinned(capsys, tmp_path, 8, 990)


def test_enumerate_9_dataset_is_pinned(tmp_path, capsys, monkeypatch):
    """The n <= 9 dataset (4,881 records), byte for byte, by its sha256; a
    tier-1 test (about 0.6 s), so every CI Python version checks the
    generator's n = 9 output."""
    monkeypatch.setenv(BUDGET_ENV, "9")
    assert_dataset_pinned(capsys, tmp_path, 9, 4881)


def test_enumerate_verdict_table_lives_for_one_command(tmp_path, capsys, monkeypatch):
    """A healthy ``enumerate 3``, then one with strongness flipped to the
    interleaved reading: the trefoil's 2-gons become deletable and its
    record enters S.  A verdict table that outlived the first command would
    keep the healthy verdict and hide the mutant."""
    out_path = tmp_path / "ds.jsonl"

    def trefoil_in_S():
        code, _, _ = run(capsys, "enumerate", "3", "--out", str(out_path))
        assert code == 0
        (rec,) = [r for r in read_dataset(out_path) if r.code == "1 2 3 1 2 3"]
        return rec.in_S

    assert trefoil_in_S() is False
    monkeypatch.setattr(planar, "_strong_sites", weak_variant)
    assert trefoil_in_S() is True


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


@pytest.mark.parametrize("raw", ["1_0", "+9", " 9", "9 ", "\u0669", "-1", ""])
def test_budget_override_takes_ascii_digits_only(tmp_path, capsys, monkeypatch, raw):
    """The budget override is ASCII decimal digits only, as a code's label
    is; ``int()`` alone would take a sign, spaces, underscores and other
    scripts' digits, and a budget of -1 would refuse even n = 0."""
    monkeypatch.setenv(BUDGET_ENV, raw)
    out_path = tmp_path / "ds.jsonl"
    code, out, err = run(capsys, "enumerate", "0", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == f"{BUDGET_ENV} must be an integer, got {raw!r}\n"
    assert not out_path.exists()


def test_enumerate_unwritable_exits_5(tmp_path, capsys):
    """``--out`` is opened before the first n is enumerated, so an
    unwritable path prints no count line."""
    out_path = tmp_path / "missing" / "ds.jsonl"
    code, out, err = run(capsys, "enumerate", "1", "--out", str(out_path))
    assert code == 5 and out == ""
    assert err.startswith(f"cannot write {out_path}: ")


@pytest.mark.parametrize("n", range(8))
def test_enumerate_streams_the_sorted_dataset(tmp_path, capsys, monkeypatch, n):
    """``enumerate`` writes each record as it builds it, with no sort and no
    call of ``write_dataset``, and its file is byte for byte what
    ``write_dataset`` makes of the records read back: the census comes in
    (n, code) order."""
    streamed = tmp_path / "streamed.jsonl"
    with monkeypatch.context() as m:

        def refuse(*args):
            raise AssertionError("enumerate called write_dataset")

        m.setattr(enumeration, "write_dataset", refuse)
        code, _, _ = run(capsys, "enumerate", str(n), "--out", str(streamed))
    assert code == 0
    rewritten = tmp_path / "rewritten.jsonl"
    enumeration.write_dataset(read_dataset(streamed), rewritten)
    assert rewritten.read_bytes() == streamed.read_bytes()


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


@pytest.mark.slow
def test_connected_sum_lemma_10_report_is_pinned(capsys, monkeypatch):
    """``verify --check connected-sum-lemma --max-n 10 --json`` with
    ``KNOTPROJ_MAX_N=9`` (3,896 pairs), byte for byte, by its sha256."""
    monkeypatch.setenv(BUDGET_ENV, "9")
    argv = ["verify", "--check", "connected-sum-lemma", "--max-n", "10", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["curves_tested"] == 3_896
    want = (FIXTURES / "csl_10.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.slow
def test_connected_sum_lemma_11_report_is_pinned(capsys, monkeypatch):
    """``verify --check connected-sum-lemma --max-n 11 --json`` with
    ``KNOTPROJ_MAX_N=10`` (15,136 pairs), byte for byte, by its sha256: the
    report of the sweep over every ordered site pair."""
    monkeypatch.setenv(BUDGET_ENV, "10")
    argv = ["verify", "--check", "connected-sum-lemma", "--max-n", "11", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["curves_tested"] == 15_136
    want = (FIXTURES / "csl_11.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_verify_8_report_is_pinned(capsys, monkeypatch):
    """``verify --all --max-n 8 --json`` stdout, byte for byte, by its sha256."""
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    code, out, _ = run(capsys, "verify", "--all", "--max-n", "8", "--json")
    assert code == 0
    want = (FIXTURES / "verify_8.sha256").read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_verify_shares_one_verdict_table_per_command(capsys, monkeypatch):
    """The greedy runs of main-theorem and inclusion-chain in one ``verify``
    command all get one dict, and only that command's runs get it."""
    tables = []
    original = moves._reduce

    def recorded(p, table=None):
        tables.append(table)
        return original(p, table)

    monkeypatch.setattr(moves, "_reduce", recorded)
    assert run(capsys, "verify", "--all", "--max-n", "5", "--json")[0] == 0
    first = tables[0]
    assert type(first) is dict and first
    assert all(t is first for t in tables)
    tables.clear()
    assert run(capsys, "verify", "--check", "main-theorem", "--max-n", "5")[0] == 0
    assert tables and all(t is tables[0] for t in tables)
    assert tables[0] is not first


def test_verify_verdict_table_lives_for_one_command(capsys, monkeypatch):
    """A healthy ``verify --all``, then one with strongness flipped to the
    interleaved reading: the second reports what the checks report under
    the mutant, each with a fresh table.  A verdict table that outlived the
    first command would keep the healthy verdicts and hide the mutant."""
    argv = ["verify", "--all", "--max-n", "6", "--json"]
    code, healthy, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(planar, "_strong_sites", weak_variant)
    code, mutated, _ = run(capsys, *argv)
    fresh = [
        verify.run_checks([cid], 6)[0].to_json_obj() for cid in verify.CHECK_IDS
    ]
    assert code == 1 and mutated != healthy
    assert mutated == json.dumps(fresh, indent=2) + "\n"


def test_verify_negative_max_n_exits_4(capsys):
    for argv in (["--all"], ["--check", "main-theorem"]):
        code, out, err = run(capsys, "verify", *argv, "--max-n", "-2")
        assert code == 4 and out == ""
        assert err == "crossing number must be nonnegative, got -2\n"


def test_verify_refuses_over_budget_before_enumerating(capsys, monkeypatch):
    """The largest n a check enumerates is checked up front, with
    ``enumerate_curves``' message: ``max_n``, or ``max_n - 1`` for
    connected-sum-lemma, which so runs one above the budget."""
    monkeypatch.setenv(BUDGET_ENV, "4")
    calls = []
    original = verify.enumerate_curves

    def recorded(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(verify, "enumerate_curves", recorded)
    refusal = f"n=5 exceeds the enumeration budget 4 (set {BUDGET_ENV} to raise it)\n"
    for argv in (
        ["--all", "--max-n", "5"],
        ["--check", "main-theorem", "--max-n", "5"],
        ["--check", "connected-sum-lemma", "--max-n", "6"],
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (4, "", refusal), argv
        assert calls == [], argv
    code, out, _ = run(capsys, "verify", "--check", "connected-sum-lemma", "--max-n", "5")
    assert code == 0 and out.startswith("PASS connected-sum-lemma")
    assert calls == [1, 2, 3, 4]
    calls.clear()
    code, out, _ = run(capsys, "verify", "--all", "--max-n", "0")
    assert code == 0 and out.count("PASS") == len(verify.CHECK_IDS)
    assert calls == [0]


def test_verify_all_reads_the_census_once(capsys, monkeypatch, census):
    """``verify --all`` makes one pass: each n is enumerated once and each
    curve's triple chords are counted once, for all five checks.  stderr
    ends with the pass's total time."""
    calls = []
    counted = []
    enumerate_original = verify.enumerate_curves
    count_tr_original = chords.count_tr

    def recorded(n):
        calls.append(n)
        return enumerate_original(n)

    def counting(cd):
        counted.append(cd)
        return count_tr_original(cd)

    monkeypatch.setattr(verify, "enumerate_curves", recorded)
    monkeypatch.setattr(chords, "count_tr", counting)
    code, _, err = run(capsys, "verify", "--all", "--max-n", "7", "--json")
    assert code == 0
    assert calls == list(range(8))
    assert len(counted) == sum(census["classes"][str(n)] for n in range(8)) == 241
    assert err.splitlines()[-1].startswith("verify: elapsed ")


def live_curves():
    """The curves with n >= 1 that are still alive, after a collection."""
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, PlanarCurve) and o.n >= 1]


def test_verify_all_keeps_no_curve(capsys, monkeypatch):
    """Once ``verify --all`` returns, no curve it enumerated is alive: the
    number of live curves has not grown, and none of them is one the pass
    was handed.  Each of those curves was alive together with every curve
    alive before the command, so its id is told apart from theirs; a
    later n may reuse the id of a curve freed before it."""
    served = []
    original = verify.enumerate_curves

    def recorded(n):
        curves = original(n)
        served.extend(map(id, curves))
        return curves

    monkeypatch.setattr(verify, "enumerate_curves", recorded)
    before = len(live_curves())
    assert run(capsys, "verify", "--all", "--max-n", "7", "--json")[0] == 0
    after = live_curves()
    assert len(served) == 241
    assert len(after) <= before
    served = set(served)
    assert not [p for p in after if id(p) in served]


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


# --- dispatch ---------------------------------------------------------------------

NO_OUTPUT = "e3b0c44298fc"  # sha256 of ""

# argv, exit code (or SystemExit code) and the first 12 hex digits of the
# sha256 of stdout, recorded when every argv went through the top-level
# parser's full parse.  A None digest marks help, which must be the help text
# of the parser named by argv[0] (the top-level one when argv[0] is no
# subcommand).  ``codes.txt`` holds two codes; the working directory is empty.
DISPATCH_TABLE = [
    ([], 2, NO_OUTPUT),
    (["-h"], 0, None),
    (["--help"], 0, None),
    (["bogus"], 2, NO_OUTPUT),
    (["--json", "analyze", "1 1"], 2, NO_OUTPUT),
    (["analyze", "1 2 3 1 2 3"], 0, "5f8b67101313"),
    (["analyze", "--json", "--arnold", "1 1 2 2"], 0, "2af82ebc1a63"),
    (["analyze", "--in", "codes.txt", "--json"], 0, "6bbfcab55e77"),
    (["analyze", "-h"], 0, None),
    (["analyze", "1 1", "--force"], 2, NO_OUTPUT),
    (["analyze", "1 1", "--in", "codes.txt"], 2, NO_OUTPUT),
    (["analyze", "1 2 1"], 2, NO_OUTPUT),
    (["reduce", "1 1 2 2"], 0, "11648103a55c"),
    (["reduce", "--help"], 0, None),
    (["reduce"], 2, NO_OUTPUT),
    (["reduce", "1 1", "--json"], 2, NO_OUTPUT),
    (["enumerate", "2", "--out", "ds.jsonl"], 0, "b557a9962f69"),
    (["enumerate", "-h"], 0, None),
    (["enumerate", "two", "--out", "ds.jsonl"], 2, NO_OUTPUT),
    (["enumerate", "2"], 2, NO_OUTPUT),
    (["enumerate", "2", "--out", "ds.jsonl", "--arnold-max", "x"], 2, NO_OUTPUT),
    (["enumerate", "2", "--out", "ds.jsonl", "--bogus"], 2, NO_OUTPUT),
    (["verify", "--check", "main-theorem", "--max-n", "3"], 0, "f7514db8ed1b"),
    (["verify", "--all", "--max-n", "3", "--json"], 0, "64b44a3ab0bd"),
    (["verify", "-h"], 0, None),
    (["verify", "--all", "--max-n", "three"], 2, NO_OUTPUT),
    (["verify"], 2, NO_OUTPUT),
    (["verify", "--all", "--check", "main-theorem"], 2, NO_OUTPUT),
    (["verify", "--all", "--bogus"], 2, NO_OUTPUT),
    (["dot", "1 2 1 2"], 0, "2024aec8bda9"),
    (["dot", "-h"], 0, None),
    (["dot"], 2, NO_OUTPUT),
    (["dot", "1 1", "--bogus"], 2, NO_OUTPUT),
]


def test_dispatch_keeps_exit_codes_and_stdout(tmp_path, capsys, monkeypatch):
    """Every argv of the table exits and prints as it did through the full
    top-level parse, and the top-level parser parses only the argvs whose
    first word is no subcommand (empty, help, unknown); a known subcommand's
    arguments go straight to its own parser."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "codes.txt").write_text("1 1\n1 2 3 1 2 3\n", encoding="utf-8")
    parser, commands = cli._build_parser()
    parsed = []
    original = argparse.ArgumentParser.parse_known_args

    def recorded(self, args=None, namespace=None):
        parsed.append(self.prog)
        return original(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
    for argv, want_code, want_sha in DISPATCH_TABLE:
        parsed.clear()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code == want_code, argv
        top = not argv or argv[0] not in commands
        if want_sha is None:
            assert out == (parser if top else commands[argv[0]]).format_help(), argv
        else:
            assert hashlib.sha256(out.encode()).hexdigest()[:12] == want_sha, argv
        assert ("knotproj" in parsed) == top, argv


def test_entry_point_reads_sys_argv(capsys):
    """``main()`` with no argv parses ``sys.argv[1:]``, as the ``knotproj``
    script calls it."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = "import sys; from knotproj.cli import main; sys.exit(main())"
    argv = ["analyze", "--json", "1 1 2 2"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == run(capsys, *argv)[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "required: command" in proc.stderr
