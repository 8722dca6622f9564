import json

import pytest

from knotproj import (
    CHECK_IDS,
    CheckReport,
    check_connected_sum_lemma,
    check_inclusion_chain,
    check_main_theorem,
    check_teardrop_reversal,
    check_two_strong_bigons,
    interleaved,
    run_check,
)
from knotproj import planar, verify
from knotproj.enumeration import BUDGET_ENV


# --- the checks at small scale -------------------------------------------------


def test_all_checks_pass_small():
    for cid in CHECK_IDS:
        rep = run_check(cid, max_n=4)
        assert rep.passed, (cid, rep.violations)
        assert rep.curves_tested > 0
        assert rep.check_id == cid and rep.max_n == 4


def test_check_ids_order_and_unknown_id():
    assert CHECK_IDS == (
        "main-theorem",
        "inclusion-chain",
        "two-strong-bigons",
        "connected-sum-lemma",
        "teardrop-reversal",
    )
    with pytest.raises(KeyError):
        run_check("bogus", max_n=2)


def test_main_theorem_counts_triple_free_only(census):
    rep = check_main_theorem(5)
    expect = sum(census["triple_free"][str(n)] for n in range(1, 6))
    assert rep.curves_tested == expect


def test_inclusion_chain_has_strictness_witnesses():
    rep = check_inclusion_chain(4)
    assert rep.passed
    kinds = {w[1].split(",")[0] for w in rep.witnesses}
    assert "strict: tr=0" in kinds  # x=0 => tr=0 does not reverse


def test_inclusion_chain_reads_arnold_at_every_n(monkeypatch):
    seen = []
    original = verify.arnold_invariant

    def counted(p):
        seen.append(p)
        return original(p)

    monkeypatch.setattr(verify, "arnold_invariant", counted)
    rep = run_check("inclusion-chain", 8)
    assert rep.passed
    assert len(seen) == rep.curves_tested
    # no curve with n <= 10 has arnold 0 outside S; the first ones are at n = 11
    assert not [w for w in rep.witnesses if w[1] == "strict: arnold=0, not in S"]


@pytest.mark.slow
def test_inclusion_chain_at_11_has_the_first_arnold_witnesses(monkeypatch):
    """The first curves with Arnold invariant 0 outside S appear at n = 11."""
    monkeypatch.setenv(BUDGET_ENV, "11")
    rep = run_check("inclusion-chain", 11)
    assert rep.passed
    assert rep.curves_tested == 156_378
    assert [c for c, kind in rep.witnesses if kind == "strict: arnold=0, not in S"] == [
        "1 2 3 4 5 1 6 7 4 8 2 6 9 10 11 5 8 3 7 9 10 11",
        "1 2 3 4 5 1 6 7 4 8 2 9 10 6 11 5 8 3 9 10 7 11",
        "1 2 3 4 5 1 6 7 8 9 4 10 2 6 11 5 10 3 7 8 9 11",
    ]


def test_two_strong_bigons_tests_the_reduced_stratum(census):
    rep = check_two_strong_bigons(6)
    expect = sum(census["reduced_triple_free"][str(n)] for n in range(1, 7))
    assert rep.curves_tested == expect
    assert rep.passed


def test_connected_sum_lemma_small():
    rep = check_connected_sum_lemma(5)
    assert rep.passed and rep.curves_tested > 0


def test_connected_sum_lemma_builds_no_faces(monkeypatch):
    """The check reads only each splice's code, so no face is ever traced."""
    traced = []
    original = planar._trace_faces

    def counted(word, flips):
        traced.append(word)
        return original(word, flips)

    monkeypatch.setattr(planar, "_trace_faces", counted)
    assert check_connected_sum_lemma(6).passed
    assert traced == []


def test_teardrop_reversal_flags_triple_chords_as_excluded():
    rep = check_teardrop_reversal(3)
    assert rep.passed
    assert any("expected-excluded" in w[1] for w in rep.witnesses)


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        run_check("no-such-check", max_n=3)


# --- report values ---------------------------------------------------------------


def test_report_json_shape_and_passed():
    rep = run_check("main-theorem", max_n=3)
    obj = rep.to_json_obj()
    assert set(obj) == {
        "check_id",
        "max_n",
        "curves_tested",
        "passed",
        "violations",
        "witnesses",
    }
    assert "elapsed" not in obj
    assert obj["passed"] is True
    assert rep.elapsed >= 0.0


def test_reports_byte_identical_across_runs():
    for cid in CHECK_IDS:
        a = json.dumps(run_check(cid, max_n=3).to_json_obj(), sort_keys=True)
        b = json.dumps(run_check(cid, max_n=3).to_json_obj(), sort_keys=True)
        assert a == b


def test_failed_report_carries_violations():
    rep = CheckReport("main-theorem", 3, 1, (("1 1", "boom"),), 0.0)
    assert not rep.passed
    assert rep.to_json_obj()["violations"] == [["1 1", "boom"]]


# --- the strongness discriminator -------------------------------------------------


def weak_variant(p):
    """Deliberately wrong bigon predicate: keep interleaved corner pairs
    (the pattern the real predicate excludes) instead of nested ones."""
    out = []
    for f in p.faces:
        if f.degree != 2:
            continue
        a, b = f.corners
        if a != b and interleaved(p.code, a, b):
            out.append(f)
    return out


def test_interleaved_mutant_breaks_the_chain(monkeypatch):
    """With strongness flipped to the interleaved reading, the trefoil's
    bigons all become deletable, the trefoil enters S, and membership no
    longer forces the arnold invariant to vanish."""
    baseline = check_inclusion_chain(3)
    assert baseline.passed
    monkeypatch.setattr(planar, "strong_bigons", weak_variant)
    mutated = check_inclusion_chain(3)
    assert not mutated.passed
    assert any("arnold" in reason for _, reason in mutated.violations)


def test_mutant_detected_by_bigon_census_too(monkeypatch):
    monkeypatch.setattr(planar, "strong_bigons", weak_variant)
    rep = check_two_strong_bigons(4)
    assert not rep.passed
