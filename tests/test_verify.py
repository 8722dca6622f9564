import json
import sys

import pytest

from knotproj import (
    CHECK_IDS,
    CheckReport,
    canonicalize,
    check_connected_sum_lemma,
    check_inclusion_chain,
    check_main_theorem,
    check_teardrop_reversal,
    check_two_strong_bigons,
    enumerate_curves,
    run_checks,
)
from knotproj import chords, moves, planar, verify
from knotproj.enumeration import BUDGET_ENV

from conftest import cyclic_class, ordered_splices, weak_variant


# --- the checks at small scale -------------------------------------------------


def test_all_checks_pass_small():
    for cid in CHECK_IDS:
        rep = run_checks([cid], max_n=4)[0]
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
        run_checks(["bogus"], max_n=2)


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
    rep = run_checks(["inclusion-chain"], 8)[0]
    assert rep.passed
    assert len(seen) == rep.curves_tested
    # no curve with n <= 10 has arnold 0 outside S; the first ones are at n = 11
    assert not [w for w in rep.witnesses if w[1] == "strict: arnold=0, not in S"]


@pytest.mark.slow
def test_inclusion_chain_at_11_has_the_first_arnold_witnesses(monkeypatch):
    """The first curves with Arnold invariant 0 outside S appear at n = 11."""
    monkeypatch.setenv(BUDGET_ENV, "11")
    rep = run_checks(["inclusion-chain"], 11)[0]
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
    """The check reads only each splice's code, so no face is ever traced,
    and the splice searches no flip and counts no face orbit.  Enumeration
    itself realizes, so the census is built first and served to the check
    from those lists, and the map searches are refused only while it runs."""
    census = {n: enumerate_curves(n) for n in range(1, 6)}
    monkeypatch.setattr(verify, "enumerate_curves", census.__getitem__)
    traced = []
    original = planar._trace_faces

    def counted(cd, flips):
        traced.append(cd)
        return original(cd, flips)

    def refuse(*args):
        raise AssertionError("a splice searched or counted its map")

    monkeypatch.setattr(planar, "_trace_faces", counted)
    with monkeypatch.context() as m:
        m.setattr(chords, "_components", refuse)
        m.setattr(planar, "_face_walk", refuse)
        assert check_connected_sum_lemma(6).passed
    assert traced == []


def test_connected_sum_lemma_counts_on_the_spliced_word(monkeypatch):
    """The check builds no curve per splice: ``connected_sum`` is never
    called, and ``count_tr`` only filters the summands, once per enumerated
    curve below the bound.  A splice that breaks p2's block around one p1
    symbol is caught, so the count is read off the whole spliced word.  The
    mutation goes into the reader the check hands each spliced word, at the
    visit's current cut (``s1``) and block, read off its frame."""
    for n in range(1, 6):
        enumerate_curves(n)
    calls = {"connected_sum": 0, "count_tr": 0}
    for module, name in ((planar, "connected_sum"), (chords, "count_tr")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    assert check_connected_sum_lemma(6).passed
    enumerated = sum(len(enumerate_curves(n)) for n in range(1, 6))
    assert calls == {"connected_sum": 0, "count_tr": enumerated} and enumerated == 25

    bits = chords._interlacement_bits

    def broken(word):
        # move p1's symbol after the cut into the middle of p2's block
        visit = sys._getframe(1).f_locals
        cut, size = visit["s1"] + 1, len(visit["block"])
        end = cut + size
        if end == len(word):  # no tail
            return bits(word)
        mid = cut + size // 2
        return bits(word[:mid] + word[end : end + 1] + word[mid:end] + word[end + 1 :])

    monkeypatch.setattr(chords, "_interlacement_bits", broken)
    rep = check_connected_sum_lemma(6)
    assert not rep.passed
    healthy = run_checks(["connected-sum-lemma"], 6)[0]
    assert rep.curves_tested == healthy.curves_tested


def test_connected_sum_lemma_tests_every_pair_of_triple_free_curves(census):
    """``curves_tested`` is the number of pairs of triple-chord-free curves
    with n1 + n2 <= max_n, from the census fixture's counts and from the
    sweep of every ordered site pair (``ordered_splices``), and the check
    passes exactly when that sweep finds no triple chord, for max-n 0..9."""
    tf = {int(n): k for n, k in census["triple_free"].items()}
    pools = {
        n: [p.word for p in enumerate_curves(n) if not chords.count_tr(p.code)]
        for n in range(1, 9)
    }
    oracle = ordered_splices(pools, 9)
    for max_n in range(0, 10):
        splices = [
            (key, tr) for key, (word, tr) in oracle.items() if len(word) <= 2 * max_n
        ]
        rep = run_checks(["connected-sum-lemma"], max_n)[0]
        assert rep.passed == all(tr == 0 for _, tr in splices), max_n
        pairs = len({(key[0], key[2]) for key, _ in splices})
        assert rep.curves_tested == pairs, max_n
        if max_n <= 8:
            want = sum(
                tf[n1] * tf[n2]
                for n1 in range(1, max_n)
                for n2 in range(1, max_n - n1 + 1)
            )
            assert pairs == want, max_n
        if max_n == 7:
            assert (pairs, len(splices)) == (126, 3_540)
    assert rep.passed and (pairs, len(splices)) == (1_118, 46_780)


def pool_every_curve(monkeypatch):
    """Make the connected-sum visit take every curve as triple-chord-free,
    so that it pools and splices curves with triple chords too."""
    first, below, visit = verify._VISITS["connected-sum-lemma"]

    def every_curve(t, n, batch, table):
        visit(t, n, [(p, 0) for p, _ in batch], table)

    spec = (first, below, every_curve)
    monkeypatch.setitem(verify._VISITS, "connected-sum-lemma", spec)


def record_splices(monkeypatch):
    """Wrap ``chords._interlacement_bits``, the reader the connected-sum
    check reads each splice with; the list it fills.

    Each call adds the word read and the triple-chord count of its rows.
    Census diagrams come with their rows, so in a connected-sum-only pass
    the check's splices are the only words read.
    """
    reads = []
    bits = chords._interlacement_bits

    def recorded(word):
        rows = bits(word)
        reads.append((word, chords._triangles(rows)))
        return rows

    monkeypatch.setattr(chords, "_interlacement_bits", recorded)
    return reads


@pytest.mark.parametrize(
    "every, read, nonzero",
    [(False, 572, 0), (True, 1_048, 476)],
    ids=["triple-free", "every-curve"],
)
def test_connected_sum_lemma_reads_a_splice_equal_to_each_ordered_one(
    monkeypatch, every, read, nonzero
):
    """At max-n 7, every ordered splice (p1, s1, p2, s2) is a rotation, up
    to relabeling, of a splice the check reads, and its triple-chord count
    (the ordered-sweep oracle's) is the one the check reads there.  With
    every curve pooled, not just the triple-chord-free ones, the counts are
    not all 0, and the report lists one violation per splice read with
    triple chords."""
    if every:
        pool_every_curve(monkeypatch)
    reads = record_splices(monkeypatch)
    rep = run_checks(["connected-sum-lemma"], 7)[0]
    monkeypatch.undo()  # the oracle reads its own words
    pools = {
        n: [p.word for p in enumerate_curves(n) if every or not chords.count_tr(p.code)]
        for n in range(1, 7)
    }
    oracle = ordered_splices(pools, 7)
    read_tr = {}
    for word, tr in reads:
        read_tr.setdefault(cyclic_class(word), set()).add(tr)
    assert set(read_tr) == {cyclic_class(word) for word, _ in oracle.values()}
    for key, (word, tr) in oracle.items():
        assert read_tr[cyclic_class(word)] == {tr}, key
    assert len(reads) == read
    assert len(rep.violations) == sum(tr > 0 for _, tr in reads) == nonzero
    assert rep.curves_tested == len({(w1, w2) for w1, _, w2, _ in oracle})


def test_connected_sum_lemma_reads_the_spliced_word(monkeypatch):
    """At max-n 7, with every curve pooled, each word the connected-sum
    visit hands ``chords._interlacement_bits`` is ``planar._splice_word``
    at the visit's current summands and sites, read off its frame, and
    relabeled by first occurrence it is ``connected_sum``'s word there: the
    check and ``connected_sum`` assemble one word."""
    pool_every_curve(monkeypatch)
    bits = chords._interlacement_bits
    reads = []

    def checked(word):
        visit = sys._getframe(1)
        assert visit.f_code is verify._connected_sum_lemma.__code__
        at = tuple(visit.f_locals[k] for k in ("p1", "p2", "s1", "s2"))
        p1, p2, s1, s2 = at
        assert word == planar._splice_word(p1.word, p2.word, s1, s2), at
        rows = bits(word)
        reads.append((at, word, chords._triangles(rows)))
        return rows

    monkeypatch.setattr(chords, "_interlacement_bits", checked)
    rep = run_checks(["connected-sum-lemma"], 7)[0]
    monkeypatch.undo()
    assert (len(reads), sum(tr > 0 for _, _, tr in reads)) == (1_048, 476)
    assert len(rep.violations) == 476
    for at, word, _ in reads:
        assert chords._relabel(word) == planar.connected_sum(*at).word, at


@pytest.mark.parametrize("max_n, read", [(7, 572), (9, 9_804)])
def test_connected_sum_lemma_reads_one_splice_per_class(monkeypatch, max_n, read):
    """The check reads one splice per pair of site classes, not one per
    ordered site pair (3,540 at max-n 7, 46,780 at max-n 9): the reader is
    called once per splice read, and ``connected_sum`` never."""
    reads = record_splices(monkeypatch)

    def refuse(*args):
        raise AssertionError("the check built a connected sum")

    monkeypatch.setattr(planar, "connected_sum", refuse)
    assert run_checks(["connected-sum-lemma"], max_n)[0].passed
    assert len(reads) == read


def test_connected_sum_lemma_pools_only_first_summands(monkeypatch, census):
    """A summand with more than max_n / 2 crossings is never the first, so
    at max-n 9 the pools hold the triple-chord-free curves with n <= 4 and
    no others."""
    first, below, visit = verify._VISITS["connected-sum-lemma"]
    tallies = []

    def kept(t, n, batch, table):
        tallies.append(t)
        visit(t, n, batch, table)

    monkeypatch.setitem(verify._VISITS, "connected-sum-lemma", (first, below, kept))
    assert run_checks(["connected-sum-lemma"], 9)[0].passed
    pools = tallies[-1].pools
    assert {n: len(pool) for n, pool in pools.items()} == {
        n: census["triple_free"][str(n)] for n in range(1, 5)
    }
    assert all(entry[0].n == n for n, pool in pools.items() for entry in pool)


def test_teardrop_reversal_flags_triple_chords_as_excluded():
    rep = check_teardrop_reversal(3)
    assert rep.passed
    assert any("expected-excluded" in w[1] for w in rep.witnesses)


def test_run_checks_unknown_id():
    """An unknown identifier is refused even beside known ones."""
    with pytest.raises(KeyError):
        run_checks(["main-theorem", "no-such-check"], max_n=3)


# --- report values ---------------------------------------------------------------


def test_report_json_shape_and_passed():
    rep = run_checks(["main-theorem"], max_n=3)[0]
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
        a, b = (
            json.dumps(run_checks([cid], max_n=3)[0].to_json_obj(), sort_keys=True)
            for _ in range(2)
        )
        assert a == b


def test_failed_report_carries_violations():
    rep = CheckReport("main-theorem", 3, 1, (("1 1", "boom"),), 0.0)
    assert not rep.passed
    assert rep.to_json_obj()["violations"] == [["1 1", "boom"]]


# --- the strongness discriminator -------------------------------------------------


def test_interleaved_mutant_breaks_the_chain(monkeypatch):
    """With strongness flipped to the interleaved reading, the trefoil's
    bigons all become deletable, the trefoil enters S, and membership no
    longer forces the arnold invariant to vanish."""
    baseline = check_inclusion_chain(3)
    assert baseline.passed
    monkeypatch.setattr(planar, "_strong_sites", weak_variant)
    mutated = check_inclusion_chain(3)
    assert not mutated.passed
    assert any("arnold" in reason for _, reason in mutated.violations)


def test_mutant_detected_by_bigon_census_too(monkeypatch):
    monkeypatch.setattr(planar, "_strong_sites", weak_variant)
    rep = check_two_strong_bigons(4)
    assert not rep.passed


STUCK_AT_4_1 = "no 1b/s2b move applies to triple-chord-free curve '1 2 3 1 4 3 2 4'"


def test_main_theorem_reports_a_curve_with_no_strong_2_gon(monkeypatch):
    """With no 2-gon read as strong, the check flags the monogon-free curves
    before any move and the curves with monogons where their run sticks:
    the report of the route that traced faces and then reran the greedy
    reduction, pinned.  A healthy run of the check comes first, so a
    verdict table that outlived its call would hide the mutant."""
    baseline = check_main_theorem(6)
    assert baseline.passed and baseline.curves_tested == 39
    monkeypatch.setattr(planar, "_strong_sites", lambda word, flips, firsts: [])
    rep = check_main_theorem(6)
    assert rep.curves_tested == 39
    assert list(rep.violations) == [
        ("1 2 3 1 4 3 2 4", "no monogon and no strong 2-gon"),
        ("1 1 2 3 4 2 5 4 3 5", STUCK_AT_4_1),
        ("1 1 2 3 4 5 3 2 5 4", STUCK_AT_4_1),
        ("1 1 2 2 3 4 5 3 6 5 4 6", STUCK_AT_4_1),
        ("1 1 2 2 3 4 5 6 4 3 6 5", STUCK_AT_4_1),
        ("1 1 2 3 3 4 5 2 6 5 4 6", STUCK_AT_4_1),
        ("1 1 2 3 4 2 5 4 6 6 3 5", STUCK_AT_4_1),
        ("1 1 2 3 4 2 5 5 6 4 3 6", STUCK_AT_4_1),
        ("1 1 2 3 4 2 5 6 6 4 3 5", STUCK_AT_4_1),
        ("1 1 2 3 4 4 5 6 3 2 6 5", STUCK_AT_4_1),
        ("1 1 2 3 4 5 3 6 5 4 6 2", STUCK_AT_4_1),
        ("1 1 2 3 4 5 6 4 3 6 5 2", STUCK_AT_4_1),
        ("1 1 2 3 4 5 6 6 3 2 5 4", STUCK_AT_4_1),
        ("1 2 3 1 4 5 6 3 2 6 5 4", "no monogon and no strong 2-gon"),
    ]


def hide_every_move(monkeypatch):
    """No loop edge is seen, the run's pass deletes none, and no 2-gon
    reads as strong."""
    monkeypatch.setattr(moves, "_loops", lambda word: set())
    monkeypatch.setattr(moves, "_curls", lambda word: [])
    monkeypatch.setattr(planar, "_strong_sites", lambda word, flips, firsts: [])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda mp: mp.setattr(planar, "_strong_sites", weak_variant),
        hide_every_move,
    ],
    ids=["weak-variant", "hide-every-move"],
)
def test_main_theorem_words_violations_as_a_fresh_run(monkeypatch, mutate):
    """The pass's one tabled run per curve words each violation as a second
    run with no table, to where it sticks, would: "no monogon and no strong
    2-gon" when that run takes no move, else the curve it sticks at.  With
    inclusion-chain first, every main-theorem run stops at its first
    loop-free state, which the table holds, and takes no s2b step itself."""
    mutate(monkeypatch)
    alone = run_checks(["main-theorem"], 6)[0]
    after = run_checks(["inclusion-chain", "main-theorem"], 6)[1]
    assert alone.violations and after == alone._replace(elapsed=after.elapsed)
    census = {
        str(canonicalize(p.code)): p for n in range(1, 7) for p in enumerate_curves(n)
    }
    for code, why in alone.violations:
        p = census[code]
        word = moves._reduce(p)[1][0]
        assert word, code
        if moves.applicable_moves(p):
            assert why == str(moves._stuck(word)), code
        else:
            assert why == "no monogon and no strong 2-gon", code
