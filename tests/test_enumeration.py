import json
import sys

import pytest

from knotproj import (
    ChordDiagram,
    build_record,
    canonicalize,
    enumerate_curves,
    enumeration_budget,
    gauss_parity_violations,
    read_dataset,
    realize,
    write_dataset,
    U,
)
from knotproj import chords, moves, planar
from knotproj.enumeration import (
    BUDGET_ENV,
    DEFAULT_MAX_N,
    EnumerationRecord,
    _canonical_words,
    _record_line,
    _record_to_obj,
)
from knotproj.errors import BudgetExceeded, NotRealizable, SchemaError

import conftest
from conftest import (
    all_canonical_words,
    brute_force_realizable,
    canonical_text_full_relabel,
    face_record,
    first_closed_interval,
    is_orbit_min,
    leaf_checked_words,
    pairing_words,
    reading_orbit_min,
    second_condition_violations,
    trace_face_count,
)


# --- generation ------------------------------------------------------------------


def test_counts_match_census(census):
    for n_text, expect in census["classes"].items():
        n = int(n_text)
        if n > 6:
            continue  # n=7 is exercised by the acceptance suite
        assert len(enumerate_curves(n)) == expect


def test_counts_match_census_beyond_default_tier(census, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "9")
    for n in (8, 9):
        assert len(enumerate_curves(n)) == census["classes"][str(n)]


def realizable(words):
    return [
        w for w in words if planar._search_rotations(ChordDiagram(w)) is not None
    ]


def generated_words(n):
    """The words of ``_canonical_words(n)``'s diagrams."""
    return [cd.word for cd in _canonical_words(n)]


@pytest.mark.slow
def test_counts_match_census_at_10(census, monkeypatch):
    """The pruned generator's curves against the unpruned generator's."""
    monkeypatch.setenv(BUDGET_ENV, "10")
    curves = [p.word for p in enumerate_curves(10)]
    assert len(curves) == census["classes"]["10"]
    assert realizable(leaf_checked_words(10)) == curves


@pytest.mark.slow
def test_counts_match_census_at_11(census, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "11")
    assert len(enumerate_curves(11)) == census["classes"]["11"] == 129_845


def test_unembedded_survivors_are_pinned(census):
    """Words that pass every close-time prune and still do not embed."""
    for n_text, expect in census["unembedded_survivors"].items():
        words = generated_words(int(n_text))
        assert len(words) - len(realizable(words)) == expect, n_text


def test_parity_pruned_words_equal_filtered_oracle():
    for n in range(0, 8):
        expect = [
            w
            for w in all_canonical_words(n)
            if not gauss_parity_violations(ChordDiagram(w))
            and not second_condition_violations(w)
        ]
        assert generated_words(n) == expect


def test_orderly_words_equal_leaf_checked_oracle():
    for n in (8, 9):
        expect = [w for w in leaf_checked_words(n) if not second_condition_violations(w)]
        assert generated_words(n) == expect


def test_pruned_words_keep_every_realizable_word():
    for n in range(1, 10):
        assert realizable(generated_words(n)) == realizable(leaf_checked_words(n)), n


@pytest.mark.slow
def test_orderly_words_equal_leaf_checked_oracle_at_10():
    words = generated_words(10)
    assert len(words) == 23_584
    assert words == [
        w for w in leaf_checked_words(10) if not second_condition_violations(w)
    ]


def _counting(monkeypatch, module, name, record):
    original = getattr(module, name)

    def counted(*args):
        record.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def handed_facts_match(n):
    """Each generated diagram carries its interlacement rows, equal to what
    the diagram would compute itself, its first positions, each label's
    first index in the word, and its canonical form, itself, and nothing
    else."""
    for cd in _canonical_words(n):
        w = cd.word
        assert set(cd.__dict__) == {"_bits", "_canon", "_firsts"}, w
        assert cd._bits == chords._interlacement_bits(w), w
        assert cd._firsts == tuple(w.index(a) for a in range(1, n + 1)), w
        assert cd._canon is cd


def test_generator_hands_on_rows_and_first_positions():
    for n in range(1, 10):
        handed_facts_match(n)


@pytest.mark.slow
def test_generator_hands_on_rows_and_first_positions_at_10():
    handed_facts_match(10)


def leaf_states(n):
    """The state of ``_canonical_words(n)`` at each leaf of its search, read
    off the ``place`` frame as it returns from the leaf: (word, back, rback,
    gap, cands, emitted), ``cands`` the candidate readings recorded as
    chords closed and ``emitted`` whether the leaf handed its word on."""
    states = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code.co_name == "place":
            f = frame.f_locals
            if f["i"] == f["m"]:
                word, out = tuple(f["word"]), f["out"]
                emitted = bool(out) and out[-1].word == word
                states.append(
                    (word, f["back"][:], f["rback"][:], f["gap"], f["cands"][:], emitted)
                )

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        words = _canonical_words(n)
    finally:
        sys.setprofile(previous)
    assert [w for w, *_, emitted in states if emitted] == [cd.word for cd in words]
    return states


def test_leaf_arrays_are_the_words_back_steps():
    """At every leaf of the generator, ``back`` and ``rback`` are the back
    steps of the finished word and of its reversal, and the gap is the
    least back step, taken at offset gap by the word's own reading.  The
    leaf compares its candidates on these arrays; the last condition is the
    one the deadline keeps."""
    leaves = 0
    for n in range(1, 9):
        for word, back, rback, g, _, _ in leaf_states(n):
            m = len(word)
            assert back == chords._back_steps(word), word
            assert rback == [m - b for b in reversed(back)], word
            assert min(back) == back[g] == g, word
            leaves += 1
    assert leaves == 2_464


def assert_leaf_reads_the_recorded_candidates(n):
    """At every leaf, the candidates the search recorded as chords closed
    are the ones that can still be least.  The forward starts are every
    start ``chords._least_starts`` lists but the word's own, each read from
    offset gap + 1.  A backward start it lists is recorded, and then its
    reading agrees with the word before the recorded offset, or else it
    reads larger than the word.  The leaf's verdict is the oracle's,
    ``conftest._is_orbit_min``.  Returns the leaf count."""
    states = leaf_states(n)
    for word, back, rback, g, cands, emitted in states:
        m = len(word)
        fwd = [s for rev, s, k in cands if not rev]
        assert sorted(fwd) == chords._least_starts(back * 2, g)[1:], word
        assert all(k == g + 1 for rev, _, k in cands if not rev), word
        bwd = {s: k for rev, s, k in cands if rev}
        assert len(bwd) == len(cands) - len(fwd), word
        starts = chords._least_starts(rback * 2, g)
        assert set(bwd) <= set(starts), word
        rw = word[::-1]
        for r in starts:
            reading = conftest._relabel(rw[r:] + rw[:r])
            if r in bwd:
                k = bwd[r]
                assert g < k <= m and reading[:k] == word[:k], word
            else:
                assert reading > word, word
        assert emitted == conftest._is_orbit_min(back, rback, g), word
    return len(states)


def test_leaf_reads_the_recorded_candidates():
    assert sum(assert_leaf_reads_the_recorded_candidates(n) for n in range(1, 10)) == 13_459


@pytest.mark.slow
def test_leaf_reads_the_recorded_candidates_at_10():
    assert assert_leaf_reads_the_recorded_candidates(10) == 65_405


def close_time_prune_cuts(n, leaf_checked, checked):
    """The generator reaches ``checked`` leaves, the leaf-checked generator
    runs ``reading_orbit_min`` on ``leaf_checked``."""
    old = []
    with pytest.MonkeyPatch.context() as mp:
        _counting(mp, conftest, "reading_orbit_min", old)
        leaf_checked_words(n)
    assert len(old) == leaf_checked, n
    # pinned; a further close-time prune may lower it
    assert len(leaf_states(n)) == checked, n


def test_close_time_prune_cuts_leaf_checks():
    close_time_prune_cuts(8, 5_892, 1_967)
    close_time_prune_cuts(9, 47_061, 10_995)


@pytest.mark.slow
def test_close_time_prune_cuts_leaf_checks_at_10():
    close_time_prune_cuts(10, 423_018, 65_405)


def search_tree(n):
    """``_canonical_words(n)``'s node count (``place`` calls, counted with
    a profile hook) and diagram count."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "place":
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        words = _canonical_words(n)
    finally:
        sys.setprofile(previous)
    return nodes, len(words)


def test_generator_search_tree_is_pinned():
    """The n = 8 search visits 10,212 nodes for its 780 diagrams, about 13
    per diagram emitted, and the n = 9 search 57,584 for 4,109, about 14.
    Pinned; a further prune may lower them.  Without the deadline prune the
    n = 8 count rises to 10,214, so a change to it shows here."""
    assert search_tree(8) == (10_212, 780)
    assert search_tree(9) == (57_584, 4_109)


@pytest.mark.slow
def test_generator_search_tree_is_pinned_at_10():
    """348,509 nodes for 23,584 diagrams, about 15 per diagram emitted."""
    assert search_tree(10) == (348_509, 23_584)


def test_is_orbit_min_agrees_on_leaf_checked_leaves(monkeypatch):
    """The key comparison against the tuple reading on every leaf the
    leaf-checked generator reads, canonical or not."""
    leaves = []
    _counting(monkeypatch, conftest, "reading_orbit_min", leaves)
    for n in range(0, 9):
        leaf_checked_words(n)
    monkeypatch.undo()
    assert len(leaves) > 5_892
    for (w,) in leaves:
        least = reading_orbit_min(w)
        assert chords._orbit_min(w) == least, w
        assert is_orbit_min(w) == (least == w), w


def test_is_orbit_min_agrees_on_rotations_and_reflections():
    """Every rotation and reflection of every canonical word up to 6 chords
    (the parity-passing ones at 7) against the full relabeling of all 4n
    transforms."""
    for n in range(0, 8):
        words = all_canonical_words(n) if n <= 6 else leaf_checked_words(n)
        for w in words:
            assert canonical_text_full_relabel(ChordDiagram(w)) == str(ChordDiagram(w))
            for seq in (w, w[::-1]):
                for r in range(len(w) or 1):
                    t = chords._normalize(seq[r:] + seq[:r])
                    assert chords._orbit_min(t) == w, t
                    assert is_orbit_min(t) == (t == w), t


def test_close_time_prune_decides_as_the_tuple_reading(monkeypatch):
    """At every minimal-gap close of the n = 8 generator, the key comparison
    reads the reflection back from the closing position against the prefix
    as the relabeled tuples compare: it prunes exactly when the reflection
    reads below, and ties exactly when the two are equal.  Chord 1's close,
    once per gap, is among them and ties."""
    signs = []
    precedes = chords._precedes

    def checked(a, s, b, t, k, stop):
        got = precedes(a, s, b, t, k, stop)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "place":
            i, word = caller.f_locals["i"], caller.f_locals["word"]
            if i < len(word):  # the close-time prune, not the leaf
                prefix = tuple(word[: i + 1])
                below = conftest._reads_below(prefix[::-1], 0, prefix)
                assert (got < 0) == below, prefix
                assert (got == 0) == (conftest._relabel(prefix[::-1]) == prefix), prefix
                signs.append(got)
        return got

    monkeypatch.setattr(chords, "_precedes", checked)
    _canonical_words(8)
    smaller = sum(c < 0 for c in signs)
    larger = sum(c > 0 for c in signs)
    assert (len(signs), smaller) == (1_959, 672)
    assert (larger, len(signs) - smaller - larger) == (1_049, 238)


def test_generator_equals_pairing_oracle():
    for n in range(1, 5):
        oracle = set()
        for word in pairing_words(n):
            cd = ChordDiagram(word)
            if gauss_parity_violations(cd):
                continue
            if not brute_force_realizable(word):
                continue
            oracle.add(str(canonicalize(cd)))
        got = {str(p.code) for p in enumerate_curves(n)}
        assert got == oracle


def test_realizability_equals_brute_force_sweep():
    for n in range(1, 4):
        for word in pairing_words(n):
            cd = ChordDiagram(word)
            package = True
            try:
                realize(cd)
            except NotRealizable:
                package = False
            assert package == brute_force_realizable(word)


def test_enumerated_codes_are_canonical_sorted_and_euler():
    for n in range(0, 6):
        curves = enumerate_curves(n)
        texts = [str(p.code) for p in curves]
        assert texts == sorted(texts, key=lambda t: tuple(map(int, t.split())))
        for p in curves:
            assert str(canonicalize(p.code)) == str(p.code)
            assert gauss_parity_violations(p.code) == []
            assert trace_face_count(p.word, p.rotations) == p.n + 2


def test_enumerated_codes_carry_their_canonical_code():
    for n in range(1, 9):
        for p in enumerate_curves(n):
            assert "_canon" in p.code.__dict__  # filled by the enumeration
            assert p.code._canon is p.code
            assert canonicalize(p.code) == canonicalize(ChordDiagram(p.word)), p.word


def test_enumerate_zero_is_u():
    assert enumerate_curves(0) == [U]


def test_budget_guard(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert enumeration_budget() == DEFAULT_MAX_N
    with pytest.raises(BudgetExceeded):
        enumerate_curves(DEFAULT_MAX_N + 1)
    with pytest.raises(BudgetExceeded):
        enumerate_curves(-1)
    monkeypatch.setenv(BUDGET_ENV, "3")
    assert enumeration_budget() == 3
    with pytest.raises(BudgetExceeded):
        enumerate_curves(4)
    assert len(enumerate_curves(3)) == 3


# --- records ----------------------------------------------------------------------


def test_build_record_trefoil():
    rec = build_record(realize(ChordDiagram((1, 2, 3, 1, 2, 3))))
    assert rec.code == "1 2 3 1 2 3"
    assert (rec.n, rec.x, rec.tr) == (3, 3, 1)
    assert rec.face_degrees == (2, 2, 2, 3, 3)
    assert (rec.monogons, rec.strong_bigons) == (0, 0)
    assert rec.reduced and rec.prime and not rec.in_S
    assert rec.arnold == 2 and type(rec.arnold) is int


def test_build_record_matches_face_record_oracle():
    """The record's face fields, prime and in_S off one walk, against the
    Face-based oracle on every curve with n <= 8."""
    records = 0
    for n in range(0, 9):
        for p in enumerate_curves(n):
            want = face_record(p)
            rec = build_record(p, with_arnold=False)
            assert {f: getattr(rec, f) for f in want} == want, p.word
            records += 1
    assert records == 991


def test_build_record_builds_one_interlacement_core(monkeypatch):
    # a curl on the trefoil core: in_S takes a move before it gets stuck
    words = []
    original = chords._interlacement_bits

    def counted(word):
        words.append(word)
        return original(word)

    monkeypatch.setattr(chords, "_interlacement_bits", counted)
    # realize builds the core for parity and flips; the curve keeps it
    p = realize(ChordDiagram((1, 1, 2, 3, 4, 2, 3, 4)))
    rec = build_record(p)
    assert (rec.x, rec.tr, rec.strong_bigons, rec.reduced, rec.in_S) == (3, 1, 0, False, False)
    assert words.count(p.word) == 1
    assert p.code is p.code


def test_census_walks_each_interlacement_graph_once(monkeypatch):
    """Realization's one walk gives a diagram's flips and its ``prime``:
    over ``enumerate_curves`` and ``build_record`` for n <= 8,
    ``chords._components`` runs exactly once per generated diagram, and
    ``build_record`` reads the verdict realization kept."""
    walked = []
    _counting(monkeypatch, chords, "_components", walked)
    table = {}
    for n in range(9):
        for p in enumerate_curves(n):
            build_record(p, table=table)
    generated = [cd.word for n in range(9) for cd in _canonical_words(n)]
    assert [args[0].word for args in walked] == generated
    assert len(generated) == 1_025


def test_kept_primality_equals_a_fresh_walk():
    """The ``prime`` that realization keeps equals the walk a fresh diagram
    makes on first use, and so does ``prime`` on curves realization did not
    build (move results, connected sums, prime factors, every embedding of
    a code), each against the closed-interval oracle."""
    table = {}
    built = []
    for n in range(1, 7):
        for p in enumerate_curves(n):
            assert "_prime" in p.code.__dict__
            assert p.code._prime == ChordDiagram(p.word)._prime
            built += [moves.apply_move(p, mv) for mv in moves.applicable_moves(p)]
            built += [planar.connected_sum(p, q, 0, 0) for q in enumerate_curves(3)]
            built += planar.prime_decompose(p)
            built += planar.all_realizations(ChordDiagram(p.word))
    # U's verdict is kept once realization has returned it; the rest walk
    assert all("_prime" not in q.code.__dict__ for q in built if q is not U)
    for q in built:
        want = q.n >= 1 and first_closed_interval(q.word) is None
        assert build_record(q, with_arnold=False, table=table).prime == want, q.word
    assert len(built) == 2_043


def test_census_records_validate_no_word(monkeypatch):
    # generated words and connected-sum parts are normal by construction
    calls = []
    _counting(monkeypatch, chords, "_normalize", calls)
    for n in range(1, 8):
        for p in enumerate_curves(n):
            build_record(p)
    assert calls == []


def test_build_record_u():
    rec = build_record(U)
    assert rec.code == "" and rec.n == 0
    assert rec.face_degrees == (0, 0)
    assert rec.in_S and rec.reduced and not rec.prime
    assert rec.arnold == 0


def test_build_record_without_arnold():
    rec = build_record(U, with_arnold=False)
    assert rec.arnold is None


# --- dataset io ---------------------------------------------------------------------


def all_records(max_n):
    recs = []
    for n in range(0, max_n + 1):
        for p in enumerate_curves(n):
            recs.append(build_record(p))
    return recs


def encoder_line(rec):
    """The line ``_record_line`` replaced: json's compact encoding of
    :func:`enumeration._record_to_obj`, newline-ended."""
    return json.JSONEncoder(separators=(",", ":")).encode(_record_to_obj(rec)) + "\n"


def test_record_line_equals_the_compact_encoder():
    """The one-format line against the encoder on every census record with
    n <= 8, once with the Arnold invariant and once without."""
    table = {}
    lines = 0
    for n in range(0, 9):
        for p in enumerate_curves(n):
            for with_arnold in (True, False):
                rec = build_record(p, with_arnold, table=table)
                assert _record_line(rec) == encoder_line(rec), (rec.code, with_arnold)
                lines += 1
    assert lines == 2 * 991


@pytest.mark.parametrize(
    "code,face_degrees,arnold",
    [
        ("", (0, 0), 0),  # U
        ("", (0, 0), None),
        ("1 2 3 1 2 3", (2, 2, 2, 3, 3), 2),
        ("1 1", (1, 1, 2), -3),
        ("1 1", (1, 1, 2), 10**30),
        # quote, backslash, control and non-ASCII characters pin the escaping
        ('"q" \\ \n \u00e9 \u2028 \U0001f600', (), None),
        ("1 2 1 2", (2, 10, 11, 100, 12345), 7),  # degrees of 10 and above
        # a library caller's record may hold its degrees as a list
        ("1 1", [1, 1, 2], None),
    ],
    ids=[
        "u",
        "u-no-arnold",
        "trefoil",
        "negative-arnold",
        "long-arnold",
        "escapes",
        "wide-degrees",
        "list-degrees",
    ],
)
def test_record_line_equals_the_compact_encoder_on_hand_built_records(
    code, face_degrees, arnold
):
    for flags in [(False, False, False), (True, False, True), (False, True, False)]:
        rec = EnumerationRecord(code, 0, 1, 2, face_degrees, 3, 4, *flags, arnold)
        assert _record_line(rec) == encoder_line(rec), rec


def test_write_read_identity(tmp_path):
    path = tmp_path / "ds.jsonl"
    recs = all_records(3)
    write_dataset(recs, path)
    assert read_dataset(path) == recs


def test_write_is_sorted_and_framed(tmp_path):
    path = tmp_path / "ds.jsonl"
    recs = all_records(3)
    write_dataset(list(reversed(recs)), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"schema":1}'
    assert len(lines) == 1 + len(recs)
    keys = [(json.loads(l)["n"], json.loads(l)["code"]) for l in lines[1:]]
    assert keys == sorted(keys, key=lambda kv: (kv[0], tuple(map(int, kv[1].split()))))


def test_write_byte_stable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    recs = all_records(3)
    write_dataset(recs, a)
    write_dataset(recs, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "ds.jsonl"
    recs = all_records(1)
    write_dataset(recs, path)
    body = path.read_text(encoding="utf-8").replace("\n", "\n\n")
    path.write_text(body, encoding="utf-8")
    assert read_dataset(path) == recs


def test_arnold_round_trips_as_rational_text(tmp_path):
    path = tmp_path / "ds.jsonl"
    recs = all_records(3)
    write_dataset(recs, path)
    raw = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()[1:]]
    trefoil = next(o for o in raw if o["code"] == "1 2 3 1 2 3")
    assert trefoil["arnold"] == "2"
    assert all(isinstance(o["arnold"], str) for o in raw)


@pytest.mark.parametrize(
    "mutate,line,fragment",
    [
        (lambda lines: ["garbage"] + lines[1:], 1, "invalid JSON"),
        (lambda lines: ['{"schema":2}'] + lines[1:], 1, "expected"),
        (lambda lines: ['{"schema":true}'] + lines[1:], 1, "got '{\"schema\":true}'"),
        (lambda lines: ['{"schema":1.0}'] + lines[1:], 1, "got '{\"schema\":1.0}'"),
        # "\udcff" is written as the lone byte 0xff (surrogateescape)
        (lambda lines: ['{"schema":1}\udcff'] + lines[1:], 1, "not UTF-8"),
        (lambda lines: lines[:2] + ['{"code":"1 1\udcff"}'], 3, "not UTF-8"),
        (lambda lines: [], 1, "empty file"),
        (lambda lines: lines[:1] + ["{broken"] + lines[2:], 2, "invalid JSON"),
        (
            lambda lines: lines[:2] + [lines[2].replace('"n":', '"m":')],
            3,
            "unknown field",
        ),
        (
            lambda lines: lines[:2] + [lines[2].replace('"n":1,', "")],
            3,
            "missing field",
        ),
        (
            lambda lines: lines[:2] + [lines[2].replace('"n":1', '"n":"1"')],
            3,
            "must be an integer",
        ),
        (lambda lines: lines[:2] + ["[1, 2]"], 3, "record is not a JSON object"),
        (
            lambda lines: lines[:2] + [lines[2].replace('"code":"1 1"', '"code":11')],
            3,
            "code must be a string",
        ),
        (
            lambda lines: lines[:2] + [lines[2].replace('"reduced":false', '"reduced":0')],
            3,
            "reduced must be a boolean",
        ),
        (
            lambda lines: lines[:2]
            + [lines[2].replace('"face_degrees":[1,1,2]', '"face_degrees":[1,true,2]')],
            3,
            "face_degrees must be a list of integers",
        ),
        (
            lambda lines: lines[:2] + [lines[2].replace('"code":"1 1"', '"code":"x y"')],
            3,
            "code is not a Gauss code: unparseable token 'x'",
        ),
        (
            lambda lines: lines[:2] + [lines[2].replace('"code":"1 1"', '"code":"2 2"')],
            3,
            "code must be written '1 1'",
        ),
        (
            lambda lines: lines[:2] + [lines[2].replace('"n":1', '"n":2')],
            3,
            "n is 2 but code has 1 crossing(s)",
        ),
        *(
            pytest.param(
                lambda lines, bad=bad: lines[:2]
                + [lines[2].replace('"arnold":"0"', f'"arnold":{json.dumps(bad)}')],
                3,
                "arnold must be a decimal integer string",
                id=f"arnold={bad!r}",
            )
            for bad in [
                0, None, "", "x", "1/", "/2", "1/0", "1.5", "1 / 2", "\u0663",
                "1/\u0663", "1/4", "4/2", "+2", " 2", "2 ", "--2", "-",
            ]
        ),
        pytest.param(
            lambda lines: lines[:2]
            + [lines[2].replace('"arnold":"0"', '"arnold":"' + "9" * 5000 + '"')],
            3,
            "arnold must be a decimal integer string",
            id="arnold-past-int-digit-limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="int() has no digit limit before Python 3.11",
            ),
        ),
    ],
)
def test_schema_errors_carry_line_numbers(tmp_path, mutate, line, fragment):
    path = tmp_path / "ds.jsonl"
    write_dataset(all_records(1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    text = "\n".join(mutate(lines)) + "\n" if mutate(lines) else ""
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(SchemaError) as exc:
        read_dataset(path)
    assert exc.value.line == line
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line}:")


def test_records_are_values():
    rec = build_record(U)
    assert rec == EnumerationRecord(**{f: getattr(rec, f) for f in rec._fields})
