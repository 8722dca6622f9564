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
from knotproj import chords, planar
from knotproj.enumeration import (
    BUDGET_ENV,
    DEFAULT_MAX_N,
    EnumerationRecord,
    _canonical_words,
)
from knotproj.errors import BudgetExceeded, NotRealizable, SchemaError

import conftest
from conftest import (
    all_canonical_words,
    brute_force_realizable,
    canonical_text_full_relabel,
    face_record,
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
    the diagram would compute itself, and its canonical form, itself, and
    nothing else; its first positions, found by the diagram's own scan,
    are each label's first index in the word."""
    for cd in _canonical_words(n):
        w = cd.word
        assert set(cd.__dict__) == {"_bits", "_canon"}, w
        assert cd._bits == chords._interlacement_bits(w), w
        assert cd._firsts == tuple(w.index(a) for a in range(1, n + 1)), w
        assert cd._canon is cd


def test_generator_hands_on_rows_and_first_positions():
    for n in range(1, 10):
        handed_facts_match(n)


@pytest.mark.slow
def test_generator_hands_on_rows_and_first_positions_at_10():
    handed_facts_match(10)


def test_leaf_arrays_are_the_words_back_steps(monkeypatch):
    """At every leaf the generator tests, ``back`` and ``rback`` are the back
    steps of the finished word (read off the ``place`` frame) and of its
    reversal, and the gap is the least back step, taken at offset gap by the
    word's own reading.  ``chords._is_orbit_min`` lists its candidates from
    these arrays alone; the last condition is the one the deadline keeps."""
    leaves = 0
    is_min = chords._is_orbit_min

    def checked(back, rback, g):
        nonlocal leaves
        word = tuple(sys._getframe(1).f_locals["word"])
        m = len(word)
        assert back == chords._back_steps(word), word
        assert rback == [m - b for b in reversed(back)], word
        assert min(back) == back[g] == g, word
        leaves += 1
        return is_min(back, rback, g)

    monkeypatch.setattr(chords, "_is_orbit_min", checked)
    for n in range(1, 9):
        _canonical_words(n)
    assert leaves == 2_464


def test_close_time_prune_cuts_leaf_checks(monkeypatch):
    new, old = [], []
    _counting(monkeypatch, chords, "_is_orbit_min", new)
    _counting(monkeypatch, conftest, "reading_orbit_min", old)
    _canonical_words(8)
    leaf_checked_words(8)
    assert len(old) == 5_892
    # pinned; a further close-time prune may lower it
    assert len(new) == 1_967


def test_generator_search_tree_is_pinned():
    """The n = 8 search visits 10,212 nodes (``place`` calls, counted with
    a profile hook) for its 780 diagrams, about 13 per diagram emitted.
    Pinned; a further prune may lower it.  Without the deadline prune the
    count rises to 10,214, so a change to it shows here."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "place":
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        words = _canonical_words(8)
    finally:
        sys.setprofile(previous)
    assert (nodes, len(words)) == (10_212, 780)


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
    prunes exactly when the reflection read back from the closing position,
    relabeled as a tuple, reads below the prefix.  Chord 1's close, once per
    gap, is among them and never prunes."""
    pruned = []
    precedes = chords._precedes

    def checked(a, s, b, t, k, stop):
        got = precedes(a, s, b, t, k, stop)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "place":  # the close-time prune
            i, word = caller.f_locals["i"], caller.f_locals["word"]
            prefix = tuple(word[: i + 1])
            assert got == conftest._reads_below(prefix[::-1], 0, prefix), prefix
            pruned.append(got)
        return got

    monkeypatch.setattr(chords, "_precedes", checked)
    _canonical_words(8)
    assert (len(pruned), sum(pruned)) == (1_959, 672)


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
