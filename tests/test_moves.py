import random
from functools import cache
from itertools import combinations

import pytest

from knotproj import (
    CHECK_IDS,
    ChordDiagram,
    Move,
    PlanarCurve,
    U,
    all_realizations,
    applicable_moves,
    apply_move,
    arnold_invariant,
    canonicalize,
    count_tr,
    enumerate_curves,
    in_S,
    parse_code,
    realize,
    reduce_no_triple,
    run_checks,
)
from knotproj import chords, moves, planar
from knotproj.enumeration import BUDGET_ENV, build_record
from knotproj.errors import (
    InapplicableMove,
    NotRealizable,
    PreconditionTripleChord,
    TheoremViolation,
)

from conftest import (
    dfs_in_S,
    embedding_key,
    face_moves,
    pairing_words,
    stepwise_reduce,
    vertex_rings,
)


def curve(text):
    return realize(parse_code(text))


# --- move inventory -----------------------------------------------------------


def test_applicable_moves_example():
    assert [str(m) for m in applicable_moves(curve("1 1 2 2"))] == [
        "1b@1",
        "1b@2",
        "s2b@1,2",
    ]


def test_no_moves_on_trefoil_or_u():
    assert applicable_moves(curve("1 2 3 1 2 3")) == []
    assert applicable_moves(U) == []


def test_moves_sorted_deterministically():
    p = curve("1 1 2 3 3 2")
    moves = applicable_moves(p)
    assert moves == sorted(moves, key=lambda m: (m.kind, m.site))


# --- applying moves -------------------------------------------------------------


def test_apply_1b():
    p = curve("1 1 2 2")
    q = apply_move(p, Move("1b", (1,)))
    assert q.word == (1, 1)
    assert apply_move(q, Move("1b", (1,))) is U


def test_apply_s2b():
    p = curve("1 1 2 2")
    q = apply_move(p, Move("s2b", (1, 2)))
    assert q is U


def test_apply_rejects_inapplicable():
    p = curve("1 1 2 2")
    with pytest.raises(InapplicableMove):
        apply_move(p, Move("1b", (3,)))
    with pytest.raises(InapplicableMove):
        apply_move(p, Move("s2b", (1, 3)))
    with pytest.raises(InapplicableMove):
        apply_move(U, Move("1b", (1,)))


def test_apply_malformed_move_raises_inapplicable():
    p = curve("1 1 2 2")
    with pytest.raises(InapplicableMove, match=r"^1b@3 is not applicable"):
        apply_move(p, Move("1b", (3,)))
    for bad in [Move("1b", 1), Move("s2b", [1, 2]), ("1b",), 3, None]:
        with pytest.raises(InapplicableMove, match="is not applicable"):
            apply_move(p, bad)


def test_move_text_reads_a_bare_site_as_one_label():
    assert str(Move("1b", 1)) == "1b@1"
    assert str(Move("s2b", [1, 2])) == "s2b@1,2"


def test_apply_plain_tuple_as_the_move_it_equals():
    p = curve("1 1 2 3 3 2")
    for mv in applicable_moves(p):
        assert apply_move(p, tuple(mv)) == apply_move(p, mv)


def test_moves_only_delete():
    p = curve("1 1 2 3 3 2")
    for mv in applicable_moves(p):
        q = apply_move(p, mv)
        assert q.n == p.n - len(mv.site)


# --- greedy reduction -----------------------------------------------------------


def test_reduce_example_trace():
    trace = reduce_no_triple(curve("1 1 2 2"))
    assert str(trace.start) == "1 1 2 2"
    assert trace.to_json_obj() == [
        {"move": "1b", "site": [1], "code": "1 1"},
        {"move": "1b", "site": [1], "code": ""},
    ]
    assert str(trace.terminal) == ""


def test_reduce_u_is_empty_trace():
    trace = reduce_no_triple(U)
    assert trace.steps == () and str(trace.terminal) == ""


def test_reduce_requires_triple_free():
    with pytest.raises(PreconditionTripleChord):
        reduce_no_triple(curve("1 2 3 1 2 3"))


def test_reduce_reaches_u_and_keeps_tr_zero():
    for n in range(1, 6):
        for p in enumerate_curves(n):
            if count_tr(p.code):
                continue
            trace = reduce_no_triple(p)
            assert str(trace.terminal) == ""
            cur = p
            for mv, code in trace.steps:
                cur = apply_move(cur, mv)
                assert str(canonicalize(cur.code)) == str(code)
                assert count_tr(cur.code) == 0


def test_reduce_deterministic():
    a = reduce_no_triple(curve("1 1 2 3 3 2"))
    b = reduce_no_triple(curve("1 1 2 3 3 2"))
    assert a.to_json_obj() == b.to_json_obj()


def test_theorem_violation_is_raisable(monkeypatch):
    """A stuck triple-free reduction is a reportable counterexample, not a
    crash; force the situation by hiding every move: no loop edge is seen
    and no 2-gon reads as strong."""
    from knotproj import moves as moves_mod

    monkeypatch.setattr(moves_mod, "_loops", lambda word: set())
    monkeypatch.setattr(moves_mod, "_curls", lambda word: [])
    monkeypatch.setattr(planar, "_strong_sites", lambda word, flips, firsts: [])
    with pytest.raises(TheoremViolation):
        moves_mod.reduce_no_triple(curve("1 1"))


# --- class membership -----------------------------------------------------------


def test_in_s_trefoil_false():
    ok, trace = in_S(curve("1 2 3 1 2 3"))
    assert ok is False and trace is None


def test_in_s_u_true():
    ok, trace = in_S(U)
    assert ok is True and trace.steps == ()


def test_in_s_members_have_replayable_traces():
    for n in range(1, 5):
        for p in enumerate_curves(n):
            ok, trace = in_S(p)
            if count_tr(p.code) == 0:
                assert ok, f"{p.code} should be in S"
            if not ok:
                assert trace is None
                continue
            cur = p
            for mv, code in trace.steps:
                cur = apply_move(cur, mv)
                assert str(canonicalize(cur.code)) == str(code)
            assert cur.n == 0


def test_in_s_rejects_triple_chord_with_monogon():
    # has an applicable 1b move, but every reduction path dead-ends at the
    # trefoil core; in_S must still say no
    ok, trace = in_S(curve("1 1 2 3 4 2 3 4"))
    assert ok is False and trace is None


# --- moves act on the embedding ---------------------------------------------------


@cache
def embeddings(max_n):
    return [
        r
        for n in range(1, max_n + 1)
        for p in enumerate_curves(n)
        for r in all_realizations(p.code)
    ]


def flips(p):
    """Each vertex's flip, read by matching its ring against the oracle's two."""
    n = p.n
    zero = vertex_rings(p.word, (False,) * n)
    one = vertex_rings(p.word, (True,) * n)
    out = []
    for v in range(n):
        assert p.rotations[v] in (zero[v], one[v])
        out.append(p.rotations[v] == one[v])
    return out


def test_moves_keep_surviving_flips():
    for p in embeddings(6):
        before = flips(p)
        for mv in applicable_moves(p):
            q = apply_move(p, mv)
            kept = [f for v, f in enumerate(before, start=1) if v not in mv.site]
            assert flips(q) == kept, (p, mv)


def torus_with_curls():
    """T(2,41) with two curls: only 1b moves apply, then the run is stuck."""
    word = list(range(1, 42)) * 2
    word[30:30] = [42, 42]
    word[0:0] = [43, 43]
    return realize(parse_code(" ".join(map(str, word))))


def nested_spiral():
    """30 nested loops: every curve along its reduction has a monogon."""
    return realize(parse_code(" ".join(map(str, [*range(1, 31), *range(30, 0, -1)]))))


def test_moves_never_realize(monkeypatch):
    p = torus_with_curls()
    spiral = nested_spiral()
    calls = []
    spied = [(planar, "realize"), (planar, "_search_rotations"), (chords, "_components")]
    for module, name in spied:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert in_S(p) == (False, None)
    assert apply_move(p, Move("1b", (1,))).n == 42
    with pytest.raises(PreconditionTripleChord):
        reduce_no_triple(p)
    assert str(reduce_no_triple(spiral).terminal) == ""
    assert calls == []
    # the counters do see realization
    planar.realize(parse_code("1 1"))
    assert calls == ["realize", "_search_rotations", "_components"]


def test_in_s_matches_dfs_oracle_through_n8():
    members = 0
    for n in range(0, 9):
        for p in enumerate_curves(n):
            ok, trace = in_S(p)
            want_ok, want = dfs_in_S(p)
            assert ok is want_ok, p
            if not ok:
                assert trace is None
                continue
            members += 1
            assert trace.to_json_obj() == want.to_json_obj(), p
            assert (trace.start, trace.terminal) == (want.start, want.terminal)
    assert members == 363


def test_in_s_verdicts_match_dfs_oracle_on_every_embedding():
    for p in embeddings(6):
        assert in_S(p)[0] is dfs_in_S(p)[0], p


def test_overlapping_moves_join():
    """The two overlap cases of the local-confluence argument in moves."""
    overlaps = 0
    for p in embeddings(7):
        for m1, m2 in combinations(applicable_moves(p), 2):
            shared = set(m1.site) & set(m2.site)
            if not shared:
                continue
            overlaps += 1
            r1, r2 = apply_move(p, m1), apply_move(p, m2)
            if m1.kind == "1b":
                # 1b@v with s2b@(v, w): w bounds a monogon after 1b@v
                (v,) = m1.site
                (w,) = set(m2.site) - shared
                assert apply_move(r1, Move("1b", (w - (w > v),))) == r2, (p, m1, m2)
            else:
                # s2b@(a, b) with s2b@(b, c): the same curve
                assert embedding_key(r1) == embedding_key(r2), (p, m1, m2)
    assert overlaps == 4492


def relabeled(mv, deleted):
    return Move(mv.kind, tuple(v - sum(x < v for x in deleted) for v in mv.site))


def test_disjoint_moves_commute():
    for p in embeddings(5):
        for m1, m2 in combinations(applicable_moves(p), 2):
            if set(m1.site) & set(m2.site):
                continue
            a = apply_move(apply_move(p, m1), relabeled(m2, m1.site))
            b = apply_move(apply_move(p, m2), relabeled(m1, m2.site))
            assert a == b, (p, m1, m2)


def test_normal_form_does_not_depend_on_the_first_move():
    def normal_form(p, pick):
        while True:
            ms = applicable_moves(p)
            if not ms:
                return p
            p = apply_move(p, pick(ms))

    for p in embeddings(6):
        first = normal_form(p, lambda ms: ms[0])
        last = normal_form(p, lambda ms: ms[-1])
        assert embedding_key(first) == embedding_key(last), p


# --- the greedy loop against a face trace per move --------------------------------


def smallest_loop_deletes(word, mask):
    """Delete the smallest loop label with ``planar._drop_labels`` until the
    word has no two cyclically adjacent equal labels."""
    while True:
        loops = [x for i, x in enumerate(word) if x == word[i - 1]]
        if not loops:
            return word, mask
        word, mask = planar._drop_labels(word, mask, (min(loops),))


def test_curls_are_what_repeated_1b_deletes_through_n6():
    """One stack pass and one ``_drop_labels`` give the word and mask that
    deleting the smallest loop one at a time gives, on every normalized
    word with n <= 6 under flip masks 0, all ones and a seeded one."""
    rng = random.Random(1942)
    curled = cancelled = 0
    for n in range(1, 7):
        for word in pairing_words(n):
            curls = moves._curls(word)
            curled += bool(curls)
            cancelled += len(curls) == n
            for mask in (0, (1 << n) - 1, rng.getrandbits(n)):
                got = planar._drop_labels(word, mask, curls)
                assert got == smallest_loop_deletes(word, mask), (word, mask)
    # a word cancels whole exactly when no two chords interleave: the
    # Catalan numbers 1, 2, 5, 14, 42, 132
    assert (curled, cancelled) == (7809, 196)


def test_curls_hand_cases():
    # only the wrap across the word's ends is a loop
    word = (1, 2, 3, 2, 3, 1)
    assert sorted(moves._curls(word)) == [1]
    assert planar._drop_labels(word, 0b101, moves._curls(word)) == ((1, 2, 1, 2), 0b10)
    # the whole word cancels
    assert sorted(moves._curls((1, 2, 2, 3, 3, 1))) == [1, 2, 3]
    # trimming the ends frees the next pair of ends
    assert sorted(moves._curls((1, 2, 3, 4, 3, 4, 2, 1))) == [1, 2]
    assert moves._curls((1, 2, 1, 2)) == []
    assert moves._curls(()) == []


def test_reduce_matches_stepwise_oracle_through_n7():
    """The run's steps, spelled out one move at a time, and its end state
    are the face-traced run's, and the end state embeds as the curve where
    that run stopped."""
    stuck = 0
    for p in embeddings(7):
        taken, end = moves._reduce(p)
        want_steps, want_end = stepwise_reduce(p)
        assert moves._spell(p.word, taken) == want_steps, p
        assert taken == [mv for mv, _ in want_steps if mv.kind == "s2b"], p
        assert end == (want_end.word, want_end.flips), p
        got = planar._embed(*end)
        assert (got.word, got.rotations, got.faces) == (
            want_end.word,
            want_end.rotations,
            want_end.faces,
        ), p
        stuck += bool(end[0])
    assert stuck == 2162


def test_step_words_are_normalized():
    for p in embeddings(7):
        for _, word in moves._spell(p.word, moves._reduce(p)[0]):
            assert chords._normalize(word) == word, p


def has_loop_edge(word):
    return any(word[i] == word[(i + 1) % len(word)] for i in range(len(word)))


def test_face_traces_only_where_no_monogon_is_left(monkeypatch):
    """The run builds no Face, walks no face and builds no interlacement
    core: a realized curve keeps the walk that checked its mask, and the
    strong 2-gons of every state are read off its word and flips."""
    spiral, torus = nested_spiral(), torus_with_curls()
    small = embeddings(6)
    for p in (spiral, torus, *small):
        # built on first read; read here, so only the run is counted
        p.faces, p.code._bits
    traced, walked, cores = [], [], []
    trace_faces, face_walk = planar._trace_faces, planar._face_walk
    interlacement_bits = chords._interlacement_bits

    def counted_trace(cd, flips):
        traced.append(cd)
        return trace_faces(cd, flips)

    def counted_walk(cd, flips):
        walked.append(cd)
        return face_walk(cd, flips)

    def counted_bits(word):
        cores.append(word)
        return interlacement_bits(word)

    monkeypatch.setattr(planar, "_trace_faces", counted_trace)
    monkeypatch.setattr(planar, "_face_walk", counted_walk)
    monkeypatch.setattr(chords, "_interlacement_bits", counted_bits)
    assert in_S(spiral)[0]
    assert str(reduce_no_triple(spiral).terminal) == ""
    assert in_S(torus) == (False, None)
    for p in small:
        in_S(p)
        if not count_tr(p.code):
            reduce_no_triple(p)
    assert walked == [] and traced == [] and cores == []


# --- one route to a curve's moves ---------------------------------------------------


def test_applicable_moves_match_face_moves_through_n7():
    """The word's loop edges and the walk's strong sites list exactly the
    moves the ring-traced faces give."""
    listed = 0
    for p in embeddings(7):
        got = applicable_moves(p)
        assert got == face_moves(p), p
        listed += len(got)
    assert listed == 32942


def test_apply_move_matches_a_face_read_after_dropping_labels():
    for p in embeddings(6):
        for mv in applicable_moves(p):
            word, mask = planar._drop_labels(p.word, p.flips, mv.site)
            want = PlanarCurve(ChordDiagram.from_labels(word), mask)
            q = apply_move(p, mv)
            assert (q.word, q.flips, q.faces) == (word, mask, want.faces), (p, mv)


def spherical(word, mask):
    return len(planar._face_walk(ChordDiagram(word), mask)) == len(word) // 2 + 2


def test_run_states_and_move_results_are_spherical():
    """No move's result is walked in the package, so the walk checks it
    here: every loop-free state a run passes (the keys of a shared table),
    every run's end state and every ``apply_move`` result has n + 2 faces,
    on every embedding with n <= 7."""
    table = {}
    results = 0
    for p in embeddings(7):
        assert spherical(*moves._reduce(p, table)[1]), p
        for mv in applicable_moves(p):
            q = apply_move(p, mv)
            assert spherical(q.word, q.flips), (p, mv)
            results += 1
    assert all(spherical(*state) for state in table)
    assert (len(table), results) == (106, 32942)


def test_moves_check_a_callers_curve_is_spherical():
    """The constructor does not check the mask; the moves check the curve
    they are given, once."""
    torus = PlanarCurve(parse_code("1 2 3 1 2 3"), 0)
    calls = (in_S, reduce_no_triple, applicable_moves, lambda p: apply_move(p, ("1b", (1,))))
    for call in calls:
        with pytest.raises(NotRealizable, match="no spherical map"):
            call(torus)


def test_nothing_in_the_package_traces_faces(monkeypatch):
    """Every check, every record and every move reads the word and the kept
    face walk; ``_trace_faces`` serves only a caller reading ``faces``."""
    small = embeddings(6)
    curves = [p for n in range(8) for p in enumerate_curves(n)]
    for p in (*small, *curves):
        p.__dict__.pop("faces", None)  # so a read of faces would trace
    traced = []
    original = planar._trace_faces

    def counted(cd, flips):
        traced.append(cd)
        return original(cd, flips)

    monkeypatch.setattr(planar, "_trace_faces", counted)
    for cid in CHECK_IDS:
        assert run_checks([cid], 7)[0].passed, cid
    for p in curves:
        build_record(p)
    for p in small:
        for mv in applicable_moves(p):
            applicable_moves(apply_move(p, mv))
    assert traced == []
    assert len(curves[5].faces) == curves[5].n + 2
    assert traced == [curves[5].code]


# --- runs that share a table of end states -----------------------------------------


def assert_shared_table_is_exact(max_n):
    """One table shared by the runs of every curve with 1 <= n <= max_n, in
    ``enumerate`` order: each run ends where a fresh run ends, every entry is
    the end of a fresh run from its state, U and states with a loop edge are
    no keys, and a run from a held state takes no step.  Returns the number
    of runs and of states left in the table."""
    curves = [p for n in range(1, max_n + 1) for p in enumerate_curves(n)]
    table = {}
    for p in curves:
        end = moves._reduce(p, table)[1]
        assert end == moves._reduce(p)[1], p
        assert moves._reaches_U(p, table) is (not end[0]), p
    assert ((), 0) not in table
    assert not any(has_loop_edge(word) for word, _ in table)
    for state, end in table.items():
        q = planar._embed(*state)
        assert end == moves._reduce(q)[1], state
        assert moves._reduce(q, table) == ([], end), state
    return len(curves), len(table)


def test_shared_table_matches_fresh_runs_through_n8():
    assert assert_shared_table_is_exact(8) == (990, 163)


@pytest.mark.slow
def test_shared_table_matches_fresh_runs_through_n9(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "9")
    assert assert_shared_table_is_exact(9) == (4881, 713)


@pytest.mark.slow
def test_shared_table_matches_fresh_runs_through_n10(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "10")
    assert assert_shared_table_is_exact(10) == (26532, 3217)


def test_shared_table_verdicts_match_face_traced_runs_through_n8():
    """The shared table's end states against the greedy run with a face
    trace after every move, and a run from a state the table holds takes no
    step and ends there."""
    table = {}
    for n in range(1, 9):
        for p in enumerate_curves(n):
            end = moves._reduce(p, table)[1]
            want = stepwise_reduce(p)[1]
            assert end == (want.word, want.flips), p
            assert moves._reaches_U(p, table) is (want.n == 0), p
            assert moves._reduce(p, table) == ([], end), p


def test_empty_table_takes_every_step():
    """With an empty table the run takes the steps of a run with none and
    ends at the same state, and maps each loop-free state its single moves
    pass, in order, to that end."""
    for n in range(1, 8):
        for p in enumerate_curves(n):
            table = {}
            taken, end = moves._reduce(p, table)
            assert (taken, end) == moves._reduce(p), p
            states = [(p.word, p.flips)]
            for mv, _ in moves._spell(p.word, taken):
                states.append(planar._drop_labels(*states[-1], mv.site))
            passed = [(w, m) for w, m in states if w and not has_loop_edge(w)]
            assert list(table) == passed, p
            assert states[-1] == end, p
            assert set(table.values()) == ({end} if passed else set()), p


# --- normal forms ---------------------------------------------------------------------


def irreducible_counts(max_n):
    """Run every curve with 1 <= n <= max_n through one shared table, in
    ``enumerate`` order, and count per n the irreducible codes: those whose
    run ends at their own start state, short of U.  Each irreducible curve
    admits no move under the face-traced oracle and has a triple chord, and
    every curve has the Arnold invariant of its end state."""
    table = {}
    counts = []
    for n in range(1, max_n + 1):
        irreducible = 0
        for p in enumerate_curves(n):
            end = moves._reduce(p, table)[1]
            if end == (p.word, p.flips):
                irreducible += 1
                assert face_moves(p) == [] and count_tr(p.code) > 0, p
            assert arnold_invariant(p) == arnold_invariant(planar._embed(*end)), p
        counts.append(irreducible)
    return counts


def test_irreducible_codes_through_n8():
    """Witnesses, not claims: the paper says only that an irreducible curve
    other than U has a triple chord, not how many there are."""
    assert irreducible_counts(8) == [0, 0, 1, 0, 1, 2, 3, 8]


@pytest.mark.slow
def test_irreducible_codes_through_n10(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "10")
    assert irreducible_counts(10) == [0, 0, 1, 0, 1, 2, 3, 8, 34, 64]
