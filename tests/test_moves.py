from functools import cache
from itertools import combinations

import pytest

from knotproj import (
    Move,
    U,
    all_realizations,
    applicable_moves,
    apply_move,
    canonicalize,
    count_tr,
    enumerate_curves,
    in_S,
    parse_code,
    realize,
    reduce_no_triple,
)
from knotproj import chords, moves, planar
from knotproj.errors import InapplicableMove, PreconditionTripleChord, TheoremViolation

from conftest import dfs_in_S, embedding_key, stepwise_reduce, vertex_rings


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
    crash; force the situation by hiding every move."""
    from knotproj import moves as moves_mod

    monkeypatch.setattr(moves_mod, "applicable_moves", lambda p: [])
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
    for name in ("realize", "_search_rotations", "_flip_coset"):
        original = getattr(planar, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(planar, name, counted)
    assert in_S(p) == (False, None)
    assert apply_move(p, Move("1b", (1,))).n == 42
    with pytest.raises(PreconditionTripleChord):
        reduce_no_triple(p)
    assert str(reduce_no_triple(spiral).terminal) == ""
    assert calls == []
    # the counters do see realization
    planar.realize(parse_code("1 1"))
    assert calls == ["realize", "_search_rotations", "_flip_coset"]


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


def test_reduce_matches_stepwise_oracle_through_n7():
    stuck = 0
    for p in embeddings(7):
        steps, end = moves._reduce(p)
        want_steps, want_end = stepwise_reduce(p)
        assert steps == want_steps, p
        assert (end.word, end.rotations, end.faces) == (
            want_end.word,
            want_end.rotations,
            want_end.faces,
        ), p
        stuck += end.n > 0
    assert stuck == 2162


def test_step_words_are_normalized():
    for p in embeddings(7):
        for _, word in moves._reduce(p)[0]:
            assert chords._normalize(word) == word, p


def has_loop_edge(word):
    return any(word[i] == word[(i + 1) % len(word)] for i in range(len(word)))


def test_face_traces_only_where_no_monogon_is_left(monkeypatch):
    spiral, torus = nested_spiral(), torus_with_curls()
    small = embeddings(6)
    for p in (spiral, torus, *small):
        p.faces  # built on first read; read here, so only the run is counted
    traced = []
    original = planar._trace_faces

    def counted(word, flips):
        traced.append(word)
        return original(word, flips)

    monkeypatch.setattr(planar, "_trace_faces", counted)
    assert in_S(spiral)[0]
    assert str(reduce_no_triple(spiral).terminal) == ""
    assert traced == []
    assert in_S(torus) == (False, None)
    assert len(traced) == 1
    traced.clear()
    for p in small:
        in_S(p)
    assert traced
    assert not any(has_loop_edge(word) for word in traced)
