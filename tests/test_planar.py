import pytest

from knotproj import (
    U,
    ChordDiagram,
    all_realizations,
    connected_sum,
    count_tr,
    enumerate_curves,
    find_teardrops,
    gauss_parity_violations,
    innermost_teardrop,
    is_reduced,
    monogons,
    parse_code,
    prime_decompose,
    realize,
    strong_bigons,
)
from knotproj import chords, planar
from knotproj.errors import InvalidSite, NoCrossings, NotRealizable

from conftest import (
    all_canonical_words,
    interleavement_graph,
    leaf_checked_words,
    pairing_words,
    sweep_realizations,
    trace_face_count,
)


def degrees(p):
    return sorted(f.degree for f in p.faces)


# --- realization -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expect",
    [
        ("1 1", [1, 1, 2]),
        ("1 1 2 2", [1, 1, 2, 4]),
        ("1 2 3 1 2 3", [2, 2, 2, 3, 3]),
        ("1 2 3 1 4 3 2 4", [2, 2, 3, 3, 3, 3]),
    ],
)
def test_realize_face_profiles(text, expect):
    assert degrees(realize(parse_code(text))) == expect


def test_realize_u():
    assert realize(parse_code("")) is U
    assert degrees(U) == [0, 0]


def test_realize_rejects_parity_failure():
    with pytest.raises(NotRealizable) as exc:
        realize(parse_code("1 2 1 2"))
    assert exc.value.parity_chord == 1
    assert "parity fails at chord 1" in str(exc.value)


def test_realize_rejects_beyond_parity():
    # parity-clean but still not spherical
    cd = parse_code("1 2 3 1 2 4 5 3 4 5")
    assert gauss_parity_violations(cd) == []
    with pytest.raises(NotRealizable) as exc:
        realize(cd)
    assert exc.value.parity_chord is None


def test_realize_deterministic():
    a = realize(parse_code("1 1 2 2"))
    b = realize(parse_code("1 1 2 2"))
    assert a.rotations == b.rotations
    assert [f.dart_cycle for f in a.faces] == [f.dart_cycle for f in b.faces]


def assert_realize_matches_sweep(word):
    """realize returns the first rotation system of the full mask-order sweep."""
    first = next(sweep_realizations(word), None)
    try:
        got = realize(ChordDiagram(word)).rotations
    except NotRealizable:
        got = None
    assert got == first, word


def test_realize_matches_sweep_on_pairing_words():
    for n in range(1, 7):
        for word in pairing_words(n):
            if not gauss_parity_violations(ChordDiagram(word)):
                assert_realize_matches_sweep(word)


def test_realize_matches_sweep_on_canonical_words():
    # at n = 7 the full sweeps of the ~5,000 parity failures would dominate
    # the suite's run time, so only the parity-passing words are swept there
    for n in range(1, 8):
        for word in all_canonical_words(n):
            if n < 7 or not gauss_parity_violations(ChordDiagram(word)):
                assert_realize_matches_sweep(word)


@pytest.mark.slow
def test_realize_matches_sweep_on_parity_passing_words_at_8():
    words = leaf_checked_words(8)
    assert len(words) == 1_466
    for word in words:
        assert_realize_matches_sweep(word)


def test_realized_code_is_validated_once(monkeypatch):
    calls = []
    original = chords._normalize

    def counted(labels):
        calls.append(labels)
        return original(labels)

    monkeypatch.setattr(chords, "_normalize", counted)
    for text in ("1 1 2 2", "1 2 3 1 2 3", "1 1 2 3 4 2 3 4"):
        calls.clear()
        p = realize(parse_code(text))
        assert p.code is p.code
        assert len(calls) == 1, text
    # deleting a monogon's crossing builds no second validation either
    assert planar._delete_vertices(p, {1}).code.word == (1, 2, 3, 1, 2, 3)
    assert len(calls) == 1


def test_realize_matches_sweep_on_rotated_and_reflected_curves():
    """Flip propagation depends on the linearization; every one must agree."""
    for n in range(1, 7):
        for p in enumerate_curves(n):
            m = len(p.word)
            for seq in (p.word, p.word[::-1]):
                for r in range(m):
                    rotated = ChordDiagram.from_labels(seq[r:] + seq[:r])
                    assert_realize_matches_sweep(rotated.word)


def test_all_realizations_match_sweep():
    for n in range(1, 8):
        for p in enumerate_curves(n):
            got = [r.rotations for r in all_realizations(p.code)]
            assert got == list(sweep_realizations(p.word)), p.word


def test_unrealizable_code_costs_one_face_trace(monkeypatch):
    calls = []
    trace = planar._trace_faces

    def counting(word, rotations):
        calls.append(len(word))
        return trace(word, rotations)

    monkeypatch.setattr(planar, "_trace_faces", counting)
    cd = parse_code("1 2 3 1 2 4 5 3 4 5 " + " ".join(f"{v} {v}" for v in range(6, 19)))
    assert cd.n == 18 and gauss_parity_violations(cd) == []
    with pytest.raises(NotRealizable):
        realize(cd)
    assert calls == [36]


def test_deleting_a_crossing_off_any_move_can_leave_no_spherical_map():
    t = realize(parse_code("1 2 3 1 2 3"))
    with pytest.raises(NotRealizable, match="no spherical map"):
        planar._delete_vertices(t, {1})
    assert planar._delete_vertices(t, {1, 2, 3}) is U


def test_face_counts_against_independent_tracer():
    for n in range(1, 5):
        for p in enumerate_curves(n):
            assert trace_face_count(p.word, p.rotations) == p.n + 2
            assert sum(f.degree for f in p.faces) == 4 * p.n
            assert len(p.faces) == p.n + 2


def test_codes_can_have_inequivalent_embeddings():
    """1 1 2 2 embeds both as the pinched double loop and as the spiral;
    face-derived data is a property of the realization, not the code."""
    profiles = {tuple(degrees(r)) for r in all_realizations(parse_code("1 1 2 2"))}
    assert profiles == {(1, 1, 2, 4), (1, 1, 3, 3)}


# --- face predicates ----------------------------------------------------------


def test_monogons_and_corners():
    p = realize(parse_code("1 1 2 2"))
    assert sorted(f.corners[0] for f in monogons(p)) == [1, 2]
    assert monogons(realize(parse_code("1 2 3 1 2 3"))) == []


def test_monogon_corners_realization_independent():
    for n in range(1, 5):
        for p in enumerate_curves(n):
            base = sorted(f.corners[0] for f in monogons(p))
            for r in all_realizations(p.code):
                assert sorted(f.corners[0] for f in monogons(r)) == base


def test_strong_bigon_example():
    p = realize(parse_code("1 1 2 2"))
    sb = strong_bigons(p)
    assert len(sb) == 1 and sorted(sb[0].corners) == [1, 2]


def test_trefoil_bigons_are_weak():
    """All three bigons of the trefoil have interleaved corner chords, so
    none is strong."""
    t = realize(parse_code("1 2 3 1 2 3"))
    assert sum(1 for f in t.faces if f.degree == 2) == 3
    assert strong_bigons(t) == []


def test_repeated_corner_bigon_is_not_strong():
    # the outer face of the doubled loop passes its single vertex twice
    p = realize(parse_code("1 1"))
    two = [f for f in p.faces if f.degree == 2]
    assert len(two) == 1 and two[0].corners == (1, 1)
    assert strong_bigons(p) == []


def test_strong_bigons_match_position_oracle():
    # the bitset read against endpoint positions, on every embedding n <= 6
    for n in range(7):
        for p in enumerate_curves(n):
            for r in all_realizations(p.code):
                g = interleavement_graph(r.code)
                want = [
                    f
                    for f in r.faces
                    if f.degree == 2
                    and f.corners[0] != f.corners[1]
                    and f.corners[1] not in g[f.corners[0]]
                ]
                assert strong_bigons(r) == want


def test_monogon_or_strong_bigon_in_every_realization():
    # the disjunction needs no embedding choice at desk scale
    for n in range(1, 6):
        for p in enumerate_curves(n):
            if count_tr(p.code):
                continue
            for r in all_realizations(p.code):
                assert monogons(r) or strong_bigons(r)


# --- teardrops ----------------------------------------------------------------


def test_innermost_teardrop_trefoil_identity():
    td = innermost_teardrop(realize(parse_code("1 2 3 1 2 3")))
    assert td.sigma == (1, 2)


def test_innermost_teardrop_reversing_example():
    td = innermost_teardrop(realize(parse_code("1 2 3 4 2 1 4 3")))
    assert td.sigma == (2, 1)


def test_teardrop_fields():
    p = realize(parse_code("1 1 2 2"))
    drops = find_teardrops(p)
    assert drops
    for td in drops:
        assert p.word[td.loop_start] != td.origin or True
        assert td.origin in range(1, p.n + 1)
        assert len(td.sigma) == len(td.boundary_labels) - 1
        assert sorted(td.sigma) == list(range(1, len(td.sigma) + 1))


def test_empty_loop_teardrop():
    # adjacent equal labels bound a teardrop with no interior crossings
    td = innermost_teardrop(realize(parse_code("1 1")))
    assert td.origin == 1 and td.sigma == ()


def test_teardrops_need_crossings():
    with pytest.raises(NoCrossings):
        find_teardrops(U)
    with pytest.raises(NoCrossings):
        innermost_teardrop(U)


def test_innermost_has_no_nested_teardrop():
    for n in range(1, 6):
        for p in enumerate_curves(n):
            drops = find_teardrops(p)
            inner = innermost_teardrop(p)
            span = frozenset(inner.interval)
            for other in drops:
                assert not frozenset(other.interval) < span


# --- reducedness and prime structure -------------------------------------------


def test_is_reduced():
    assert is_reduced(U)
    assert is_reduced(realize(parse_code("1 2 3 1 2 3")))
    assert not is_reduced(realize(parse_code("1 1")))
    assert not is_reduced(realize(parse_code("1 1 2 2")))
    assert is_reduced(realize(parse_code("1 2 3 1 4 3 2 4")))


def test_prime_decompose_examples():
    assert prime_decompose(U) == []
    assert [str(f.code) for f in prime_decompose(realize(parse_code("1 1")))] == ["1 1"]
    got = [str(f.code) for f in prime_decompose(realize(parse_code("1 1 2 2")))]
    assert got == ["1 1", "1 1"]
    t = realize(parse_code("1 2 3 1 2 3"))
    assert [str(f.code) for f in prime_decompose(t)] == ["1 2 3 1 2 3"]


def test_connected_sum_neutral_and_splice():
    loop = realize(parse_code("1 1"))
    assert connected_sum(U, loop, None, 0).word == (1, 1)
    assert connected_sum(loop, U, 0, None).word == (1, 1)
    assert connected_sum(U, U).word == ()
    s = connected_sum(loop, loop, 0, 0)
    assert s.word == (1, 2, 2, 1)
    assert [str(f.code) for f in prime_decompose(s)] == ["1 1", "1 1"]


def test_connected_sum_site_validation():
    loop = realize(parse_code("1 1"))
    with pytest.raises(InvalidSite):
        connected_sum(loop, loop, 5, 0)
    with pytest.raises(InvalidSite):
        connected_sum(loop, loop, 0, -1)
    with pytest.raises(InvalidSite, match="U has no edges"):
        connected_sum(U, loop, 0, 0)
    with pytest.raises(InvalidSite, match="U has no edges"):
        connected_sum(loop, U, 0, 0)
    with pytest.raises(InvalidSite, match="U has no edges"):
        connected_sum(U, U, None, 0)
    with pytest.raises(InvalidSite, match="site2 must be an edge index"):
        connected_sum(U, loop, None, None)
    with pytest.raises(InvalidSite, match="site1 must be an edge index"):
        connected_sum(loop, U, True, None)


def test_connected_sum_crossing_count_adds():
    a = realize(parse_code("1 2 3 1 2 3"))
    b = realize(parse_code("1 1"))
    for s1 in range(2 * a.n):
        for s2 in range(2 * b.n):
            assert connected_sum(a, b, s1, s2).n == a.n + b.n
