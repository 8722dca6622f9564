import random
from itertools import combinations

import pytest

from knotproj import (
    U,
    ChordDiagram,
    PlanarCurve,
    all_realizations,
    connected_sum,
    count_tr,
    enumerate_curves,
    gauss_parity_violations,
    innermost_teardrop,
    is_reduced,
    monogons,
    parse_code,
    prime_decompose,
    realize,
    split_connected_sum,
    strong_bigons,
)
from knotproj import chords, planar
from knotproj.errors import InvalidSite, NoCrossings, NotRealizable

from conftest import (
    all_canonical_words,
    count_tr_sextuples,
    eager_realizations,
    filtered_innermost_teardrop,
    find_teardrops,
    flip_coset_masks,
    interleavement_graph,
    leaf_checked_words,
    mask_rings,
    pairing_words,
    rank_drop_labels,
    realized_connected_sum,
    recursive_prime_decompose,
    ring_traced_faces,
    strong_bigon_sites,
    sweep_realizations,
    trace_face_count,
    zip_relabeled,
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


def orbit_count_mismatches(word, masks):
    """Masks whose orbit count differs from the face trace; returns (bad, rejected)."""
    bad, rejected = [], 0
    for mask in masks:
        traced = len(ring_traced_faces(word, mask_rings(word, mask)))
        if len(planar._face_walk(word, mask)[0]) != traced:
            bad.append(mask)
        rejected += traced != len(word) // 2 + 2
    return bad, rejected


def test_orbit_count_matches_face_trace_on_flip_coset_spans():
    rejected = 0
    for n in range(1, 8):
        for word in leaf_checked_words(n):
            bad, r = orbit_count_mismatches(word, flip_coset_masks(ChordDiagram(word)))
            assert bad == [], word
            rejected += r
    assert rejected == 454  # the spans of the 100 parity-passing codes that do not embed


@pytest.mark.slow
def test_orbit_count_matches_face_trace_on_flip_coset_spans_at_8():
    words = leaf_checked_words(8)
    assert len(words) == 1_466
    for word in words:
        assert orbit_count_mismatches(word, flip_coset_masks(ChordDiagram(word)))[0] == []


def test_orbit_count_matches_face_trace_on_every_mask():
    """Masks outside the coset too; a swapped flip convention would give the
    mirror map, with the same count, so rotations are pinned separately."""
    for n in range(1, 5):
        for word in pairing_words(n):
            assert orbit_count_mismatches(word, range(1 << n))[0] == [], word
    for word in ((1, 2, 1, 2), (1, 1, 2, 3, 2, 3)):
        for mask in range(1 << len(word) // 2):
            curve = PlanarCurve(ChordDiagram(word), mask)
            assert curve.rotations == mask_rings(word, mask)


def test_all_realizations_match_eager_construction():
    assert [(p.word, p.rotations, p.faces) for p in all_realizations(U.code)] == (
        eager_realizations(U.code)
    )
    for n in range(1, 8):
        for p in enumerate_curves(n):
            got = [(r.word, r.rotations, r.faces) for r in all_realizations(p.code)]
            assert got == eager_realizations(p.code), p.word


def test_step_array_faces_match_ring_traced_faces():
    """Both step-array walkers: the Face lists of ``_trace_faces``, and the
    degrees and 2-gons of ``_face_walk``, whose strong 2-gon sites
    (``_strong_sites``, an orientation rule on the word) are held against
    the definition by chords (distinct corners whose chords do not
    interleave)."""
    embeddings = strong = 0
    for n in range(1, 8):
        for p in enumerate_curves(n):
            for r in all_realizations(p.code):
                want = ring_traced_faces(r.word, mask_rings(r.word, r.flips))
                assert planar._trace_faces(r.word, r.flips) == want, r.word
                degrees, bigons = planar._face_walk(r.word, r.flips)
                sites = planar._strong_sites(r.word, bigons)
                assert degrees == tuple(f.degree for f in want), r.word
                assert sites == strong_bigon_sites(want, r.code), r.word
                embeddings += 1
                strong += len(sites)
    assert (embeddings, strong) == (7_304, 6_448)
    assert planar._face_walk((), 0) == ((0, 0), ())


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
    q = planar._embed(*planar._drop_labels(p.word, p.flips, {1}))
    assert q.code.word == (1, 2, 3, 1, 2, 3)
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
    """The one check is a face walk over the 36 positions; no face is built."""
    calls = []
    for name in ("_trace_faces", "_face_walk"):
        original = getattr(planar, name)

        def counting(word, arg, _name=name, _original=original):
            calls.append((_name, len(word)))
            return _original(word, arg)

        monkeypatch.setattr(planar, name, counting)
    cd = parse_code("1 2 3 1 2 4 5 3 4 5 " + " ".join(f"{v} {v}" for v in range(6, 19)))
    assert cd.n == 18 and gauss_parity_violations(cd) == []
    with pytest.raises(NotRealizable):
        realize(cd)
    assert calls == [("_face_walk", 36)]


def test_deleting_a_crossing_off_any_move_can_leave_no_spherical_map():
    t = realize(parse_code("1 2 3 1 2 3"))
    with pytest.raises(NotRealizable, match="no spherical map"):
        planar._embed(*planar._drop_labels(t.word, t.flips, {1}))
    assert planar._embed(*planar._drop_labels(t.word, t.flips, {1, 2, 3})) is U


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
    for n in range(1, 8):
        for p in enumerate_curves(n):
            td = innermost_teardrop(p)
            assert p.word[td.loop_start] == td.origin
            assert td.origin in range(1, p.n + 1)
            assert td.boundary_labels == (td.origin, *(p.word[i] for i in td.interval))
            assert len(td.sigma) == len(td.boundary_labels) - 1
            assert sorted(td.sigma) == list(range(1, len(td.sigma) + 1))


def test_empty_loop_teardrop():
    # adjacent equal labels bound a teardrop with no interior crossings
    td = innermost_teardrop(realize(parse_code("1 1")))
    assert td.origin == 1 and td.sigma == ()


def test_teardrops_need_crossings():
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


def test_innermost_teardrop_matches_containment_filter():
    """The shortest side of any chord is the teardrop the proper-inclusion
    filter keeps first, on every embedding with n <= 7 and on every pairing
    word with n <= 5 (teardrops read only the word, so flips 0 serve for a
    word that is not spherical too)."""
    checked = 0
    for n in range(1, 8):
        for p in enumerate_curves(n):
            for r in all_realizations(p.code):
                assert innermost_teardrop(r) == filtered_innermost_teardrop(r), r
                checked += 1
    assert checked == 7_304
    checked = 0
    for n in range(1, 6):
        for word in pairing_words(n):
            p = PlanarCurve(ChordDiagram(word), 0)
            assert innermost_teardrop(p) == filtered_innermost_teardrop(p), word
            checked += 1
    assert checked == 1_069


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


def test_connected_sum_splices_the_embeddings():
    """Every splice of every pair of embeddings with n1 + n2 <= 6: it has the
    code the realize route gives, n + 2 faces, and a flip mask in the coset
    of its code; the two triple-chord counts agree on it."""
    embeddings = {
        n: [(p, all_realizations(p.code)) for p in enumerate_curves(n)]
        for n in range(1, 6)
    }
    sites = splices = 0
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for a, a_maps in embeddings[n1]:
                for b, b_maps in embeddings[n2]:
                    for s1 in range(2 * n1):
                        for s2 in range(2 * n2):
                            want = realized_connected_sum(a, b, s1, s2).code
                            assert count_tr(want) == count_tr_sextuples(want)
                            base, components = planar._flip_coset(want)
                            sites += 1
                            for ra in a_maps:
                                for rb in b_maps:
                                    q = connected_sum(ra, rb, s1, s2)
                                    assert q.code == want, (ra, rb, s1, s2)
                                    assert len(planar._face_walk(q.word, q.flips)[0]) == q.n + 2
                                    diff = q.flips ^ base
                                    assert all(diff & c in (0, c) for c in components)
                                    splices += 1
    assert (sites, splices) == (1_656, 53_184)


def test_drop_labels_matches_the_rank_and_zip_relabels():
    """``_drop_labels`` is the one relabel that carries flips.  It equals the
    rank relabel on every one- and two-label drop of every embedding with
    n <= 7, and first-occurrence relabeling with each bit moved along the
    zip on the spliced word and carried mask of every site pair of every
    pair of embeddings with n1 + n2 <= 6, which is ``connected_sum``'s
    result there too."""
    embeddings = {
        n: [r for p in enumerate_curves(n) for r in all_realizations(p.code)]
        for n in range(1, 8)
    }
    drops = 0
    for n, curves in embeddings.items():
        sites = [(v,) for v in range(1, n + 1)] + list(combinations(range(1, n + 1), 2))
        for r in curves:
            for site in sites:
                want = rank_drop_labels(r.word, r.flips, site)
                assert planar._drop_labels(r.word, r.flips, site) == want, (r, site)
                drops += 1
    splices = 0
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for a in embeddings[n1]:
                for b in embeddings[n2]:
                    for s1 in range(2 * n1):
                        for s2 in range(2 * n2):
                            straddling = 0
                            for x in b.word[: s2 + 1]:
                                straddling ^= 1 << (x - 1)
                            flips = a.flips | (b.flips ^ straddling) << n1
                            w = planar._splice_word(a.word, b.word, s1, s2)
                            want = zip_relabeled(w, flips)
                            assert planar._drop_labels(w, flips, ()) == want
                            q = connected_sum(a, b, s1, s2)
                            assert (q.word, q.flips) == want, (a, b, s1, s2)
                            splices += 1
    assert (drops, splices) == (192_244, 53_184)


def test_splice_word_is_the_connected_sum_code_before_relabeling():
    """Every pair of enumerated curves with n1 + n2 <= 6, triple chords or
    not, at every site pair: ``_splice_word`` relabeled by first occurrence
    is ``connected_sum``'s word, and the triangles of its own interlacement
    graph are the triple chords of ``connected_sum``'s code."""
    curves = {n: enumerate_curves(n) for n in range(1, 6)}
    sites = nonzero = 0
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for p1 in curves[n1]:
                for p2 in curves[n2]:
                    for s1 in range(2 * n1):
                        for s2 in range(2 * n2):
                            w = planar._splice_word(p1.word, p2.word, s1, s2)
                            q = connected_sum(p1, p2, s1, s2)
                            assert chords._relabel(w) == q.word, (p1, p2, s1, s2)
                            tr = chords._triangles(chords._interlacement_bits(w))
                            assert tr == count_tr(q.code), (p1, p2, s1, s2)
                            sites += 1
                            nonzero += tr > 0
    assert (sites, nonzero) == (1_656, 628)


def splices(curves, max_total):
    """(p1, p2, s1, s2) for every ordered pair of curves from ``curves`` (a
    dict from n to curves) with n1 + n2 <= max_total, at every site pair."""
    for n1 in curves:
        for n2 in curves:
            if n1 + n2 > max_total:
                continue
            for p1 in curves[n1]:
                for p2 in curves[n2]:
                    for s1 in range(2 * n1):
                        for s2 in range(2 * n2):
                            yield p1, p2, s1, s2


def maps(curves):
    return [(p.word, p.flips) for p in curves]


def test_prime_decompose_inverts_connected_sum():
    """Splitting the splice of two prime embeddings gives both back: the first
    exactly, the second as read from the cut, which splices back to the same
    curve read from its position 0 (a reading that toggles no flip)."""
    primes = {
        n: [r for p in enumerate_curves(n) if split_connected_sum(p.code) is None
            for r in all_realizations(p.code)]
        for n in range(1, 6)
    }
    checked = 0
    for p1, p2, s1, s2 in splices(primes, 6):
        q = connected_sum(p1, p2, s1, s2)
        factors = prime_decompose(q)
        assert len(factors) == 2, (p1, p2, s1, s2)
        f1, f2 = factors if factors[0] == p1 else factors[::-1]
        for f in factors:
            assert len(planar._face_walk(f.word, f.flips)[0]) == f.n + 2
        assert (f1.word, f1.flips) == (p1.word, p1.flips)
        back = connected_sum(f1, f2, s1, 2 * p2.n - 1)
        assert (back.word, back.flips) == (q.word, q.flips)
        checked += 1
    assert checked == 704


def test_prime_decompose_matches_recursive_splitter_on_splices():
    """Every splice of every ordered pair of enumerated curves with
    n1 + n2 <= 7, prime or not: factor by factor, in order, the same words
    and flips as the recursive splitter."""
    curves = {n: enumerate_curves(n) for n in range(1, 7)}
    checked = three = 0
    for p1, p2, s1, s2 in splices(curves, 7):
        q = connected_sum(p1, p2, s1, s2)
        got = maps(prime_decompose(q))
        assert got == maps(recursive_prime_decompose(q)), (p1, p2, s1, s2)
        checked += 1
        three += len(got) >= 3
    assert (checked, three) == (6_360, 5_944)


def test_prime_decompose_matches_recursive_splitter_on_iterated_sums():
    """Seeded sums of 3 to 8 prime curves with n <= 6 at random sites, each
    rotated and reversed before it is realized: factor by factor, in order,
    the same words and flips as the recursive splitter, and the summands'
    canonical codes."""
    primes = [
        p for n in range(1, 7) for p in enumerate_curves(n)
        if split_connected_sum(p.code) is None
    ]
    rng = random.Random(2108)
    for _ in range(300):
        q, codes = U, []
        for _ in range(rng.randint(3, 8)):
            p = rng.choice(primes)
            codes.append(str(p.code))
            q = connected_sum(q, p, rng.randrange(2 * q.n) if q.n else None,
                              rng.randrange(2 * p.n))
        r = rng.randrange(2 * q.n)
        q = realize(ChordDiagram.from_labels((q.word[r:] + q.word[:r])[::-1]))
        factors = prime_decompose(q)
        assert maps(factors) == maps(recursive_prime_decompose(q)), q
        assert sorted(str(chords.canonicalize(f.code)) for f in factors) == sorted(codes)


def test_prime_decompose_realizes_no_part(monkeypatch):
    """Three prime factors come back with no realization and no face count."""
    trefoil = realize(parse_code("1 2 3 1 2 3"))
    loop = realize(parse_code("1 1"))
    q = connected_sum(connected_sum(trefoil, loop, 2, 1), trefoil, 4, 3)

    def refuse(*args):
        raise AssertionError("prime_decompose re-realized a part")

    for name in ("realize", "_search_rotations", "_flip_coset", "_face_walk"):
        monkeypatch.setattr(planar, name, refuse)
    factors = prime_decompose(q)
    assert sorted(str(chords.canonicalize(f.code)) for f in factors) == [
        "1 1", "1 2 3 1 2 3", "1 2 3 1 2 3"
    ]
