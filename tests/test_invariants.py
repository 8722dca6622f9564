from knotproj import (
    ChordDiagram,
    PlanarCurve,
    U,
    a2_gauss_formula,
    all_realizations,
    arnold_invariant,
    enumerate_curves,
    invariants,
    parse_code,
    realize,
    resolve,
)

from conftest import (
    a2_skein,
    conway_polynomial,
    crossing_sign,
    dart_average_a2,
    mask_rings,
    pairing_words,
    resolutions,
    skein_average_a2,
    sweep_average_a2,
    vertex_dart_table,
)


def curve(text):
    return realize(parse_code(text))


def torus_shadow(k):
    """The T(2,k) shadow ``1..k 1..k``."""
    return curve(" ".join(str(v) for v in list(range(1, k + 1)) * 2))


# --- resolutions ----------------------------------------------------------------


def test_resolutions_bit_counter_order():
    got = [r.over_under for r in resolutions(curve("1 1 2 2"))]
    assert got == [
        (False, False),
        (True, False),
        (False, True),
        (True, True),
    ]


def test_resolution_count():
    for n in range(0, 5):
        p = enumerate_curves(n)[0]
        assert sum(1 for _ in resolutions(p)) == 2 ** n


def test_flipping_one_bit_flips_exactly_that_sign():
    for n in range(1, 5):
        for p in enumerate_curves(n):
            base = resolve(p, tuple([False] * n))
            for v in range(1, n + 1):
                bits = tuple(i == v - 1 for i in range(n))
                r = resolve(p, bits)
                for u in range(1, n + 1):
                    expect = -base.signs[u - 1] if u == v else base.signs[u - 1]
                    assert r.signs[u - 1] == expect


def test_resolve_signs_match_ring_signs_through_n6():
    # the flip-bit rule against signs read off the vertex rings
    embeddings = resolved = 0
    for n in range(1, 7):
        for p in enumerate_curves(n):
            for q in all_realizations(p.code):
                rings = mask_rings(q.word, q.flips)
                table = vertex_dart_table(q.word)
                for r in resolutions(q):
                    want = tuple(
                        crossing_sign(rings[v - 1], table[v], r.over_under[v - 1])
                        for v in range(1, n + 1)
                    )
                    assert r.signs == want, (q, r.over_under)
                    resolved += 1
                embeddings += 1
    assert (embeddings, resolved) == (1_404, 78_084)


# --- skein oracle ----------------------------------------------------------------


def test_conway_unknot_and_loops():
    # every resolution of a curve whose shadow reduces by R1 alone is an unknot
    for r in resolutions(curve("1 1 2 2")):
        assert conway_polynomial(r) == {0: 1}
        assert a2_skein(r) == 0


def test_trefoil_skein_values():
    got = {r.over_under: a2_skein(r) for r in resolutions(curve("1 2 3 1 2 3"))}
    alternating = {(False, True, False), (True, False, True)}
    for bits, val in got.items():
        assert val == (1 if bits in alternating else 0)


def test_figure_eight_shadow_a2_spread():
    # resolutions of 1 2 3 1 4 3 2 4 include the figure-eight knot (a2 = -1)
    # and trefoils (a2 = 1); the skein route must see both signs
    p = curve("1 2 3 1 4 3 2 4")
    vals = {a2_skein(r) for r in resolutions(p)}
    assert vals == {-1, 0, 1}


def test_a2_mirror_invariant():
    for n in range(1, 5):
        for p in enumerate_curves(n):
            for r in resolutions(p):
                mirror = resolve(p, tuple(not b for b in r.over_under))
                assert a2_skein(r) == a2_skein(mirror)


# --- closed formula vs oracle ------------------------------------------------------


def test_formula_matches_skein_every_resolution():
    for n in range(0, 5):
        for p in enumerate_curves(n):
            for r in resolutions(p):
                assert a2_gauss_formula(r) == a2_skein(r)


def test_formula_base_independent():
    p = curve("1 2 3 1 2 3")
    for r in resolutions(p):
        vals = {a2_gauss_formula(r, base=b) for b in range(6)}
        assert len(vals) == 1


# --- averaging -----------------------------------------------------------------


def test_arnold_known_values():
    assert arnold_invariant(U) == 0
    assert arnold_invariant(curve("1 1")) == 0
    assert arnold_invariant(curve("1 2 3 1 2 3")) == 2


def test_arnold_matches_skein_average():
    for n in range(0, 5):
        for p in enumerate_curves(n):
            assert arnold_invariant(p) == 8 * skein_average_a2(p)


def test_pair_sum_matches_sweep_on_every_embedding():
    for n in range(0, 6):
        for p in enumerate_curves(n):
            for q in all_realizations(p.code):
                assert arnold_invariant(q) == 8 * sweep_average_a2(q)


def test_pair_sum_matches_sweep_on_every_mask_through_n4():
    # every word and every mask, spherical or not: the pair sum is the
    # average over the resolutions of the mask it is given
    checked = 0
    for n in range(1, 5):
        for word in pairing_words(n):
            cd = ChordDiagram(word)
            for m in range(2 ** n):
                p = PlanarCurve(cd, m)
                assert arnold_invariant(p) == 8 * sweep_average_a2(p), (word, m)
                checked += 1
    assert checked == 1814


def test_pair_sum_matches_sweep_through_n7():
    for n in range(0, 8):
        for p in enumerate_curves(n):
            assert arnold_invariant(p) == 8 * sweep_average_a2(p)


def test_word_sum_matches_dart_sum_through_n7():
    # every embedding of each curve, then the curve read from every base
    # point in both directions (a new word each time)
    checked = 0
    for n in range(0, 8):
        for p in enumerate_curves(n):
            curves = list(all_realizations(p.code))
            w = p.word
            for seq in (w, w[::-1]):
                for r in range(len(w)):
                    cd = ChordDiagram.from_labels(seq[r:] + seq[:r])
                    curves.append(realize(cd))
            for q in curves:
                assert arnold_invariant(q) == 8 * dart_average_a2(q), q
            checked += len(curves)
    assert checked == 7305 + 6276  # embeddings, plus 4n words per curve


def test_arnold_on_torus_shadows():
    for k in range(1, 42, 2):
        assert arnold_invariant(torus_shadow(k)) == k - 1


def test_arnold_does_not_sweep_resolutions(monkeypatch):
    t41, t3 = torus_shadow(41), torus_shadow(3)  # realized before counting
    calls = []
    for name in ("resolve", "a2_gauss_formula"):
        original = getattr(invariants, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(invariants, name, counted)
    assert arnold_invariant(t41) == 40
    assert calls == []
    # the counters do see the resolution route
    invariants.a2_gauss_formula(invariants.resolve(t3, (True,) * 3))
    assert calls == ["resolve", "a2_gauss_formula"]


def test_arnold_is_an_even_int_on_the_n8_census():
    checked = 0
    for n in range(1, 9):
        for p in enumerate_curves(n):
            v = arnold_invariant(p)
            assert type(v) is int and v % 2 == 0, (p, v)
            checked += 1
    assert checked == 990
