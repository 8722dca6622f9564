import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotproj import (
    ChordDiagram,
    canonicalize,
    count_tr,
    count_x,
    enumerate_curves,
    gauss_parity_violations,
    interleaved,
    is_nugatory,
    parse_code,
    split_connected_sum,
)
from knotproj.errors import MalformedCode, UnknownLabel

from conftest import (
    canonical_text_full_relabel,
    count_tr_sextuples,
    interleavement_graph,
    pairing_words,
    split_connected_sum_members,
)


def random_word(rng, n):
    bag = [v for v in range(1, n + 1) for _ in range(2)]
    rng.shuffle(bag)
    return tuple(bag)


words = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations([v for v in range(1, n + 1) for _ in range(2)])
)


# --- parsing ---------------------------------------------------------------


def test_parse_accepts_commas_and_whitespace():
    assert parse_code("1, 2 ,3\t1\n2 3").word == (1, 2, 3, 1, 2, 3)


def test_parse_relabels_by_first_occurrence():
    assert parse_code("7 7 4 4").word == (1, 1, 2, 2)
    assert parse_code("5 2 5 2").word == (1, 2, 1, 2)


def test_parse_empty_is_u():
    cd = parse_code("")
    assert cd.word == () and cd.n == 0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1", "appears 1 time(s)"),
        ("1 1 2", "appears 1 time(s)"),
        ("1 1 1 2", "appears 3 time(s)"),
        ("0 0", "positive"),
        ("-1 -1", "positive"),
        ("a b", "unparseable token"),
        ("1.5 1.5", "unparseable token"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(MalformedCode, match=None) as exc:
        parse_code(text)
    assert fragment in str(exc.value)


def test_diagram_validates_construction():
    with pytest.raises(MalformedCode):
        ChordDiagram((1, 2, 1))
    with pytest.raises(MalformedCode):
        ChordDiagram((2, 2, 1, 1))  # not first-occurrence normalized
    # every constructor shares one check, which names labels as given
    for build in (ChordDiagram, ChordDiagram.from_labels):
        with pytest.raises(MalformedCode, match=r"label 3 appears 1 time\(s\)"):
            build((1, 1, 2, 2, 3))
    with pytest.raises(MalformedCode, match=r"label 'b' appears 1 time\(s\)"):
        ChordDiagram.from_labels("aab")


def test_positions_ascending_and_unknown_label():
    cd = parse_code("1 2 1 2")
    assert cd.positions(1) == (0, 2)
    assert cd.positions(2) == (1, 3)
    with pytest.raises(UnknownLabel):
        cd.positions(3)


# --- canonical form ---------------------------------------------------------


def test_canonicalize_known_values():
    assert str(canonicalize(parse_code("1 2 3 1 2 3"))) == "1 2 3 1 2 3"
    assert str(canonicalize(parse_code("1 2 2 1"))) == "1 1 2 2"
    assert str(canonicalize(parse_code(""))) == ""


def test_canonicalize_orbit_collapse():
    # every rotation and both directions of the trefoil code agree
    base = (1, 2, 3, 1, 2, 3)
    expect = str(canonicalize(ChordDiagram(base)))
    for r in range(6):
        rot = base[r:] + base[:r]
        assert str(canonicalize(ChordDiagram.from_labels(rot))) == expect
        assert str(canonicalize(ChordDiagram.from_labels(rot[::-1]))) == expect


@settings(max_examples=150)
@given(words)
def test_canonicalize_invariant_under_symmetries(bag):
    cd = ChordDiagram.from_labels(bag)
    canon = str(canonicalize(cd))
    w = cd.word
    assert str(canonicalize(ChordDiagram.from_labels(w[3:] + w[:3]))) == canon
    assert str(canonicalize(ChordDiagram.from_labels(w[::-1]))) == canon
    # canonicalize is idempotent: the canonical word canonicalizes to itself
    back = canonicalize(ChordDiagram(canonicalize(cd).word))
    assert str(back) == canon
    # and the canonical diagram is its own canonical form, not a copy
    assert canonicalize(canonicalize(cd)) is canonicalize(cd)


def test_canonical_word_is_minimal_in_orbit():
    cd = parse_code("1 2 1 3 2 3")
    canon = canonicalize(cd).word
    w = cd.word
    orbit = []
    for direction in (w, w[::-1]):
        for r in range(len(w)):
            rotated = direction[r:] + direction[:r]
            orbit.append(ChordDiagram.from_labels(rotated).word)
    assert canon == min(orbit)


# --- patterns ---------------------------------------------------------------


def test_interleaved_basic():
    cd = parse_code("1 2 1 2")
    assert interleaved(cd, 1, 2) and interleaved(cd, 2, 1)
    nested = parse_code("1 2 2 1")
    assert not interleaved(nested, 1, 2)
    with pytest.raises(UnknownLabel):
        interleaved(cd, True, 2)


def test_count_x_examples():
    assert count_x(parse_code("")) == 0
    assert count_x(parse_code("1 1")) == 0
    assert count_x(parse_code("1 2 3 1 2 3")) == 3
    assert count_x(parse_code("1 2 3 1 4 3 2 4")) == 4


def test_count_tr_examples():
    assert count_tr(parse_code("1 2 3 1 2 3")) == 1
    assert count_tr(parse_code("1 2 3 1 4 3 2 4")) == 0
    assert count_tr(parse_code("1 2 3 4 1 2 3 4")) == 4


@settings(max_examples=200)
@given(words)
def test_count_tr_two_routes_agree(bag):
    """Triangle counting in the interleavement graph equals the
    position-sextuple pattern count."""
    cd = ChordDiagram.from_labels(bag)
    assert count_tr(cd) == count_tr_sextuples(cd)


def test_interleavement_graph_shape():
    g = interleavement_graph(parse_code("1 2 3 1 2 3"))
    assert g == {1: frozenset({2, 3}), 2: frozenset({1, 3}), 3: frozenset({1, 2})}


def test_is_nugatory():
    cd = parse_code("1 1 2 3 2 3")
    assert is_nugatory(cd, 1)
    assert not is_nugatory(cd, 2)
    for bad in (0, 4, "1", True, False):
        with pytest.raises(UnknownLabel):
            is_nugatory(cd, bad)


def test_gauss_parity_violations():
    assert gauss_parity_violations(parse_code("1 2 1 2")) == [1, 2]
    assert gauss_parity_violations(parse_code("1 2 3 1 2 3")) == []
    assert gauss_parity_violations(parse_code("1 2 1 3 2 3")) == [1, 3]
    assert gauss_parity_violations(parse_code("1 1 2 2")) == []


# --- connected-sum structure -------------------------------------------------


def test_split_connected_sum_composite():
    got = split_connected_sum(parse_code("1 1 2 2"))
    assert got is not None
    inside, outside = got
    assert inside.word == (1, 1) and outside.word == (1, 1)


def test_split_connected_sum_prime_and_small():
    assert split_connected_sum(parse_code("1 2 3 1 2 3")) is None
    assert split_connected_sum(parse_code("1 1")) is None
    assert split_connected_sum(parse_code("")) is None


def test_split_parts_rejoin_label_counts():
    cd = parse_code("1 2 2 1 3 4 3 4")
    got = split_connected_sum(cd)
    assert got is not None
    inside, outside = got
    assert inside.n + outside.n == cd.n


# --- bitset and orbit routes against the from-scratch oracles ----------------


def assert_routes_match_oracles(cd):
    assert str(canonicalize(cd)) == canonical_text_full_relabel(cd)
    got = split_connected_sum(cd)
    want = split_connected_sum_members(cd)
    assert (got is None) == (want is None)
    if got is not None:
        assert [part.word for part in got] == [part.word for part in want]
    assert count_tr(cd) == count_tr_sextuples(cd)
    g = interleavement_graph(cd)
    assert count_x(cd) == sum(len(s) for s in g.values()) // 2
    for a in range(1, cd.n + 1):
        assert is_nugatory(cd, a) == (not g[a])


def test_chord_routes_match_oracles_on_pairing_words():
    for n in range(6):
        for w in pairing_words(n):
            assert_routes_match_oracles(ChordDiagram(w))


def test_chord_routes_match_oracles_on_enumerated_curves():
    for n in range(8):
        for p in enumerate_curves(n):
            w = p.word
            assert_routes_match_oracles(p.code)
            # enumerated codes are canonical already; move off the orbit minimum
            assert_routes_match_oracles(ChordDiagram.from_labels(w[n:] + w[:n]))
            assert_routes_match_oracles(ChordDiagram.from_labels(w[::-1]))
