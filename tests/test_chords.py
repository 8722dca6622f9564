import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotproj import (
    ChordDiagram,
    chords,
    planar,
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
from knotproj.enumeration import _canonical_words
from knotproj.errors import MalformedCode, UnknownLabel

from conftest import (
    all_canonical_words,
    canonical_text_full_relabel,
    count_tr_sextuples,
    curled_composite,
    first_closed_interval,
    interleavement_graph,
    is_orbit_min,
    mask_rings,
    pairing_words,
    propagated_flip_mask,
    reading_orbit_min,
    split_connected_sum_members,
    sweep_realizations,
    token_reader,
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
    # a separator at either end is ignored, a comma as well as whitespace
    for text in ("1 1,", ",1 1", " ,1,,1, "):
        assert parse_code(text).word == (1, 1), text


def test_parse_relabels_by_first_occurrence():
    assert parse_code("7 7 4 4").word == (1, 1, 2, 2)
    assert parse_code("5 2 5 2").word == (1, 2, 1, 2)


def test_parse_empty_is_u():
    cd = parse_code("")
    assert cd.word == () and cd.n == 0
    assert parse_code(" , ") == cd


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
        ("1_0 10", "unparseable token"),
        ("+1 +1", "unparseable token"),
        ("\uff11 \uff11", "unparseable token"),
        pytest.param(
            "9" * 5000 + " 1 1",
            "unparseable token",
            id="past-int-digit-limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="int() has no digit limit before Python 3.11",
            ),
        ),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(MalformedCode, match=None) as exc:
        parse_code(text)
    assert fragment in str(exc.value)


def test_separators_are_the_regex_separators():
    """``parse_code`` splits at ``str.isspace`` code points and commas,
    where the token reader split at ``[\\s,]``: the two agree on every code
    point."""
    sep = re.compile(r"[\s,]")
    differ = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if (chr(cp).isspace() or cp == 0x2C) != bool(sep.match(chr(cp)))
    ]
    assert differ == []


# every separator a batch line keeps inside one code, and more
SEPARATORS = [" ", ",", "\t", "\n", "\r", "\xa0", "\u3000"]
SEPARATORS += "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
BAD_TOKENS = ["0", "00", "-0", "-1", "+1", "-", "1_0", "1.5", "a", "\u00b2", "\u0661", "\uff11"]
BAD_TOKENS.append("9" * 5000)


def token_soups(rng, count):
    """Empty text, separators alone, then ``count`` seeded codes: random
    words whose labels are written with or without leading zeros, joined by
    runs of separators, with a bad token put in or a token dropped in about
    half."""
    yield ""
    yield from SEPARATORS
    yield "".join(SEPARATORS)
    for _ in range(count):
        names = rng.sample(range(1, 40), 12)
        word = random_word(rng, rng.randint(0, 6))
        toks = ["0" * rng.randint(0, 2) + str(names[x - 1]) for x in word]
        roll = rng.random()
        if roll < 0.35:
            toks.insert(rng.randint(0, len(toks)), rng.choice(BAD_TOKENS))
        elif roll < 0.5 and toks:
            del toks[rng.randrange(len(toks))]
        seps = ["".join(rng.choices(SEPARATORS, k=rng.randint(1, 3))) for _ in toks]
        text = "".join(t + sep for t, sep in zip(toks, seps))
        yield rng.choice(["", ",", " \u2028"]) + text


def test_parse_code_matches_the_token_reader():
    """The joined test and its per-token fallback against the token reader
    (``conftest.token_reader``): the same word, or the same message, on
    4,000 seeded token soups."""

    def outcome(read, text):
        try:
            return read(text)
        except MalformedCode as exc:
            return str(exc)

    texts = list(token_soups(random.Random(44), 4_000))
    words = 0
    for text in texts:
        got = outcome(lambda t: parse_code(t).word, text)
        assert got == outcome(token_reader, text), text
        words += type(got) is tuple
    assert 1_000 < words < 3_000


@pytest.mark.parametrize(
    "word",
    [(1.0, 1.0), (True, True), (1, 2.0, 1, 2.0), [1, 1]],
    ids=["float", "bool", "float-second", "list"],
)
def test_diagram_refuses_labels_that_are_not_ints(word):
    """Tuple equality takes 1.0 and True for 1, so only the labels' types
    can refuse them; a list word is refused by the same message."""
    with pytest.raises(MalformedCode, match="is not a tuple of int labels"):
        ChordDiagram(word)


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


def test_text_is_the_labels_joined_by_spaces():
    """``str`` of a diagram, one ``%d`` format per word length, against the
    labels joined by spaces: U, words with labels of 10 and above, and
    every word the generator emits with n <= 8."""
    words = [(), tuple(range(1, 13)) * 2, tuple(range(1, 101)) * 2, (1, 1)]
    words += [cd.word for n in range(9) for cd in _canonical_words(n)]
    assert len(words) == 4 + 1 + 1 + 1 + 3 + 5 + 15 + 44 + 175 + 780
    for w in words:
        assert str(ChordDiagram(w)) == " ".join(map(str, w)), w


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


def curled_word(rng, n):
    """A random word with n chords, at least two thirds of them curls."""
    word = list(random_word(rng, rng.randint(0, n // 3)))
    for v in range(len(word) // 2 + 1, n + 1):
        at = rng.randint(0, len(word))
        word[at:at] = [v, v]
    return tuple(word)


def test_orbit_min_matches_full_relabel_on_random_words():
    """2,000 seeded words up to 12 chords and 300 curl-decorated composites
    with 7 to 16 chords, the analyze benchmark's sizes, against the
    relabeling of all 4n transforms; the curl-heavy half and the composites
    have many gap-1 candidates that tie on their first keys."""
    rng = random.Random(18)
    words = []
    for k in range(2_000):
        n = rng.randint(1, 12)
        words.append(curled_word(rng, n) if k % 2 else random_word(rng, n))
    words += [curled_composite(rng, rng.randint(7, 16)) for _ in range(300)]
    for labels in words:
        cd = ChordDiagram.from_labels(labels)
        w = cd.word
        least = chords._orbit_min(w)
        assert " ".join(map(str, least)) == canonical_text_full_relabel(cd), w
        for t in (w, least):
            assert is_orbit_min(t) == (t == least), t


def torus_word(k):
    """The Gauss word of the torus shadow T(2,k): 1 2 .. k 1 2 .. k."""
    return tuple(range(1, k + 1)) * 2


def ring(block, r):
    """r copies of a normalized word, each relabeled after the last."""
    b = len(block) // 2
    return tuple(x + i * b for i in range(r) for x in block)


def test_orbit_min_on_torus_shadows_and_rings():
    """T(2,k) for k <= 60 and rings of up to 8 copies of ``1 1``, the
    trefoil and T(2,5), where most candidates tie: every rotation and
    reflection of each reads the orbit minimum of the tuple reading."""
    words = [torus_word(k) for k in range(1, 61)]
    words += [ring(b, r) for b in ((1, 1), torus_word(3), torus_word(5)) for r in range(1, 9)]
    for w in words:
        want = reading_orbit_min(w)
        for seq in (w, w[::-1]):
            for r in range(len(seq)):
                t = ChordDiagram.from_labels(seq[r:] + seq[:r]).word
                assert chords._orbit_min(t) == want, t


def test_orbit_min_compares_torus_shadows_twice(monkeypatch):
    """Every candidate reading of T(2,k) ties, and the first tie gives
    period 1: one comparison a direction, for every k <= 60."""
    calls = []
    precedes = chords._precedes

    def counted(*args):
        calls.append(args)
        return precedes(*args)

    monkeypatch.setattr(chords, "_precedes", counted)
    for k in range(1, 61):
        calls.clear()
        assert chords._orbit_min(torus_word(k)) == torus_word(k)
        assert len(calls) == 2, k


def test_reversed_back_steps_come_from_the_forward_pass():
    """The back steps of a word's reversal are m minus its own, read
    backwards (what ``_orbit_min`` builds its backward readings from): on
    every canonical word with n <= 6 and on seeded random and composite
    words up to 16 chords."""
    rng = random.Random(34)
    words = [w for n in range(7) for w in all_canonical_words(n)]
    for _ in range(500):
        n = rng.randint(1, 16)
        words.append(ChordDiagram.from_labels(random_word(rng, n)).word)
        if n >= 7:
            words.append(ChordDiagram.from_labels(curled_composite(rng, n)).word)
    for w in words:
        m = len(w)
        assert chords._back_steps(w[::-1]) == [m - b for b in reversed(chords._back_steps(w))], w


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


def test_split_connected_sum_cuts_off_the_component_that_ends_first():
    """The inside is the component with the earliest last position, here
    the triangle 5 6 7, not the first closed interval by start (4 5 6 7 5
    6 7 4); the outside is read from the inside's end."""
    got = split_connected_sum(parse_code("1 2 1 3 2 4 5 6 7 5 6 7 4 3"))
    assert [str(part) for part in got] == ["1 2 3 1 2 3", "1 2 3 4 3 2 4 1"]


def test_split_connected_sum_prime_and_small():
    assert split_connected_sum(parse_code("1 2 3 1 2 3")) is None
    assert split_connected_sum(parse_code("1 1")) is None
    assert split_connected_sum(parse_code("")) is None


@pytest.mark.parametrize(
    "ns, words, primes",
    [
        (range(8), (1, 1, 2, 5, 17, 79, 554, 5_283), 1_742),
        pytest.param(range(8, 9), (65_346,), 19_343, marks=pytest.mark.slow),
    ],
    ids=["n<=7", "n=8"],
)
def test_one_component_exactly_when_no_closed_interval(ns, words, primes):
    """The dataset's ``prime`` test, one interlacement component, agrees with
    the closed-interval test on every canonical word with n <= 8, parity
    or not (n = 8 under ``slow``); the components partition the chords.

    The same walk propagates the flip relation: its mask equals the
    from-scratch propagation on every word, spherical or not, and
    ``planar._flip_coset`` hands on exactly what the walk returns.

    The words are counted per n too: chord diagrams up to rotation and
    reflection, OEIS A007769, an independent count of what the canonicity
    test keeps."""
    seen = []
    found = 0
    for n in ns:
        ws = all_canonical_words(n)
        seen.append(len(ws))
        for w in ws:
            cd = ChordDiagram(w)
            comps, mask = chords._components(cd)
            assert sum(comps) == (1 << n) - 1
            assert planar._flip_coset(cd) == (mask, comps)
            assert mask == propagated_flip_mask(ChordDiagram(w)), w
            prime = len(comps) == 1
            assert prime == (n >= 1 and first_closed_interval(w) is None), w
            found += prime
    assert (tuple(seen), found) == (words, primes)


def test_walk_mask_is_the_sweeps_first_realization():
    """On every canonical word with n <= 6 that a 2**n sweep realizes, the
    walk's mask is the first mask the sweep accepts; those words are the
    census's 69 classes."""
    realized = 0
    for n in range(7):
        for w in all_canonical_words(n):
            first = next(sweep_realizations(w), None)
            if first is not None:
                mask = chords._components(ChordDiagram(w))[1]
                assert mask_rings(w, mask) == first, w
                realized += 1
    assert realized == 69


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
