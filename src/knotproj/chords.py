"""Gauss codes and chord diagrams of closed curves.

The Gauss code of a closed curve with n double points lists the crossing
labels in traversal order; each label appears exactly twice, so the code is a
cyclic double-occurrence word of length 2n.  Pairing the two occurrences of
each label on a circle gives the chord diagram.  Everything in this module is
purely combinatorial and independent of whether the code is realizable on the
sphere (see :mod:`knotproj.planar` for that).

Conventions:

* words are stored in a fixed linearization as tuples; cyclic questions are
  answered with index arithmetic,
* labels are the dense integers 1..n assigned by first occurrence,
* the empty word is the code of the simple closed curve U.

Each chord-level concept has one implementation:

* :func:`_relabel` renames labels by first occurrence; :func:`_normalize`
  adds the validation (each label exactly twice), once per diagram built
  from outside labels (``from_labels``, :func:`parse_code`, or the
  constructor given a word),
* a reading of a word (a rotation or reflection, relabeled by first
  occurrence) is compared with another through integer keys, not relabeled
  tuples: :func:`_back_steps` gives each position the steps back to its
  partner, once per word, and :func:`_precedes` compares two readings key
  by key, in word order.  :func:`_least_starts` lists the readings that
  can be least.  Together they are the orbit minimum :func:`_orbit_min`,
  behind :func:`canonicalize` (cached per diagram as
  ``ChordDiagram._canon``, the canonical diagram, whose own ``_canon`` is
  itself), which relabels only the winning reading, and the early-exit
  canonicity test :func:`_is_orbit_min`, each listing its candidates with
  :func:`_least_starts`; the enumeration keeps the back steps of its
  partial word as chords close and hands them to both its close-time
  prune (:func:`_precedes`) and its leaf test,
* :func:`_interlacement_bits` is the interlacement core, a word read
  left to right with a running prefix XOR, built once per diagram and
  cached as ``ChordDiagram._bits``: every interleave question reads it,
  here and in :mod:`knotproj.planar` (strong 2-gons, reducedness,
  realization), and the connected-sum check reads each spliced word with
  it; :func:`_triangles` counts its triangles, the triple chords;
  :func:`_components` lists its components, in one walk whose spanning
  order ``planar._flip_coset`` propagates flips along; the components are
  also the prime factors behind ``planar.prime_decompose``,
  :func:`split_connected_sum` and the dataset's ``prime`` field.  The
  enumeration seeds ``_bits`` from its search.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

from .errors import MalformedCode, UnknownLabel

__all__ = [
    "ChordDiagram",
    "parse_code",
    "canonicalize",
    "interleaved",
    "count_x",
    "count_tr",
    "is_nugatory",
    "gauss_parity_violations",
    "split_connected_sum",
]

_SEP = re.compile(r"[\s,]+")


def _relabel(labels) -> tuple[int, ...]:
    """Rename labels to 1, 2, .. in order of first appearance; no validation."""
    ids: dict = {}
    return tuple([ids.setdefault(x, len(ids) + 1) for x in labels])


def _normalize(labels) -> tuple[int, ...]:
    """:func:`_relabel` a sequence of labels, checking each occurs exactly twice.

    Raises :class:`MalformedCode`, naming the first offending label as given,
    unless every label occurs exactly twice.
    """
    word = _relabel(labels)
    counts = [0] * (max(word, default=0) + 1)
    for y in word:
        counts[y] += 1
    for y in range(1, len(counts)):
        if counts[y] != 2:
            x = labels[word.index(y)]
            raise MalformedCode(
                f"label {x!r} appears {counts[y]} time(s), expected exactly 2"
            )
    return word


class _Frozen:
    """Refuses attribute assignment and deletion, and builds validated.

    A mixin for the NamedTuple subclasses that cache values in an instance
    ``__dict__`` (:class:`ChordDiagram`, ``planar.PlanarCurve``): their
    fields are read-only already, and this keeps new names out as well.
    ``cached_property`` and the package's own ``__dict__[...]`` writes go
    past ``__setattr__``, so the caches still fill.  Its ``_make`` builds
    through the subclass's constructor, so ``_make`` and the inherited
    ``_replace`` validate their fields as the constructor does.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class _ChordDiagramFields(NamedTuple):
    word: tuple[int, ...]


class ChordDiagram(_Frozen, _ChordDiagramFields):
    """A chord diagram as a normalized cyclic double-occurrence word.

    The constructor insists on the normalized form (labels 1..n by first
    occurrence, each exactly twice); use :meth:`from_labels` or
    :func:`parse_code` to build one from arbitrary labels.  A diagram is
    the 1-tuple ``(word,)``, so it equals and hashes as that tuple.
    """

    def __new__(cls, word: tuple[int, ...]):
        if _normalize(word) != word:
            raise MalformedCode(f"word {word!r} is not labeled by first occurrence")
        return cls._of_normal(word)

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @cached_property
    def _bits(self) -> tuple[int, ...]:
        """This diagram's :func:`_interlacement_bits`, built on first use."""
        return _interlacement_bits(self.word)

    @cached_property
    def _firsts(self) -> tuple[int, ...]:
        """The first position of each label a, at index a - 1, found on
        first use: label a first occurs where a is the next label.

        An enumerated diagram finds it when realization's
        ``planar._flip_coset`` first reads it.  Its readers are
        :meth:`positions`, ``planar._flip_coset``,
        ``PlanarCurve.rotations``, ``planar.innermost_teardrop`` and
        ``invariants.a2_gauss_formula``.
        """
        firsts: list[int] = []
        for i, x in enumerate(self.word):
            if x > len(firsts):
                firsts.append(i)
        return tuple(firsts)

    @cached_property
    def _canon(self) -> "ChordDiagram":
        """This diagram's :func:`canonicalize`, computed on first use."""
        return ChordDiagram._of_canonical(_orbit_min(self.word))

    @classmethod
    def from_labels(cls, labels) -> "ChordDiagram":
        """Build a diagram from a sequence of hashable labels, renaming them."""
        return cls._of_normal(_normalize(labels))

    @classmethod
    def _of_normal(cls, word: tuple[int, ...]) -> "ChordDiagram":
        """A diagram for a word already normalized, with no second validation."""
        return tuple.__new__(cls, (word,))

    @classmethod
    def _of_canonical(cls, word: tuple[int, ...]) -> "ChordDiagram":
        """:meth:`_of_normal` for a word that is its own orbit minimum, so the
        diagram is its own :func:`canonicalize`."""
        cd = cls._of_normal(word)
        cd.__dict__["_canon"] = cd
        return cd

    def positions(self, label: int) -> tuple[int, int]:
        """The two positions of ``label`` in the linearized word, ascending."""
        if type(label) is not int or not 1 <= label <= self.n:  # bools too
            raise UnknownLabel(f"label {label!r} not in 1..{self.n}")
        i = self._firsts[label - 1]
        return i, self.word.index(label, i + 1)

    def __str__(self) -> str:
        return " ".join(map(str, self.word))


def _decimal(text: str) -> int:
    """``text`` as an int when it is ASCII decimal digits after an optional
    "-"; else ValueError.

    This is how a code's label and a dataset's ``arnold`` are written.
    """
    # int() alone also takes "+1", " 1", "1_0" and non-ASCII digits
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError
    return int(text)  # ValueError too past the interpreter's digit limit


def parse_code(text: str) -> ChordDiagram:
    """Parse a Gauss-code string into a :class:`ChordDiagram`.

    Tokens are separated by whitespace and/or commas, leading and trailing
    ones included, and must be positive integers written in ASCII decimal
    digits (no sign, underscore or other script), each appearing exactly
    twice.  Labels are renamed to 1..n by first occurrence; a string with no
    token gives U.
    """
    labels = []
    for tok in filter(None, _SEP.split(text)):
        try:
            v = _decimal(tok)
        except ValueError:
            raise MalformedCode(f"unparseable token {tok!r}") from None
        if v <= 0:
            raise MalformedCode(f"labels must be positive integers, got {tok!r}")
        labels.append(v)
    return ChordDiagram.from_labels(labels)


def _back_steps(word: tuple[int, ...]) -> list[int]:
    """For each position of a normalized word, the cyclic steps back to its partner.

    This is the word's key source: a reading of the word forward from r,
    relabeled by first occurrence, gives the symbol at offset k a repeated
    label exactly when ``back[(r + k) % m] <= k``, the partner having been
    read that many steps earlier; otherwise the label is fresh.  A reading
    backward from r is the reading of ``word[::-1]`` forward from m - 1 - r.
    Its back steps come from the same pass: a partner b steps back from
    position p lies m - b steps back from m - 1 - p in the reversal, so
    ``_back_steps(word[::-1])`` is ``[m - b for b in reversed(back)]``.
    """
    m = len(word)
    first = [-1] * (m // 2 + 1)
    back = [0] * m
    for i, x in enumerate(word):
        j = first[x]
        if j < 0:
            first[x] = i
        else:
            back[i] = i - j
            back[j] = m + j - i
    return back


def _precedes(a: list[int], s: int, b: list[int], t: int, k: int, stop: int) -> bool:
    """Whether the reading with back steps ``a`` from ``s`` is less, relabeled
    by first occurrence, than the one with ``b`` from ``t``.

    Both readings must agree before offset k; offsets k .. stop - 1 are
    compared, ``a[s + k]`` against ``b[t + k]``, so a reading that wraps
    past the word's end reads a list that holds the steps twice over.  A
    reading may also be of a prefix, with only its own steps written
    (``enumeration._canonical_words``).  The key of an offset is its
    back step when that is at most the offset, else 0.  Key order is word
    order: while two readings agree, they hold the same labels, a fresh
    label is larger than every label read, and a repeated label is the label
    of the offset its partner was read at, smaller the earlier that offset.
    So at the first key that differs the reading with the larger key is the
    smaller word, and equal keys all the way mean equal words.
    """
    while k < stop:
        x = a[s + k]
        y = b[t + k]
        if x != y:
            if x > k:
                x = 0
            if y > k:
                y = 0
            if x != y:
                return x > y
        k += 1
    return False


def _orbit_min(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least word over all rotations and both reflections of a normalized word.

    Each transform is relabeled by first occurrence.  Only a transform that
    starts on an endpoint whose partner lies g steps ahead, g the least
    back step in the word, can be least: it reads 1 2 .. g 1 (a chord
    nested inside would be shorter still), while any other transform reads
    at least g + 1 fresh labels before its first repeat.  These candidates
    are the readings whose key at offset g is g; they agree through offset
    g, and each is compared with the best so far by :func:`_precedes` only
    until their keys differ.  Both directions' steps come from one
    :func:`_back_steps` pass, and the word is reversed, then relabeled,
    only when a backward reading wins.
    """
    if not word:
        return ()
    m = len(word)
    back = _back_steps(word)
    fwd = back * 2
    bwd = [m - b for b in reversed(back)] * 2
    g = min(back)
    best = None
    for src in (fwd, bwd):
        for s in _least_starts(src, g):
            if best is None or _precedes(src, s, best, start, g + 1, m):
                best, start = src, s
    seq = word if best is fwd else word[::-1]
    return _relabel(seq[start:] + seq[:start])


def _least_starts(src: list[int], g: int) -> list[int]:
    """The starts of the readings of one direction that can be least.

    ``src`` holds a word's :func:`_back_steps` twice over, g is the least
    step, and a reading is a candidate when its key at offset g is g: it
    reads 1 2 .. g 1.  Starts ascend.
    """
    out = []
    q = g
    for _ in range(src.count(g) >> 1):  # src holds each step twice
        q = src.index(g, q)
        out.append(q - g)
        q += 1
    return out


def _is_orbit_min(back: list[int], rback: list[int], g: int) -> bool:
    """Whether a normalized word equals its :func:`_orbit_min`, given the
    :func:`_back_steps` of the word and of its reversal and the least step g.

    The candidates are the readings :func:`_orbit_min` compares, listed by
    :func:`_least_starts` in each direction.  The word must be a candidate
    itself (``back[g] == g``), so it is the first forward one, and it is
    skipped: compared with itself it would read the whole word.  The test
    stops at the first candidate that :func:`_precedes` the word.
    """
    m = len(back)
    fwd = back * 2
    bwd = rback * 2
    for s in _least_starts(fwd, g)[1:]:
        if _precedes(fwd, s, back, 0, g + 1, m):
            return False
    for r in _least_starts(bwd, g):
        if _precedes(bwd, r, back, 0, g + 1, m):
            return False
    return True


def canonicalize(cd: ChordDiagram) -> ChordDiagram:
    """The diagram of the least first-occurrence word over all rotations and
    both reflections.

    Two codes describe the same unoriented spherical curve pattern exactly
    when their canonical diagrams are equal; ``str`` gives the canonical
    code's text, empty for U.  The orbit has at most 4n words (2n rotations,
    2 directions, relabeled by first occurrence after each transform); see
    :func:`_orbit_min`.  Each diagram computes it once (``ChordDiagram._canon``).
    """
    return cd._canon


def interleaved(cd: ChordDiagram, a: int, b: int) -> bool:
    """Whether chords ``a`` and ``b`` alternate as a..b..a..b around the circle."""
    if a == b:
        raise UnknownLabel(f"interleaved needs two distinct labels, got {a} twice")
    cd.positions(a)
    cd.positions(b)
    return bool(cd._bits[a - 1] >> (b - 1) & 1)


def _interlacement_bits(word: tuple[int, ...]) -> tuple[int, ...]:
    """Interleavement graph as bitsets: entry a-1 has bit b-1 set iff a, b interleave.

    One pass over a word labeled 1..n, each label twice, in any order:
    first-occurrence order is not needed.  Each row starts with its own
    bit, and each symbol x XORs the prefix, the XOR of ``1 << (w[i] - 1)``
    over the positions before it, into row x - 1, then toggles bit x - 1 of
    the prefix.  So row a - 1 ends as its own bit XOR the positions from
    chord a's first endpoint up to its second.  The first endpoint cancels
    the own bit, and of the positions strictly inside, every chord with
    both endpoints there cancels and exactly the chords with one endpoint
    there, the chords that interleave a, stay.  A diagram reads it through
    ``ChordDiagram._bits``, so each diagram builds it once, and
    ``verify._connected_sum_lemma`` reads each spliced word with it (head,
    ``planar._splice_block`` and tail, not relabeled), with no diagram
    built.
    """
    rows = [1 << i for i in range(len(word) // 2)]
    prefix = 0
    for x in word:
        rows[x - 1] ^= prefix
        prefix ^= 1 << (x - 1)
    return tuple(rows)


def count_x(cd: ChordDiagram) -> int:
    """Number of interleaved chord pairs (cyclic pattern a b a b)."""
    return sum(row.bit_count() for row in cd._bits) // 2


def count_tr(cd: ChordDiagram) -> int:
    """Number of triple chords: triples realizing the cyclic pattern a b c a b c.

    The triangles of the diagram's interlacement graph, counted by
    :func:`_triangles`.  This is equivalent to the direct count of six-point
    patterns (the test suite keeps that count as an independent oracle).
    """
    return _triangles(cd._bits)


def _triangles(adj: tuple[int, ...]) -> int:
    """Number of triangles a < b < c of a graph given as :func:`_interlacement_bits` rows.

    For each edge a < b, the common neighbours above b.  Only the set bits
    of each row are visited, so the cost follows the edges, not the n^2
    pairs.  A triangle is a triple of pairwise interleaved chords, so the
    count does not depend on how the chords are named.
    """
    total = 0
    for a, row in enumerate(adj):
        above = row >> (a + 1)  # bit j is the neighbour b = a + 1 + j
        while above:
            low = above & -above
            above ^= low
            b = a + low.bit_length()
            total += ((row & adj[b]) >> (b + 1)).bit_count()
    return total


def is_nugatory(cd: ChordDiagram, a: int) -> bool:
    """Whether chord ``a`` interleaves no other chord (an isolated chord)."""
    cd.positions(a)
    return cd._bits[a - 1] == 0


def gauss_parity_violations(cd: ChordDiagram) -> list[int]:
    """Chords interleaving an odd number of chords, ascending.

    Every realizable code has none (the classical parity condition); the
    converse fails in general, so this is only a fast rejection filter.
    """
    return [a for a, b in enumerate(cd._bits, start=1) if b.bit_count() & 1]


def _components(cd: ChordDiagram) -> tuple[list[int], list[tuple[int, int]]]:
    """The components of the interlacement graph, by last position in the
    word, and the walk's spanning order.

    Each component is a bit mask (bit a-1 for chord a) grown from
    ``cd._bits``.  The word is read from its end, so each component is met
    at its last position, its root; the list is then reversed.  The walk
    leaves every chord once, and the order lists, in walk order, a pair
    (a - 1, reached) for each chord a that first reaches others, ``reached``
    their mask.  So each chord but a root is reached once, from a chord
    reached before it.  U has no components.
    """
    adj = cd._bits
    seen = 0
    found = []
    order = []
    for x in reversed(cd.word):
        if seen >> (x - 1) & 1:
            continue
        comp = frontier = 1 << (x - 1)
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            a = low.bit_length() - 1
            new = adj[a] & ~comp
            if new:
                order.append((a, new))
                comp |= new
                frontier |= new
        seen |= comp
        found.append(comp)
    found.reverse()
    return found, order


def split_connected_sum(
    cd: ChordDiagram,
) -> tuple[ChordDiagram, ChordDiagram] | None:
    """Split off a proper cyclic interval closed under the chord pairing.

    The interval holds the component of the interlacement graph with the
    earliest last position (:func:`_components`), and nothing else: every
    other component lies in one gap between consecutive positions of it
    (``planar.prime_decompose``), and one inside its span would end
    earlier.  So the interval is ``[s, s + 2k)`` for its k chords and first
    position s.  Returns the (inside, outside) sub-diagrams, the outside
    read from the interval's end, both relabeled by first occurrence; None
    when there are fewer than two components.  They are not validated
    again: each holds whole chords.
    """
    comps = _components(cd)[0]
    if len(comps) < 2:
        return None
    w = cd.word
    s = next(i for i, x in enumerate(w) if comps[0] >> (x - 1) & 1)
    e = s + 2 * comps[0].bit_count()
    return (
        ChordDiagram._of_normal(_relabel(w[s:e])),
        ChordDiagram._of_normal(_relabel(w[e:] + w[:s])),
    )
