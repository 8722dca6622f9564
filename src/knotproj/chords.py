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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .errors import MalformedCode, UnknownLabel

__all__ = [
    "ChordDiagram",
    "CanonicalCode",
    "parse_code",
    "canonicalize",
    "interleaved",
    "interleavement_graph",
    "count_x",
    "count_tr",
    "is_nugatory",
    "gauss_parity_violations",
    "split_connected_sum",
]

_SEP = re.compile(r"[\s,]+")


def _first_occurrence_relabeling(labels) -> tuple[int, ...]:
    """Rename labels to 1..n in order of first appearance."""
    seen: dict = {}
    out = []
    for x in labels:
        if x not in seen:
            seen[x] = len(seen) + 1
        out.append(seen[x])
    return tuple(out)


@dataclass(frozen=True)
class ChordDiagram:
    """A chord diagram as a normalized cyclic double-occurrence word.

    The constructor insists on the normalized form (labels 1..n by first
    occurrence, each exactly twice); use :meth:`from_labels` or
    :func:`parse_code` to build one from arbitrary labels.
    """

    word: tuple[int, ...]

    def __post_init__(self):
        w = self.word
        if len(w) % 2:
            raise MalformedCode(f"odd length {len(w)}: not a double-occurrence word")
        counts: dict[int, int] = {}
        for x in w:
            counts[x] = counts.get(x, 0) + 1
        bad = sorted(x for x, c in counts.items() if c != 2)
        if bad:
            raise MalformedCode(f"labels without exactly two occurrences: {bad}")
        if w != _first_occurrence_relabeling(w):
            raise MalformedCode(f"word {w!r} is not labeled by first occurrence")

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @classmethod
    def from_labels(cls, labels) -> "ChordDiagram":
        """Build a diagram from arbitrary hashable labels, renaming them."""
        labels = tuple(labels)
        counts: dict = {}
        for x in labels:
            counts[x] = counts.get(x, 0) + 1
        bad = [x for x, c in counts.items() if c != 2]
        if bad:
            raise MalformedCode(f"labels without exactly two occurrences: {bad}")
        return cls(_first_occurrence_relabeling(labels))

    def positions(self, label: int) -> tuple[int, int]:
        """The two positions of ``label`` in the linearized word, ascending."""
        if not isinstance(label, int) or not 1 <= label <= self.n:
            raise UnknownLabel(f"label {label!r} not in 1..{self.n}")
        i = self.word.index(label)
        return i, self.word.index(label, i + 1)

    def __str__(self) -> str:
        return " ".join(map(str, self.word))


@dataclass(frozen=True)
class CanonicalCode:
    """The lexicographically least word over a diagram's symmetry orbit.

    Two codes describe the same unoriented spherical curve pattern exactly
    when their canonical codes agree, so the text is usable as a dict key.
    The empty string is U.
    """

    text: str

    def word(self) -> tuple[int, ...]:
        if not self.text:
            return ()
        return tuple(int(t) for t in self.text.split())

    def __str__(self) -> str:
        return self.text


def parse_code(text: str) -> ChordDiagram:
    """Parse a Gauss-code string into a :class:`ChordDiagram`.

    Tokens are separated by whitespace and/or commas and must be positive
    integers, each appearing exactly twice.  Labels are renamed to 1..n by
    first occurrence; the empty string gives U.
    """
    stripped = text.strip()
    labels = []
    for tok in _SEP.split(stripped) if stripped else []:
        try:
            v = int(tok)
        except ValueError:
            raise MalformedCode(f"unparseable token {tok!r}") from None
        if v <= 0:
            raise MalformedCode(f"labels must be positive integers, got {tok!r}")
        labels.append(v)
    counts: dict[int, int] = {}
    for v in labels:
        counts[v] = counts.get(v, 0) + 1
    bad = sorted(x for x, c in counts.items() if c != 2)
    if bad:
        raise MalformedCode(
            f"label {bad[0]} appears {counts[bad[0]]} time(s), expected exactly 2"
        )
    return ChordDiagram(_first_occurrence_relabeling(labels))


def canonicalize(cd: ChordDiagram) -> CanonicalCode:
    """Least first-occurrence word over all rotations and both reflections.

    The orbit has at most 4n words (2n rotations, 2 directions, relabeled by
    first occurrence after each transform); ties collapse because the
    relabeled words are compared as tuples.
    """
    w = cd.word
    m = len(w)
    if m == 0:
        return CanonicalCode("")
    best: tuple[int, ...] | None = None
    for seq in (w, w[::-1]):
        for r in range(m):
            cand = _first_occurrence_relabeling(seq[r:] + seq[:r])
            if best is None or cand < best:
                best = cand
    return CanonicalCode(" ".join(map(str, best)))


def interleaved(cd: ChordDiagram, a: int, b: int) -> bool:
    """Whether chords ``a`` and ``b`` alternate as a..b..a..b around the circle."""
    if a == b:
        raise UnknownLabel(f"interleaved needs two distinct labels, got {a} twice")
    i1, i2 = cd.positions(a)
    j1, j2 = cd.positions(b)
    return (i1 < j1 < i2) != (i1 < j2 < i2)


def _interlacement_bits(word: tuple[int, ...]) -> list[int]:
    """Interleavement graph as bitsets: entry a-1 has bit b-1 set iff a, b interleave.

    Built in one pass over a normalized word.  XORing ``1 << (w[i] - 1)`` over
    the positions strictly inside chord a's interval cancels every chord with
    both endpoints inside and keeps exactly the chords with one endpoint
    inside, which are the chords that interleave a.
    """
    bits = [0] * (len(word) // 2)
    prefix = 0  # XOR over the positions read so far
    for x in word:
        bits[x - 1] ^= prefix
        prefix ^= 1 << (x - 1)
    # each entry now XORs its chord's first endpoint through the last position
    # before its second endpoint, so it still holds the chord's own bit once
    return [b ^ (1 << i) for i, b in enumerate(bits)]


def interleavement_graph(cd: ChordDiagram) -> dict[int, frozenset[int]]:
    """Adjacency map of the interleavement (chord-crossing) graph."""
    n = cd.n
    bits = _interlacement_bits(cd.word)
    return {
        a: frozenset(b for b in range(1, n + 1) if bits[a - 1] >> (b - 1) & 1)
        for a in range(1, n + 1)
    }


def count_x(cd: ChordDiagram) -> int:
    """Number of interleaved chord pairs (cyclic pattern a b a b)."""
    g = interleavement_graph(cd)
    return sum(len(s) for s in g.values()) // 2


def count_tr(cd: ChordDiagram) -> int:
    """Number of triple chords: triples realizing the cyclic pattern a b c a b c.

    Counted as triangles of the interleavement graph, which is equivalent to
    the direct count of six-point patterns (the test suite keeps that count
    as an independent oracle).
    """
    g = interleavement_graph(cd)
    return sum(
        1
        for a, b, c in combinations(range(1, cd.n + 1), 3)
        if b in g[a] and c in g[a] and c in g[b]
    )


def is_nugatory(cd: ChordDiagram, a: int) -> bool:
    """Whether chord ``a`` interleaves no other chord (an isolated chord)."""
    cd.positions(a)
    return _interlacement_bits(cd.word)[a - 1] == 0


def gauss_parity_violations(cd: ChordDiagram) -> list[int]:
    """Chords interleaving an odd number of chords, ascending.

    Every realizable code has none (the classical parity condition); the
    converse fails in general, so this is only a fast rejection filter.
    """
    bits = _interlacement_bits(cd.word)
    return [a for a, b in enumerate(bits, start=1) if b.bit_count() & 1]


def split_connected_sum(
    cd: ChordDiagram,
) -> tuple[ChordDiagram, ChordDiagram] | None:
    """Split off a proper cyclic interval closed under the chord pairing.

    Returns the (inside, outside) sub-diagrams of the first such interval
    (smallest start position, then smallest even length), or None when the
    diagram is prime or has fewer than two chords.  Both parts keep their
    traversal order and are relabeled by first occurrence.
    """
    w = cd.word
    m = len(w)
    if cd.n < 2:
        return None
    spans = {}
    for a in range(1, cd.n + 1):
        spans[a] = cd.positions(a)
    for start in range(m):
        for length in range(2, m - 1, 2):
            inside = [(start + k) % m for k in range(length)]
            member = [False] * m
            for i in inside:
                member[i] = True
            if all(member[i1] == member[i2] for i1, i2 in spans.values()):
                outside = [(start + length + k) % m for k in range(m - length)]
                return (
                    ChordDiagram.from_labels(w[i] for i in inside),
                    ChordDiagram.from_labels(w[i] for i in outside),
                )
    return None
