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
* :func:`_candidate_starts` lists the transforms that can read least in a
  word's symmetry orbit, and :func:`_reads_below` relabels one transform
  and compares it with a given word; together they are the orbit minimum
  :func:`_orbit_min`, behind :func:`canonicalize` (cached per diagram as
  ``ChordDiagram._canon``, the canonical diagram, whose own ``_canon`` is
  itself), and the early-exit canonicity test :func:`_is_orbit_min`;
  the enumeration's close-time prune reads a partial word through
  :func:`_reads_below` too,
* :func:`_interlacement_bits` is the interlacement core, built once per
  diagram and cached as ``ChordDiagram._bits``: every interleave question
  reads it, here and in :mod:`knotproj.planar` (strong 2-gons, reducedness,
  realization); :func:`split_connected_sum` uses the prefix XOR it is built
  from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class ChordDiagram:
    """A chord diagram as a normalized cyclic double-occurrence word.

    The constructor insists on the normalized form (labels 1..n by first
    occurrence, each exactly twice); use :meth:`from_labels` or
    :func:`parse_code` to build one from arbitrary labels.
    """

    word: tuple[int, ...]

    def __post_init__(self):
        if _normalize(self.word) != self.word:
            raise MalformedCode(f"word {self.word!r} is not labeled by first occurrence")

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @cached_property
    def _bits(self) -> tuple[int, ...]:
        """This diagram's :func:`_interlacement_bits`, built on first use."""
        return _interlacement_bits(self.word)

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
        cd = object.__new__(cls)
        object.__setattr__(cd, "word", word)
        return cd

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
        i = self.word.index(label)
        return i, self.word.index(label, i + 1)

    def __str__(self) -> str:
        return " ".join(map(str, self.word))


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
    return ChordDiagram._of_normal(_normalize(labels))


def _candidate_starts(word: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The transforms of a normalized word that can read least in its orbit.

    Each is a pair (sequence, start): the word or its reversal, read
    cyclically from the start.  Only a transform that starts on an endpoint
    whose partner lies g steps ahead, g the least such distance in the word,
    can be least: it reads 1 2 .. g 1 (a chord nested inside would be closer
    still), while any other transform reads at least g + 1 fresh labels
    before its first repeat.  The word itself is the first pair whenever its
    chord 1 closes at g.
    """
    m = len(word)
    first: dict[int, int] = {}
    ahead = [0] * m  # steps from each position forward to its partner
    for i, x in enumerate(word):
        j = first.setdefault(x, i)
        ahead[i] = (j - i) % m
        ahead[j] = i - j
    g = min(ahead, default=0)
    rev = word[::-1]
    starts = [(word, i) for i in range(m) if ahead[i] == g]
    starts += [(rev, m - 1 - i) for i in range(m) if ahead[i] == m - g]
    return starts


def _reads_below(seq: tuple[int, ...], r: int, word: tuple[int, ...]) -> bool:
    """Whether ``seq``, read cyclically from ``r`` and relabeled by first
    occurrence, is less than ``word``.

    The reading stops at its first label that differs from ``word``'s.  A
    ``seq`` and ``word`` of equal length may be prefixes of longer words.
    """
    ids: dict[int, int] = {}
    for k, x in enumerate(seq[r:] + seq[:r]):
        y = ids.setdefault(x, len(ids) + 1)
        if y != word[k]:
            return y < word[k]
    return False


def _orbit_min(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least word over all rotations and both reflections of a normalized word.

    Each transform is relabeled by first occurrence.  Only the
    :func:`_candidate_starts` are read, each only until it differs from the
    best so far.
    """
    best: tuple[int, ...] = ()
    for seq, r in _candidate_starts(word):
        if not best or _reads_below(seq, r, best):
            best = _relabel(seq[r:] + seq[:r])
    return best


def _is_orbit_min(word: tuple[int, ...]) -> bool:
    """Whether a normalized word equals its :func:`_orbit_min`.

    ``word`` seeds the comparison (it is its own start-0 reading), so the
    test stops at the first candidate that reads below it.
    """
    return not any(_reads_below(seq, r, word) for seq, r in _candidate_starts(word))


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

    Built in one pass over a normalized word.  XORing ``1 << (w[i] - 1)`` over
    the positions strictly inside chord a's interval cancels every chord with
    both endpoints inside and keeps exactly the chords with one endpoint
    inside, which are the chords that interleave a.  Callers read it through
    ``ChordDiagram._bits``, so each diagram builds it once.
    """
    bits = [0] * (len(word) // 2)
    prefix = 0  # XOR over the positions read so far
    for x in word:
        bits[x - 1] ^= prefix
        prefix ^= 1 << (x - 1)
    # each entry now XORs its chord's first endpoint through the last position
    # before its second endpoint, so it still holds the chord's own bit once
    return tuple([b ^ (1 << i) for i, b in enumerate(bits)])


def count_x(cd: ChordDiagram) -> int:
    """Number of interleaved chord pairs (cyclic pattern a b a b)."""
    return sum(row.bit_count() for row in cd._bits) // 2


def count_tr(cd: ChordDiagram) -> int:
    """Number of triple chords: triples realizing the cyclic pattern a b c a b c.

    Counted as triangles a < b < c of the interleavement graph: for each
    interleaved pair, the common neighbours above b.  This is equivalent to
    the direct count of six-point patterns (the test suite keeps that count
    as an independent oracle).
    """
    adj = cd._bits
    return sum(
        ((adj[a] & adj[b]) >> (b + 1)).bit_count()
        for a in range(len(adj))
        for b in range(a + 1, len(adj))
        if adj[a] >> b & 1
    )


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


def split_connected_sum(
    cd: ChordDiagram,
) -> tuple[ChordDiagram, ChordDiagram] | None:
    """Split off a proper cyclic interval closed under the chord pairing.

    Returns the (inside, outside) sub-diagrams of the first such interval
    (smallest start position, then smallest even length), or None when the
    diagram is prime or has fewer than two chords.  Both parts keep their
    traversal order and are relabeled by first occurrence.  They are not
    validated again: a window shorter than the word whose prefix XORs agree
    holds each of its labels an even number of times and at most twice, so
    exactly twice, and so does its complement.
    """
    w = cd.word
    m = len(w)
    if cd.n < 2:
        return None
    # an interval is closed under the pairing exactly when every label occurs
    # in it an even number of times, i.e. when its prefix XORs agree
    ww = w + w
    pref = [0]
    for x in ww:
        pref.append(pref[-1] ^ (1 << x))
    for start in range(m):
        for end in range(start + 2, start + m - 1, 2):
            if pref[end] == pref[start]:
                return (
                    ChordDiagram._of_normal(_relabel(ww[start:end])),
                    ChordDiagram._of_normal(_relabel(ww[end : start + m])),
                )
    return None
