"""Reduction moves 1b and s2b, and membership in the class S.

1b deletes the crossing at a monogon; s2b deletes the two crossings of a
strong 2-gon.  Both act on the embedded curve they are given, by map
surgery: the deleted crossings leave, every other crossing keeps its local
rotation, and one face trace rebuilds the faces.  So the result of a move
depends only on the curve and the set of crossings it deletes.

S is the class of curves reducible to the simple closed curve U using only
these two moves.  One greedy run decides it: take the first applicable
move until none applies; the curve is in S exactly when the run ends at U.
This follows from Newman's lemma (M. H. A. Newman, "On theories with a
combinatorial definition of 'equivalence'", Ann. of Math. 43, 1942).  Every
move deletes crossings, so every run terminates.  Local confluence is left
to show: when two different moves apply to a curve P, the two results can be
reduced to one common curve.  The site of a move is the set of corners of
its face, which is also the set of crossings it deletes.

* Disjoint sites commute.  A face with no corner at a deleted crossing has
  none of its edges there either (each edge of a face joins two of its
  corners), and the surviving crossings keep their rotations, so the face
  keeps its boundary and its corners.  Whether two chords interleave depends
  only on their own four endpoints, so a strong 2-gon stays strong when
  other chords are deleted.  Hence each move still applies after the other,
  and both orders delete the same set from P.
* 1b@v and s2b@(v, w).  Each corner of v lies between one dart of each of
  its passages, and the two corners beside the monogon's corner belong to
  the face that runs around the outside of the loop, which meets v twice.
  A 2-gon with corners v and w meets v once, so it is the corner opposite
  the monogon, and both its edges run to w: the word reads w v v w
  cyclically.  After 1b@v the word reads w w, the 2-gon has lost its corner
  at v, and w bounds a monogon.  1b@w then deletes {v, w}, the set s2b@(v, w)
  deletes.
* s2b@(a, b) and s2b@(b, c), a != c.  Two faces at b that shared an edge
  would have the other end of that edge, a or c, as a corner of both, so the
  two 2-gons sit at opposite corners of b.  At a crossing only the two
  corners that pair the in-dart of one passage with the out-dart of the
  other can hold a strong 2-gon (the other two give the parallel pattern
  a b .. a b), so the word reads c b a X a b c Y cyclically: two strands
  meet at c, b and a in turn, and the 2-gons lie between consecutive
  meetings.  Deleting {a, b} leaves c X c Y and deleting {b, c} leaves
  a X a Y, the same cyclic word with the remaining crossing where the twist
  was.  Along such a twist the second strand crosses the first alternately
  from its left and from its right, so a and c cross in the same direction
  and the remaining crossing has the same rotation in both results: the two
  results are the same curve.

So every curve has one normal form, the curve reached when no move
applies, and it is U exactly when some sequence of moves reaches U.  The
tests check every overlapping pair of moves on every embedding with n <= 7.

A :class:`~knotproj.planar.PlanarCurve` is its normalized word and its flip
mask (``p.flips``), so the greedy run carries just those two and builds a
curve, with its one face trace, only when it must look up a 2-gon.

* A monogon is exactly a loop edge, a label at two cyclically adjacent
  positions, whatever the flips.  A degree-1 face is one dart whose edge
  returns to its own crossing.  Conversely, a loop edge leaves one passage
  of v on out1 and enters the other on in2 (or leaves on out2 and enters on
  in1, when it wraps around the word's end), and both admissible rotations,
  (in1, in2, out1, out2) and (in1, out2, out1, in2), put those two darts
  next to each other, so the loop bounds a face of degree 1.  When the word
  has a loop edge, the first applicable move is therefore 1b at the
  smallest such label, and no face is needed to find it.
* Deleting crossings keeps every survivor's flip and relabels the survivors
  by rank (:func:`planar._drop_labels`), and a curve is fixed by its word
  and flip mask.  So the curve built from the carried word and mask once the
  word has no loop edge is the curve that a face trace after every move
  would have reached, and it has the same 2-gons.

Only the starting curve, which the caller built, is asked for its moves
directly.  The tests compare the run with a face trace after every move on
every embedding with n <= 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import planar
from .chords import ChordDiagram, canonicalize, count_tr
from .errors import InapplicableMove, PreconditionTripleChord, TheoremViolation
from .planar import PlanarCurve, U

__all__ = [
    "Move",
    "ReductionTrace",
    "applicable_moves",
    "apply_move",
    "reduce_no_triple",
    "in_S",
]


@dataclass(frozen=True)
class Move:
    """A single reduction move: kind "1b" with site (v,), or "s2b" with (a, b)."""

    kind: str
    site: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}@{','.join(map(str, self.site))}"


@dataclass(frozen=True)
class ReductionTrace:
    """A witness reduction: the codes visited and the moves taken.

    ``steps`` pairs each move with the canonical diagram it produced; the
    trace serializes to a JSON array of {move, site, code} records, each code
    as its text.
    """

    start: ChordDiagram
    steps: tuple[tuple[Move, ChordDiagram], ...]
    terminal: ChordDiagram

    def to_json_obj(self) -> list[dict]:
        return [
            {"move": mv.kind, "site": list(mv.site), "code": str(code)}
            for mv, code in self.steps
        ]


def applicable_moves(p: PlanarCurve) -> list[Move]:
    """Every applicable move, 1b sites first, each site listed once, ascending."""
    ones = sorted({f.corners[0] for f in planar.monogons(p)})
    twos = sorted({tuple(sorted(f.corners)) for f in planar.strong_bigons(p)})
    return [Move("1b", (v,)) for v in ones] + [Move("s2b", ab) for ab in twos]


def apply_move(p: PlanarCurve, move: Move) -> PlanarCurve:
    """Apply one currently-applicable move to the embedded curve ``p``."""
    if move not in applicable_moves(p):
        raise InapplicableMove(f"{move} is not applicable to {p!r}")
    return planar._delete_vertices(p, move.site)


def _first_loop(word: tuple[int, ...]) -> int:
    """The smallest label at two cyclically adjacent positions, or 0."""
    return min((x for x, y in zip(word, word[1:] + word[:1]) if x == y), default=0)


def _reduce(p: PlanarCurve) -> tuple[list[tuple[Move, tuple[int, ...]]], PlanarCurve]:
    """Take the first applicable move until none applies.

    Returns the (move, word) steps and the curve where the run stopped: U,
    or a curve that admits no move.  A curve is built, with one face trace,
    only when the word has no monogon; see the module docstring.
    """
    steps = []
    word, mask = p.word, p.flips
    cur = p  # the curve of (word, mask) once built; the start is asked as given
    while word:
        v = _first_loop(word) if cur is None else 0
        if v:
            move = Move("1b", (v,))
        else:
            if cur is None:
                cur = planar._embed(word, mask)
            # looked up at run time, so a wrapper installed on the name applies
            ms = applicable_moves(cur)
            if not ms:
                return steps, cur
            move, cur = ms[0], None
        word, mask = planar._drop_labels(word, mask, move.site)
        steps.append((move, word))
    return steps, U


def _trace(
    p: PlanarCurve, steps: list[tuple[Move, tuple[int, ...]]]
) -> ReductionTrace:
    """The witness of a run that reached U, each code canonicalized once."""
    start = canonicalize(p.code)
    coded = tuple(
        (mv, canonicalize(ChordDiagram._of_normal(word))) for mv, word in steps
    )
    return ReductionTrace(
        start=start, steps=coded, terminal=coded[-1][1] if coded else start
    )


def _reaches_U(p: PlanarCurve) -> bool:
    """The verdict of :func:`in_S` alone, with no witness built."""
    return _reduce(p)[1].n == 0


def reduce_no_triple(p: PlanarCurve) -> ReductionTrace:
    """Greedily reduce a triple-chord-free curve all the way to U.

    The move taken at each step is the first applicable one (1b before s2b,
    smallest site first), making the trace reproducible.  A triple-chord-free
    curve with crossings always admits a move; if that ever failed,
    :class:`TheoremViolation` would report the counterexample.
    """
    if count_tr(p.code):
        raise PreconditionTripleChord(
            f"curve {str(canonicalize(p.code))!r} contains a triple chord"
        )
    steps, cur = _reduce(p)
    if cur.n:
        raise TheoremViolation(
            f"no 1b/s2b move applies to triple-chord-free curve "
            f"{str(canonicalize(cur.code))!r}"
        )
    return _trace(p, steps)


def in_S(p: PlanarCurve) -> tuple[bool, ReductionTrace | None]:
    """Decide membership in S; on success also return a witness trace.

    One greedy run (see the module docstring for why it decides membership):
    the curve is in S exactly when the run reaches U, and the run is the
    witness.
    """
    steps, cur = _reduce(p)
    if cur.n:
        return False, None
    return True, _trace(p, steps)
