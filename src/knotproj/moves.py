"""Reduction moves 1b and s2b, and membership in the class S.

1b deletes the crossing at a monogon; s2b deletes the two crossings of a
strong 2-gon.  Both act on the embedded curve they are given, by map
surgery: the deleted crossings leave and every other crossing keeps its
local rotation.  No face is walked to check the result.  A small disk round
the face meets the rest of the curve in two arc ends for a monogon and four
for a strong 2-gon with corners a and b; round the disk these read out of
a, into a, out of b, into b, and the curve links "into a" to "out of b" and
"into b" to "out of a".  Joining the linked ends inside the disk takes one
arc, or two between neighbouring ends, which need not cross, so the result
is drawn on the same sphere.  So a move's result depends only on the curve
and the set of crossings it deletes, and the moves check only the curve
they are given, which the constructor does not (:func:`_check_spherical`).

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

A curve's moves are read one way, by :func:`applicable_moves` and the
greedy run alike, with no :class:`~knotproj.planar.Face` built and no face
walked.  A curve is its normalized word and its flip mask, so the run
carries just those two and builds no curve and no interlacement core while
it looks for a move.

* A monogon is exactly a loop edge, a label at two cyclically adjacent
  positions, whatever the flips.  A degree-1 face is one dart whose edge
  returns to its own crossing.  Conversely, a loop edge leaves one passage
  of v on out1 and enters the other on in2 (or leaves on out2 and enters on
  in1, when it wraps around the word's end), and both admissible rotations,
  (in1, in2, out1, out2) and (in1, out2, out1, in2), put those two darts
  next to each other, so the loop bounds a face of degree 1.  So the 1b
  sites are the word's loop edges (:func:`_loops`), read with no face
  walked.
* The run deletes every monogon in one pass (:func:`_curls`).  Two 1b
  moves sit at different crossings, so they commute, and repeated 1b
  deletes one set of crossings whatever the order.  A stack pass pops a
  label when it meets its partner on top, a 1b on the word read as a line;
  then equal labels come off the two ends, which are cyclically adjacent.
  Each deletion is a 1b and no loop is left, so the pass deletes that set,
  and one :func:`planar._drop_labels` call reaches the state that 1b at
  the smallest loop, one move at a time, reaches (:func:`_spell`).
* A strong 2-gon is read off the word, its first positions and the flips
  (:func:`planar._strong_sites`); a run state's first positions take one
  scan of its word.  Its edges run a -> b and b -> a, a != b,
  at four distinct positions: a shared one would put a corner of the face
  between the in- and out-dart of one passage, which are opposite in both
  rotations.  So the word reads a b X b a Y cyclically, and a normalized
  word, which starts at 1, reads ``a a+1 .. a+1 a`` (nested: adjacent first
  occurrences are consecutive labels) unless it starts inside one of the
  two edges, ``1 .. 1 b .. b`` with b = ``word[-1]`` (wrapped).  Either
  pattern fixes its two edges.  By :func:`planar._face_step`, with a at p
  and q + 1 and b = a + 1 at p + 1 and q in the nested pattern, step[2p]
  is 2q exactly when flip[b] = 1 and step[2q] is 2p exactly when
  flip[a] = 0; step[2p + 1] is 2q + 1 exactly when flip[a] = 1 and
  step[2q + 1] is 2p + 1 exactly when flip[b] = 0; no other step joins the
  two edges.  So they bound a face exactly when the flips differ.  In the
  wrapped pattern, with 1 at 0 and s and b at s + 1 and m - 1, the same
  reading gives 2s <-> 2m - 2 when both flips are 1 and 2s + 1 <-> 2m - 1
  when both are 0: a face exactly when the flips are equal.
* Deleting crossings keeps every survivor's flip and relabels the survivors
  by first occurrence, each flip bit moving with its label
  (:func:`planar._drop_labels`), and a curve is fixed by its word and flip
  mask.  So the carried word and mask are the curve that a face
  trace after every move would have reached, with the same moves.

The run builds no curve: it returns its end state, the (word, flip mask)
where it stopped, and a caller that wants that curve embeds it
(:func:`planar._embed`).  By the argument above the end state is the
curve's normal form, and it is U, ``((), 0)``, exactly when the curve is in
S.  The tests compare the run with a face trace after every move on every
embedding with n <= 7.

Every run keeps a table from loop-free (word, flip mask) states, the
states its passes leave, to the end state of the run from that state.
:func:`_reduce` stops at the first loop-free state the table holds, with
that state's end, and maps every loop-free state it passed to its end.
The states between the 1b moves of one pass are never keys.  The
``enumerate``, ``analyze`` and ``verify`` commands each pass all their runs
one table: the ``enumerate`` sweep, the one code or the codes of one
``--in`` file of ``analyze``, and the one census pass of ``verify``, whose
inclusion-chain and main-theorem checks share it.  A call with no table, as
:func:`in_S` and :func:`reduce_no_triple` make, gets a fresh one.

* The table is exact because the run is deterministic, not because of
  Newman's lemma.  The next loop-free state is a function of the current
  one alone: the smallest strong site of the state's word and flips, then
  :func:`planar._drop_labels`, then the pass.  Both the word and the mask
  are normalized, so two runs that reach one state go on identically from
  it, and a state's end does not depend on the path that led there.
  Confluence is what makes that end the normal form, and whether it is U
  the answer to membership in S; the table only reuses runs.
* A table lives for one sweep.  Its end states hold for the move rules that
  computed them, and it is never kept at module level or on a curve: a
  table that outlived its command would answer a later one under a
  patched strongness rule, a mutation test for instance, with the old
  rule's end states.
"""

from __future__ import annotations

from typing import NamedTuple

from . import chords, planar
from .chords import ChordDiagram, canonicalize, count_tr
from .errors import (
    InapplicableMove,
    NotRealizable,
    PreconditionTripleChord,
    TheoremViolation,
)
from .planar import PlanarCurve

__all__ = [
    "Move",
    "ReductionTrace",
    "applicable_moves",
    "apply_move",
    "reduce_no_triple",
    "in_S",
]


class Move(NamedTuple):
    """A single reduction move: kind "1b" with site (v,), or "s2b" with (a, b).

    Its text is ``kind@site``, the site's labels joined by commas; a site
    that is not a tuple or list prints as a one-label site, so
    ``Move("1b", 1)`` reads ``1b@1``.
    """

    kind: str
    site: tuple[int, ...]

    def __str__(self) -> str:
        site = self.site if isinstance(self.site, (tuple, list)) else (self.site,)
        return f"{self.kind}@{','.join(map(str, site))}"


class ReductionTrace(NamedTuple):
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
    """Every applicable move, 1b sites first, each site listed once, ascending,
    read as the greedy run reads them (see the module docstring); a curve
    whose mask is not spherical raises (:func:`_check_spherical`)."""
    _check_spherical(p)
    ones = sorted(_loops(p.word))
    twos = planar._strong_sites(p.word, p.flips, p.code._firsts)
    return [Move("1b", (v,)) for v in ones] + [Move("s2b", ab) for ab in twos]


def apply_move(p: PlanarCurve, move: Move) -> PlanarCurve:
    """Apply one currently-applicable move to the embedded curve ``p``.

    The map is edited, not re-realized: :func:`planar._drop_labels` keeps
    every surviving crossing's flip, and the result is not walked (the
    module docstring says why).  Any value equal to an applicable move, a
    plain (kind, site) tuple too, is applied as that move; any other raises
    :class:`InapplicableMove`.
    """
    moves = applicable_moves(p)
    if move not in moves:
        shown = move if type(move) is Move else repr(move)
        raise InapplicableMove(f"{shown} is not applicable to {p!r}")
    _, site = move  # a Move, or a plain tuple equal to one
    return planar._embed(*planar._drop_labels(p.word, p.flips, site))


def _check_spherical(p: PlanarCurve) -> None:
    """Raise :class:`NotRealizable` unless ``p``'s kept walk has n + 2 faces
    (free for a realized curve)."""
    if len(p._walk) != p.n + 2:
        word = " ".join(map(str, p.word))
        why = "leaves no spherical map"
        raise NotRealizable(f"flip mask {p.flips:#x} on {word!r} {why}")


def _loops(word: tuple[int, ...]) -> set[int]:
    """The labels at two cyclically adjacent positions: the monogons' corners."""
    return {x for x, y in zip(word, word[1:] + word[:1]) if x == y}


def _curls(word: tuple[int, ...]) -> list[int]:
    """The labels repeated 1b deletes from ``word``: a stack pass, then the
    two ends (the module docstring says why)."""
    drop, stack = [], [0]  # 0, no label, stands under the stack
    for x in word:
        if stack[-1] == x:
            drop.append(stack.pop())
        else:
            stack.append(x)
    i, j = 1, len(stack) - 1
    while i < j and stack[i] == stack[j]:
        drop.append(stack[i])
        i, j = i + 1, j - 1
    return drop


def _reduce(
    p: PlanarCurve, table: dict | None = None
) -> tuple[list[Move], tuple[tuple[int, ...], int]]:
    """Delete every monogon, then take the smallest s2b, until neither applies.

    Returns the s2b moves taken and the run's end state, the (word, flip
    mask) where it stopped: ``((), 0)`` for U, or the first state that admits
    no move.  The module docstring says what the run carries and why it
    walks no face; :func:`_spell` lists the single moves.

    ``table`` maps each loop-free (word, flip mask) state an earlier run
    passed to that run's end state.  The run stops at the first loop-free
    state the table holds, with that state's end, and maps every loop-free
    state it passed to its end; U is never a key.  With no table the run
    gets a fresh one, so it takes every step.
    """
    _check_spherical(p)
    if table is None:
        table = {}
    taken = []
    passed = []
    word, mask = p.word, p.flips
    end = (), 0
    while word:
        curls = _curls(word)
        if curls:
            word, mask = planar._drop_labels(word, mask, curls)
            if not word:
                break
        if (word, mask) in table:
            end = table[word, mask]
            break
        passed.append((word, mask))
        sites = planar._strong_sites(word, mask, chords._first_positions(word))
        if not sites:
            end = word, mask
            break
        move = Move("s2b", sites[0])
        taken.append(move)
        word, mask = planar._drop_labels(word, mask, move.site)
    table.update(dict.fromkeys(passed, end))
    return taken, end


def _spell(
    word: tuple[int, ...], taken: list[Move]
) -> list[tuple[Move, tuple[int, ...]]]:
    """The single moves, each with the word it reached, of the run from
    ``word`` that took the s2b moves ``taken``: 1b at the smallest loop while
    one is left, else the run's next s2b, never a site chosen here."""
    steps = []
    pending = iter(taken)
    while word:
        loops = _loops(word)
        move = Move("1b", (min(loops),)) if loops else next(pending, None)
        if move is None:
            break
        word = planar._drop_labels(word, 0, move.site)[0]
        steps.append((move, word))
    return steps


def _trace(p: PlanarCurve, taken: list[Move]) -> ReductionTrace:
    """The witness of a run that reached U, each code canonicalized once."""
    start = canonicalize(p.code)
    coded = tuple(
        (mv, canonicalize(ChordDiagram._of_normal(word)))
        for mv, word in _spell(p.word, taken)
    )
    return ReductionTrace(
        start=start, steps=coded, terminal=coded[-1][1] if coded else start
    )


def _reaches_U(p: PlanarCurve, table: dict | None = None) -> bool:
    """The verdict of :func:`in_S` alone, with no witness built.

    ``table`` is :func:`_reduce`'s table of end states, read and written.
    """
    return not _reduce(p, table)[1][0]


def reduce_no_triple(p: PlanarCurve) -> ReductionTrace:
    """Greedily reduce a triple-chord-free curve all the way to U.

    The move taken at each step is the first applicable one (1b before s2b,
    smallest site first), making the trace reproducible.  A triple-chord-free
    curve with crossings always admits a move; if that ever failed,
    :class:`TheoremViolation` would report the counterexample.  A mask that
    is not spherical raises first (:func:`_check_spherical`).
    """
    _check_spherical(p)
    if count_tr(p.code):
        raise PreconditionTripleChord(
            f"curve {str(canonicalize(p.code))!r} contains a triple chord"
        )
    taken, (word, _) = _reduce(p)
    if word:
        raise _stuck(word)
    return _trace(p, taken)


def _stuck(word: tuple[int, ...]) -> TheoremViolation:
    """The counterexample a triple-chord-free run makes if it stops at ``word``."""
    return TheoremViolation(
        f"no 1b/s2b move applies to triple-chord-free curve "
        f"{str(canonicalize(ChordDiagram._of_normal(word)))!r}"
    )


def in_S(p: PlanarCurve) -> tuple[bool, ReductionTrace | None]:
    """Decide membership in S; on success also return a witness trace.

    One greedy run (see the module docstring for why it decides membership):
    the curve is in S exactly when the run reaches U, and the run is the
    witness.
    """
    taken, (word, _) = _reduce(p)
    if word:
        return False, None
    return True, _trace(p, taken)
