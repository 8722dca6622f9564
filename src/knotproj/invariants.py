"""The averaged Conway coefficient a2 of a projection, and its Arnold multiple.

A projection with n crossings has 2**n knot diagrams obtained by choosing an
over/under resolution at every crossing.  For each one, a2 is the z^2
coefficient of the Conway polynomial.  Averaging a2 over all resolutions and
multiplying by 8 gives the projection invariant computed by
:func:`arnold_invariant`; it vanishes on every curve reducible by 1b/s2b
moves.

:func:`average_a2` visits no resolution and reads no embedding.  It is a
sum of signs over interleaved chord pairs, read off the Gauss word and its
interlacement core (``ChordDiagram._bits``) in O(n**2) work.  Its docstring
derives the sum from the based Gauss-diagram formula for a2 (Polyak and
Viro, IMRN 1994; Polyak, Topology 37, 1998) and from the flip relation of
spherical realizations that :mod:`knotproj.planar` propagates (de Fraysseix
and Ossona de Mendez, Discrete Comput. Geom. 22, 1999).  The derivation also
shows why every embedding of one code has the same invariant.

:class:`Resolution`, :func:`resolve` and :func:`a2_gauss_formula` evaluate
a2 on a single resolution of an embedded curve, from its crossing signs.
Nothing in the package calls them.  The tests hold the formula against a
skein-relation evaluator and the pair sum against the formula's average over
all resolutions, and the benchmark's tracer counts calls to
:func:`a2_gauss_formula`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import planar
from .planar import PlanarCurve

__all__ = [
    "Resolution",
    "resolve",
    "a2_gauss_formula",
    "average_a2",
    "arnold_invariant",
    "format_rational",
    "parse_rational",
]


@dataclass(frozen=True)
class Resolution:
    """One over/under choice per crossing of a realized curve.

    ``over_under[v-1]`` is True when the strand of the *first* code
    occurrence of v goes over.  ``signs[v-1]`` is the crossing sign derived
    from the rotation system, the traversal orientation and the over/under
    bit; flipping a bit flips exactly that sign.  The global handedness
    convention cancels out of everything computed here (a2 is mirror
    invariant), which the tests verify.
    """

    base: PlanarCurve
    over_under: tuple[bool, ...]
    signs: tuple[int, ...]


def _crossing_sign(
    rotation: tuple[int, int, int, int],
    darts: tuple[int, int, int, int],
    first_over: bool,
) -> int:
    in1, out1, in2, out2 = darts
    over_out = out1 if first_over else out2
    under_in = in2 if first_over else in1
    return 1 if rotation.index(under_in) == (rotation.index(over_out) + 1) % 4 else -1


def resolve(p: PlanarCurve, over_under: tuple[bool, ...]) -> Resolution:
    """Build the resolution of ``p`` with the given over/under bits."""
    if len(over_under) != p.n:
        raise ValueError(f"expected {p.n} bits, got {len(over_under)}")
    table = planar._vertex_dart_table(p.word)
    signs = tuple(
        _crossing_sign(p.rotations[v - 1], table[v], over_under[v - 1])
        for v in range(1, p.n + 1)
    )
    return Resolution(base=p, over_under=tuple(bool(b) for b in over_under), signs=signs)


# Arrow-pair pattern of the based-diagram formula: over the four endpoint
# positions p1 < p2 < p3 < p4 of an interleaved crossing pair (first crossing
# owns p1 and p3), a pair is counted when p1 is the first crossing's over
# passage and p2 is the second crossing's under passage.  The tests pin it
# against a skein-relation evaluator over every resolution and base point.
_PV_FIRST_UNDER = False
_PV_SECOND_UNDER = True


def a2_gauss_formula(r: Resolution, base: int = 0) -> int:
    """a2 via sign products over interleaved arrow pairs of the based diagram.

    The value is independent of ``base``; tests assert this for every base
    point.  Must agree with the skein relation everywhere.
    """
    word = r.base.word
    m = len(word)
    if m == 0:
        return 0
    n = r.base.n
    under_walk = [0] * (n + 1)
    over_walk = [0] * (n + 1)
    first: dict[int, int] = {}
    for t, v in enumerate(word):
        w = (t - base) % m
        if v not in first:
            first[v] = t
            over = r.over_under[v - 1]
        else:
            over = not r.over_under[v - 1]
        if over:
            over_walk[v] = w
        else:
            under_walk[v] = w
    total = 0
    for v in range(1, n + 1):
        for u in range(v + 1, n + 1):
            quad = sorted(
                (
                    (under_walk[v], v, False),
                    (over_walk[v], v, True),
                    (under_walk[u], u, False),
                    (over_walk[u], u, True),
                )
            )
            if quad[0][1] != quad[2][1]:
                continue
            first_is_under = not quad[0][2]
            second_is_under = not quad[1][2]
            if first_is_under == _PV_FIRST_UNDER and second_is_under == _PV_SECOND_UNDER:
                total += r.signs[quad[0][1] - 1] * r.signs[quad[1][1] - 1]
    return total


def average_a2(p: PlanarCurve) -> Fraction:
    """Exact average of a2 over all 2**n resolutions, read from the word alone.

    Only ``p.word`` and its interlacement core ``p.code._bits`` are read.
    Over the interleaved pairs a, b with first[a] < first[b] < second[a] <
    second[b] (code positions; with labels by first occurrence these are the
    interleaved pairs with a < b) the result is the sum of

        (-1) ** (first[b] - first[a] + |N(a) & N(b)|),

    divided by 4, where N is the interlacement neighbourhood.

    Why.  In :func:`a2_gauss_formula` with base point 0 such a pair counts
    in exactly one of its 4 over/under bit combinations, the arrow pattern
    ``_PV_*`` (a's first passage over, b's first passage under), and there
    it adds sign(a) * sign(b).  Every other bit is free, so the pair adds a
    quarter of that product to the average.  The product is read off the
    word in two steps.

    1. sign(a) * sign(b) = (-1) ** (1 + flip[a] + flip[b]) in that pattern.
       Vertex v has darts in1, out1, in2, out2; flip 0 orders them (in1,
       in2, out1, out2) and flip 1 (in1, out2, out1, in2)
       (``planar._rotation_for``).  A crossing's sign is +1 when the under
       strand's in-dart follows the over strand's out-dart.  With a's first
       passage over, that asks whether in2 follows out1, which holds only
       for flip 1: sign(a) = (-1) ** (1 + flip[a]).  With b's first passage
       under, it asks whether in1 follows out2, which holds only for flip 0:
       sign(b) = (-1) ** flip[b].
    2. Every spherical realization satisfies flip[a] ^ flip[b] = (g +
       |N(a) & N(b)|) mod 2 for interleaved a and b, with g = first[b] -
       first[a] - 1 the number of positions strictly between their first
       occurrences (``planar._flip_coset``).  As 1 + g = first[b] -
       first[a], the exponent of step 1 has the parity of first[b] -
       first[a] + |N(a) & N(b)|.

    The term depends on the word alone, so every embedding of a code has the
    same average.
    """
    bits = p.code._bits
    first = []  # first[v - 1]: position of v's first occurrence
    for t, v in enumerate(p.word):
        if v > len(first):
            first.append(t)
    total = 0
    for a, row in enumerate(bits):
        for b in range(a + 1, len(bits)):
            if row >> b & 1:
                parity = first[b] - first[a] + (row & bits[b]).bit_count()
                total += -1 if parity & 1 else 1
    return Fraction(total, 4)


def arnold_invariant(p: PlanarCurve) -> Fraction:
    """Eight times the averaged a2 (an integer-valued invariant in practice)."""
    return 8 * average_a2(p)


def format_rational(q: Fraction) -> str:
    """Serialize exactly: "p/q", or just "k" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" / "k" syntax; raises ValueError on anything else."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, sep, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if sep else Fraction(int(num))
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
