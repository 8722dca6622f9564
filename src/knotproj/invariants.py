"""The Arnold invariant of a projection, and a2 on a single resolution.

A projection with n crossings has 2**n knot diagrams obtained by choosing an
over/under resolution at every crossing.  For each one, a2 is the z^2
coefficient of the Conway polynomial.  Averaging a2 over all resolutions and
multiplying by 8 gives the projection invariant computed by
:func:`arnold_invariant`, an even integer; it vanishes on every curve
reducible by 1b/s2b moves.

:func:`arnold_invariant` visits no resolution and walks no face.  It is 2
times a sum of signs over interleaved chord pairs, one sign per pair read off
the two flip bits of the curve's mask, with the pairs taken from the
interlacement core (``ChordDiagram._bits``) one row at a time.  Its
docstring derives the sum from the based Gauss-diagram formula for a2 (Polyak
and Viro, IMRN 1994; Polyak, Topology 37, 1998) and the sign rule of
:class:`Resolution`, which hold for any mask.  That every embedding of one
code has the same invariant follows from the component structure of the
spherical masks, which ``planar._flip_coset`` propagates by the flip relation
(de Fraysseix and Ossona de Mendez, Discrete Comput. Geom. 22, 1999).

:class:`Resolution`, :func:`resolve` and :func:`a2_gauss_formula` evaluate
a2 on a single resolution of an embedded curve, from its crossing signs.
Nothing in the package calls them.  The tests hold the formula against a
skein-relation evaluator and the pair sum against 8 times the formula's
average over all resolutions, and the benchmark's tracer counts calls to
:func:`a2_gauss_formula`.
"""

from __future__ import annotations

from typing import NamedTuple

from .planar import PlanarCurve

__all__ = [
    "Resolution",
    "resolve",
    "a2_gauss_formula",
    "arnold_invariant",
]


class Resolution(NamedTuple):
    """One over/under choice per crossing of a realized curve.

    ``over_under[v-1]`` is True when the strand of the *first* code
    occurrence of v goes over.  ``signs[v-1]`` is the crossing sign: -1
    exactly when ``over_under[v-1]`` differs from v's flip bit, so flipping
    either bit flips exactly that sign.  The global handedness convention
    cancels out of everything computed here (a2 is mirror invariant), which
    the tests verify.

    Why.  Vertex v has darts in1, out1 of its first passage and in2, out2 of
    its second; flip 0 orders them (in1, in2, out1, out2) and flip 1 (in1,
    out2, out1, in2) (``planar._face_step``).  A crossing's sign is +1 when
    the under strand's in-dart follows the over strand's out-dart.  With the
    first passage over, that asks whether in2 follows out1, which holds only
    at flip 1; with the first passage under, whether in1 follows out2, which
    holds only at flip 0.
    """

    base: PlanarCurve
    over_under: tuple[bool, ...]
    signs: tuple[int, ...]


def resolve(p: PlanarCurve, over_under: tuple[bool, ...]) -> Resolution:
    """Build the resolution of ``p`` with the given over/under bits.

    Crossing v's sign is -1 exactly when ``over_under[v-1] ^ flip[v]`` is
    set (the rule :class:`Resolution` derives); no dart is read.
    """
    if len(over_under) != p.n:
        raise ValueError(f"expected {p.n} bits, got {len(over_under)}")
    bits = tuple(bool(b) for b in over_under)
    signs = tuple(-1 if (p.flips >> k & 1) ^ b else 1 for k, b in enumerate(bits))
    return Resolution(base=p, over_under=bits, signs=signs)


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
    firsts = r.base.code._firsts
    for t, v in enumerate(word):
        w = (t - base) % m
        if r.over_under[v - 1] == (t == firsts[v - 1]):
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


def arnold_invariant(p: PlanarCurve) -> int:
    """Eight times the average of a2 over all 2**n resolutions, from the mask.

    Only ``p.flips`` and the interlacement core ``p.code._bits`` are read.
    Over the interleaved pairs a, b with first[a] < first[b] < second[a] <
    second[b] (code positions; with labels by first occurrence these are the
    interleaved pairs with a < b) the result is the sum of

        (-1) ** (1 + flip[a] + flip[b]),

    +1 when the two flips differ and -1 when they match, times 2.

    Why.  In :func:`a2_gauss_formula` with base point 0 such a pair counts
    in exactly one of its 4 over/under bit combinations, the arrow pattern
    ``_PV_*`` (a's first passage over, b's first passage under), and there
    it adds sign(a) * sign(b).  Every other bit is free, so the pair adds a
    quarter of that product to the average, and twice the product to 8
    times the average.  The product is read off the mask in two steps.

    1. sign(a) * sign(b) = (-1) ** (1 + flip[a] + flip[b]) in that pattern.
       A sign is -1 exactly when the first passage's over bit differs from
       the flip (:class:`Resolution` derives this rule), so with a's first
       passage over sign(a) = (-1) ** (1 + flip[a]), and with b's first
       passage under sign(b) = (-1) ** flip[b].  This holds for any mask.
    2. The value is the same for every embedding of a code.  Interleaved
       chords lie in one component of the interlacement graph, and
       mirroring a component toggles the flips of all its chords, both of
       the pair's among them, so it keeps their XOR.  The spherical masks
       of a code are one mask XOR any set of components
       (``planar._flip_coset``), so every one gives the same sum.

    Each chord a counts its interleaved chords b > a at once: the row of a
    above bit a, against the flips XOR a's own flip spread over every bit.
    """
    bits = p.code._bits
    flips = p.flips
    total = 0
    for a, row in enumerate(bits):
        above = row >> (a + 1) << (a + 1)
        differ = above & (flips ^ -(flips >> a & 1))
        total += 2 * differ.bit_count() - above.bit_count()
    return 2 * total
