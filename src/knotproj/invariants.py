"""Crossing resolutions, the Conway coefficient a2, and the averaged invariant.

A projection with n crossings has 2**n knot diagrams obtained by choosing an
over/under resolution at every crossing.  For each one, a2 is the z^2
coefficient of the Conway polynomial.  Averaging a2 over all resolutions and
multiplying by 8 gives the projection invariant computed by
:func:`arnold_invariant`; it vanishes on every curve reducible by 1b/s2b
moves.

:func:`average_a2` never enumerates resolutions.  The based Gauss-diagram
formula for a2 (Polyak and Viro, IMRN 1994; Polyak, Topology 37, 1998) is a
sum over interleaved chord pairs, and each pair's term depends only on the
over/under bits of its own two crossings.  The average over 2**n resolutions
is therefore an exact sum over pairs of the term averaged over its 4 bit
combinations: O(n**2) work.

The resolution-level routes are kept as oracles for that sum:

* :func:`resolutions` and :func:`resolve` build the individual knot diagrams.
* :func:`a2_skein` resolves crossings through the skein relation
  nabla(L+) - nabla(L-) = z * nabla(L0) until the diagrams are descending;
  it is the semantic definition.
* :func:`a2_gauss_formula` sums sign products over interleaved arrow pairs of
  one based diagram; it must agree with the skein value everywhere and for
  every base point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import planar
from .errors import SimplificationStuck
from .planar import PlanarCurve

__all__ = [
    "Resolution",
    "resolutions",
    "resolve",
    "a2_skein",
    "a2_gauss_formula",
    "average_a2",
    "arnold_invariant",
    "format_rational",
    "parse_rational",
]

_NODE_BUDGET = 1_000_000


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


def resolutions(p: PlanarCurve) -> Iterator[Resolution]:
    """All 2**n resolutions, in bit-counter order (bit v-1 belongs to vertex v)."""
    for mask in range(1 << p.n):
        bits = tuple(bool((mask >> k) & 1) for k in range(p.n))
        yield resolve(p, bits)


# --- skein recursion ------------------------------------------------------
#
# Link diagrams inside the recursion are lists of components, each a list of
# (crossing, over) passages in traversal order, plus a sign per crossing.
# The two passages of a crossing always carry complementary flags.  Smoothing
# and the Reidemeister deletions below only ever rewire passages, so the
# planarity of the starting diagram is preserved throughout.


def _is_split(comps: list[list[tuple[int, bool]]]) -> bool:
    k = len(comps)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    where: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for c, _ in comp:
            if c in where:
                a, b = find(where[c]), find(ci)
                parent[a] = b
            else:
                where[c] = ci
    return len({find(i) for i in range(k)}) > 1


def _reduce_r1(comps, signs) -> bool:
    for comp in comps:
        m = len(comp)
        if m < 2:
            continue
        for i in range(m):
            j = (i + 1) % m
            if i != j and comp[i][0] == comp[j][0]:
                c = comp[i][0]
                for k in sorted((i, j), reverse=True):
                    del comp[k]
                del signs[c]
                return True
    return False


def _reduce_r2(comps, signs) -> bool:
    adj = []
    for ci, comp in enumerate(comps):
        m = len(comp)
        if m < 2:
            continue
        for i in range(m):
            j = (i + 1) % m
            if i == j:
                continue
            adj.append((ci, i, j, comp[i][0], comp[j][0], comp[i][1], comp[j][1]))
    for a in range(len(adj)):
        ci, i1, j1, c, d, o1, o2 = adj[a]
        if c == d or o1 != o2:
            continue
        for b in range(a + 1, len(adj)):
            cj, i2, j2, e, f, _, _ = adj[b]
            if {e, f} != {c, d}:
                continue
            p1 = {(ci, i1), (ci, j1)}
            p2 = {(cj, i2), (cj, j2)}
            if p1 & p2:
                continue
            # flags on the other strand are complementary by invariant
            removals: dict[int, list[int]] = {}
            for comp_i, pos in p1 | p2:
                removals.setdefault(comp_i, []).append(pos)
            for comp_i, poss in removals.items():
                for pos in sorted(poss, reverse=True):
                    del comps[comp_i][pos]
            del signs[c]
            del signs[d]
            return True
    return False


def _smooth(comps, signs, c):
    comps = [list(comp) for comp in comps]
    signs = dict(signs)
    hits = [
        (ci, i)
        for ci, comp in enumerate(comps)
        for i, (cc, _) in enumerate(comp)
        if cc == c
    ]
    (c1, a), (c2, b) = hits
    if c1 == c2:
        comp = comps[c1]
        piece1 = comp[a + 1: b]
        piece2 = comp[b + 1:] + comp[:a]
        comps[c1: c1 + 1] = [piece1, piece2]
    else:
        merged = comps[c1][a + 1:] + comps[c1][:a] + comps[c2][b + 1:] + comps[c2][:b]
        comps[c1] = merged
        del comps[c2]
    del signs[c]
    return comps, signs


def _conway(comps, signs, counter) -> dict[int, int]:
    counter[0] += 1
    if counter[0] > _NODE_BUDGET:
        raise SimplificationStuck(
            f"skein recursion exceeded {_NODE_BUDGET} nodes"
        )
    comps = [list(comp) for comp in comps]
    signs = dict(signs)
    while True:
        if any(not comp for comp in comps):
            # a crossing-free circle is split from the rest
            return {0: 1} if len(comps) == 1 else {}
        if len(comps) > 1 and _is_split(comps):
            return {}
        if _reduce_r1(comps, signs):
            continue
        if _reduce_r2(comps, signs):
            continue
        break
    seen: set[int] = set()
    violator = None
    for comp in comps:
        for c, over in comp:
            if c not in seen:
                seen.add(c)
                if not over:
                    violator = c
                    break
        if violator is not None:
            break
    if violator is None:
        # descending: each component an unknot, stacked by first visit
        return {0: 1} if len(comps) == 1 else {}
    s = signs[violator]
    switched = [
        [(c, (not o) if c == violator else o) for c, o in comp] for comp in comps
    ]
    sw_signs = dict(signs)
    sw_signs[violator] = -s
    sm_comps, sm_signs = _smooth(comps, signs, violator)
    poly = dict(_conway(switched, sw_signs, counter))
    for deg, coef in _conway(sm_comps, sm_signs, counter).items():
        poly[deg + 1] = poly.get(deg + 1, 0) + s * coef
    return {deg: coef for deg, coef in poly.items() if coef}


def _knot_diagram(r: Resolution):
    word = r.base.word
    first: dict[int, int] = {}
    comp = []
    for t, v in enumerate(word):
        if v not in first:
            first[v] = t
            over = r.over_under[v - 1]
        else:
            over = not r.over_under[v - 1]
        comp.append((v, over))
    return [comp], {v: r.signs[v - 1] for v in range(1, r.base.n + 1)}


def conway_polynomial(r: Resolution) -> dict[int, int]:
    """Conway polynomial of the resolved diagram as {degree: coefficient}."""
    comps, signs = _knot_diagram(r)
    return _conway(comps, signs, [0])


def a2_skein(r: Resolution) -> int:
    """z^2 coefficient of the Conway polynomial, via the skein relation."""
    return conway_polynomial(r).get(2, 0)


# Arrow-pair pattern of the based-diagram formula: over the four endpoint
# positions p1 < p2 < p3 < p4 of an interleaved crossing pair (first crossing
# owns p1 and p3), a pair is counted when p1 is the first crossing's over
# passage and p2 is the second crossing's under passage.  Pinned against
# a2_skein over every resolution and base point at n <= 4; re-validated at
# n <= 5 by the verification suite.
_PV_FIRST_UNDER = False
_PV_SECOND_UNDER = True


def a2_gauss_formula(r: Resolution, base: int = 0) -> int:
    """a2 via sign products over interleaved arrow pairs of the based diagram.

    The value is independent of ``base``; tests assert this for every base
    point.  Must agree with :func:`a2_skein` everywhere.
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
    """Exact average of a2 over all 2**n resolutions, as a sum over chord pairs.

    An interleaved pair a, b (first[a] < first[b] < second[a] < second[b],
    base point 0) contributes to :func:`a2_gauss_formula` in exactly one of
    its 4 bit combinations, the arrow pattern ``_PV_*``, and there it adds
    the product of the two crossing signs.  Every other bit is free, so the
    pair adds a quarter of that product to the average.
    """
    table = planar._vertex_dart_table(p.word)
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for t, v in enumerate(p.word):
        (second if v in first else first)[v] = t
    # each chord's sign with the bit its role in the _PV_* pattern asks for
    sign_a = {
        v: _crossing_sign(p.rotations[v - 1], table[v], not _PV_FIRST_UNDER)
        for v in first
    }
    sign_b = {
        v: _crossing_sign(p.rotations[v - 1], table[v], not _PV_SECOND_UNDER)
        for v in first
    }
    order = list(first)  # chords by first occurrence
    total = 0
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if first[b] > second[a]:
                break
            if second[b] > second[a]:
                total += sign_a[a] * sign_b[b]
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
