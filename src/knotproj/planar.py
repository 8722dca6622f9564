"""Spherical realizations of Gauss codes as combinatorial maps.

A realization is a rotation system on 4n darts.  Traversing the curve, edge t
runs from the t-th code position to the (t+1)-th; its tail dart is 2t and its
head dart is 2t+1, so the edge involution is ``d ^ 1``.  Each vertex is
visited by two strand passages, and transversality forces the in- and
out-dart of one passage to sit opposite each other in the rotation, which
leaves exactly two admissible rotations per vertex, its flip.  A rotation
assignment is a spherical realization exactly when face tracing yields n + 2
orbits (Euler's formula with V = n, E = 2n).

No search over the 2**n flip masks is needed.  By the interlacement-graph
characterization of Gauss codes (Rosenstiehl, C. R. Acad. Sci. Paris 283,
1976; de Fraysseix and Ossona de Mendez, "On a characterization of Gauss
codes", Discrete Comput. Geom. 22, 1999), the flips of interleaved chords a
and b of a spherical realization differ by the parity of g + |N(a) & N(b)|,
with g the number of code positions strictly between their first
occurrences and N the interlacement neighbourhood.  Propagating that rule
over each component of the interlacement graph fixes every flip up to
mirroring whole components, in O(n^2) bit operations; one face trace then
confirms the candidate or shows the code is not spherical.

Faces, monogons, strong 2-gons, teardrop loops and the connected-sum
structure all live here because they need the realized map (or feed it).

A code can admit several inequivalent spherical embeddings (``1 1 2 2``
already has two, with face profiles (1,1,2,4) and (1,1,3,3)), so
face-derived quantities are properties of a realization, not of the code.
:func:`realize` always returns the admissible rotation system with the
smallest flip mask, the one a sweep in ascending mask order would find
first; that deterministic choice is the semantics of every code-level entry
point.  :func:`all_realizations` exposes the full set for callers that want
to quantify over embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import chords
from .chords import ChordDiagram
from .errors import InvalidSite, NoCrossings, NotRealizable

__all__ = [
    "Face",
    "Teardrop",
    "PlanarCurve",
    "U",
    "realize",
    "all_realizations",
    "monogons",
    "strong_bigons",
    "find_teardrops",
    "innermost_teardrop",
    "is_reduced",
    "prime_decompose",
    "connected_sum",
]


@dataclass(frozen=True)
class Face:
    """One face of the realized map.

    ``dart_cycle`` lists the darts of the face-tracing orbit starting from
    the smallest one; ``corners`` gives the vertex passed at each step, so a
    face of degree d has d corners counted with multiplicity.  The two faces
    of U have degree 0 and no corners by convention.
    """

    dart_cycle: tuple[int, ...]
    corners: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.dart_cycle)


@dataclass(frozen=True)
class Teardrop:
    """A simple sub-loop from a crossing back to itself.

    ``origin`` is the crossing C at the loop's corner, ``loop_start`` the code
    position of C where the loop begins, and ``interval`` the code positions
    strictly inside the loop (each label there occurs exactly once, so the
    loop is embedded).  ``boundary_labels`` is (C, P_1, ..., P_2m) in loop
    order.  Walking the complementary arc of the curve meets the boundary
    crossings as Q_1, ..., Q_2m with Q_i = P_{sigma(i)}; ``sigma`` stores
    (sigma(1), ..., sigma(2m)).
    """

    origin: int
    loop_start: int
    interval: tuple[int, ...]
    boundary_labels: tuple[int, ...]
    sigma: tuple[int, ...]


@dataclass(frozen=True)
class PlanarCurve:
    """A Gauss code together with a spherical rotation system.

    ``rotations[v-1]`` is the cyclic dart order at vertex v; ``faces`` is the
    full face list.  The curve's Euler circuit visits the darts in numeric
    order (tail 2t, head 2t+1 for edge t).  A curve from :func:`realize` or
    a move carries the diagram it was built from as ``code``; any other
    curve builds and validates ``code`` once, on first use.
    """

    word: tuple[int, ...]
    rotations: tuple[tuple[int, int, int, int], ...]
    faces: tuple[Face, ...]

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @cached_property
    def code(self) -> ChordDiagram:
        return ChordDiagram(self.word)

    def __repr__(self) -> str:
        return f"PlanarCurve({' '.join(map(str, self.word)) or 'U'!r})"


U = PlanarCurve(word=(), rotations=(), faces=(Face((), ()), Face((), ())))


def _vertex_dart_table(word: tuple[int, ...]) -> dict[int, tuple[int, int, int, int]]:
    """Per vertex: (in1, out1, in2, out2) darts of its two passages."""
    m = len(word)
    occ: dict[int, list[int]] = {}
    for t, v in enumerate(word):
        occ.setdefault(v, []).append(t)
    table = {}
    for v, (t1, t2) in occ.items():
        table[v] = (
            2 * ((t1 - 1) % m) + 1,
            2 * t1,
            2 * ((t2 - 1) % m) + 1,
            2 * t2,
        )
    return table


def _rotation_for(darts: tuple[int, int, int, int], flip: int) -> tuple[int, int, int, int]:
    # transversality: in1 opposite out1, in2 opposite out2; two cyclic orders remain
    in1, out1, in2, out2 = darts
    return (in1, out2, out1, in2) if flip else (in1, in2, out1, out2)


def _trace_faces(
    word: tuple[int, ...], rotations: tuple[tuple[int, int, int, int], ...]
) -> list[Face]:
    m = len(word)
    nd = 2 * m
    succ = [0] * nd
    for rot in rotations:
        for k in range(4):
            succ[rot[k]] = rot[(k + 1) % 4]
    # dart incidence: tail 2t at word[t], head 2t+1 at word[t+1]
    vertex_of = [0] * nd
    for t in range(m):
        vertex_of[2 * t] = word[t]
        vertex_of[2 * t + 1] = word[(t + 1) % m]
    out: list[Face] = []
    seen = [False] * nd
    for start in range(nd):
        if seen[start]:
            continue
        cycle = []
        corners = []
        d = start
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            corners.append(vertex_of[d ^ 1])
            d = succ[d ^ 1]
        out.append(Face(tuple(cycle), tuple(corners)))
    return out


def _flip_coset(cd: ChordDiagram) -> tuple[int, list[int]]:
    """Candidate flip mask and the indicator masks of the interlacement components.

    Bit v-1 of a mask is vertex v's flip.  Flips are propagated through each
    component of the interleavement graph from its smallest label, set to 0:
    for interleaved a and b the flips of a spherical realization satisfy
    flip[a] ^ flip[b] = (g + |N(a) & N(b)|) mod 2, where g counts the code
    positions strictly between the first occurrences of a and b, and N is the
    interleavement neighbourhood.  Flipping a whole component mirrors that
    part of the curve, so when the code is realizable its valid masks are
    exactly the returned mask XOR the span of the component indicators.  Each
    component is then mirrored when its largest label carries flip 1, which
    makes the mask the smallest valid one in numeric (sweep) order.
    """
    adj = cd._bits
    first = [cd.word.index(a) for a in range(1, len(adj) + 1)]
    mask = 0
    seen = 0
    components = []
    for root in range(len(adj)):
        if seen >> root & 1:
            continue
        comp = 1 << root
        seen |= comp
        stack = [root]
        while stack:
            a = stack.pop()
            rest = adj[a] & ~seen
            seen |= rest
            comp |= rest
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                g = abs(first[b] - first[a]) - 1
                if ((mask >> a & 1) + g + (adj[a] & adj[b]).bit_count()) & 1:
                    mask |= low
                stack.append(b)
        if mask >> (comp.bit_length() - 1) & 1:
            mask ^= comp
        components.append(comp)
    return mask, components


def _curve_for_mask(
    cd: ChordDiagram, table: dict[int, tuple[int, int, int, int]], mask: int
) -> PlanarCurve | None:
    """The curve with the given flip mask, or None unless it has n + 2 faces.

    The curve's ``code`` is ``cd`` itself, so it is not validated again and
    keeps the interlacement core ``cd`` has already built.
    """
    n = cd.n
    rotations = tuple(
        _rotation_for(table[v], (mask >> (v - 1)) & 1) for v in range(1, n + 1)
    )
    fl = _trace_faces(cd.word, rotations)
    if len(fl) != n + 2:
        return None
    p = PlanarCurve(cd.word, rotations, tuple(fl))
    p.__dict__["code"] = cd  # fills the cached property
    return p


def _flip_mask(p: PlanarCurve) -> int:
    """The flip mask of ``p``: bit v-1 is set when ``rotations[v-1][1]`` is
    out2, an even (tail) dart, i.e. when v has flip 1."""
    mask = 0
    for i, rot in enumerate(p.rotations):
        if rot[1] % 2 == 0:
            mask |= 1 << i
    return mask


def _drop_labels(
    word: tuple[int, ...], mask: int, drop
) -> tuple[tuple[int, ...], int]:
    """Delete the labels in ``drop`` from a normalized word and its flip mask.

    Survivors are relabeled by rank, which is first-occurrence order again,
    so the word stays normalized, and each survivor keeps its flip bit.
    """
    rank = [0] * (len(word) // 2 + 1)
    kept = 0
    out = 0
    for v in range(1, len(rank)):
        if v in drop:
            continue
        out |= (mask >> (v - 1) & 1) << kept
        kept += 1
        rank[v] = kept
    return tuple([rank[x] for x in word if rank[x]]), out


def _embed(word: tuple[int, ...], mask: int) -> PlanarCurve:
    """The curve with this normalized word and flip mask, after one face trace.

    The word is normal by construction in every caller (:func:`_drop_labels`
    and the reduction loop), so its diagram is not validated again.  Raises
    :class:`NotRealizable` unless the trace gives n + 2 faces.
    """
    if not word:
        return U
    q = _curve_for_mask(ChordDiagram._of_normal(word), _vertex_dart_table(word), mask)
    if q is None:
        raise NotRealizable(
            f"flip mask {mask:#x} on {' '.join(map(str, word))!r} "
            "leaves no spherical map"
        )
    return q


def _delete_vertices(p: PlanarCurve, drop) -> PlanarCurve:
    """The curve left when the crossings in ``drop`` are deleted from ``p``.

    The map is edited, not re-realized: :func:`_drop_labels` keeps every
    survivor's flip, and one face trace rebuilds the faces.  Deleting the
    crossing of a monogon or the two crossings of a 2-gon leaves the rest of
    the curve in place, so the result is the embedded curve the move
    produces.  Raises :class:`NotRealizable` for a vertex set whose deletion
    does not give n + 2 faces.
    """
    return _embed(*_drop_labels(p.word, _flip_mask(p), drop))


def _search_rotations(cd: ChordDiagram) -> PlanarCurve | None:
    """First rotation assignment whose face count is n + 2, in mask order.

    The flip mask comes from :func:`_flip_coset` in O(n^2) bit operations;
    one face trace then confirms it, so a code that passes parity but is not
    spherical still gets None.
    """
    mask, _ = _flip_coset(cd)
    return _curve_for_mask(cd, _vertex_dart_table(cd.word), mask)


def all_realizations(cd: ChordDiagram) -> list[PlanarCurve]:
    """Every accepted rotation assignment in mask order, with no parity prefilter.

    Only the 2**k masks of the coset from :func:`_flip_coset` can be
    spherical (k interlacement components); each is confirmed by its own face
    trace.  Used to check that realization-dependent quantities do not
    actually depend on the realization found first.
    """
    if cd.n == 0:
        return [U]
    base, components = _flip_coset(cd)
    masks = [base]
    for comp in components:
        masks += [m ^ comp for m in masks]
    table = _vertex_dart_table(cd.word)
    found = (_curve_for_mask(cd, table, m) for m in sorted(masks))
    return [p for p in found if p is not None]


def realize(cd: ChordDiagram) -> PlanarCurve:
    """Realize a Gauss code on the sphere, deterministically.

    Raises :class:`NotRealizable` when no transversal rotation system has
    n + 2 faces; the message names the failing parity chord when the cheap
    necessary condition already rules the code out.
    """
    if cd.n == 0:
        return U
    odd = chords.gauss_parity_violations(cd)
    if odd:
        raise NotRealizable(
            f"not realizable (parity fails at chord {odd[0]})", parity_chord=odd[0]
        )
    p = _search_rotations(cd)
    if p is None:
        raise NotRealizable("not realizable (no spherical rotation system)")
    return p


def monogons(p: PlanarCurve) -> list[Face]:
    """Faces of degree 1."""
    return [f for f in p.faces if f.degree == 1]


def strong_bigons(p: PlanarCurve) -> list[Face]:
    """Degree-2 faces with distinct, non-interleaved corner chords.

    A 2-gon face has corners (a, b).  When a == b (the outer face of the
    figure-eight) it is no 2-gon for move purposes.  When the corner chords
    interleave, the code reads a b .. a b .. and the strands run parallel
    through the face: the weak case.  The strong case is the nested pattern
    a b .. b a .. with antiparallel strands, and only those faces admit the
    s2b move.
    """
    out = []
    bits = p.code._bits
    for f in p.faces:
        if f.degree != 2:
            continue
        a, b = f.corners
        if a == b:
            continue
        if not bits[a - 1] >> (b - 1) & 1:
            out.append(f)
    return out


def _cyclic_interior(m: int, s: int, e: int) -> list[int]:
    out = []
    i = (s + 1) % m
    while i != e:
        out.append(i)
        i = (i + 1) % m
    return out


def find_teardrops(p: PlanarCurve) -> list[Teardrop]:
    """All embedded sub-loops based at a crossing.

    One candidate per (vertex, side): the loop from one occurrence of v to
    the other is embedded exactly when no label repeats strictly inside that
    code interval.  Every curve with n >= 1 has at least one (trace the curve
    to the first repeated crossing).  Ordered by vertex, then by side
    (first-to-second occurrence before the wraparound side).
    """
    if p.n == 0:
        raise NoCrossings("U has no crossings, hence no teardrops")
    w = p.word
    m = len(w)
    out = []
    cd = p.code
    for v in range(1, p.n + 1):
        t1, t2 = cd.positions(v)
        for s, e in ((t1, t2), (t2, t1)):
            interior = _cyclic_interior(m, s, e)
            plabels = [w[i] for i in interior]
            if len(set(plabels)) != len(plabels):
                continue
            bset = set(plabels)
            q = [w[i] for i in _cyclic_interior(m, e, s) if w[i] in bset]
            index = {lab: k + 1 for k, lab in enumerate(plabels)}
            out.append(
                Teardrop(
                    origin=v,
                    loop_start=s,
                    interval=tuple(interior),
                    boundary_labels=(v, *plabels),
                    sigma=tuple(index[lab] for lab in q),
                )
            )
    return out


def innermost_teardrop(p: PlanarCurve) -> Teardrop:
    """A teardrop whose interval contains no other teardrop's interval.

    Containment is proper inclusion of the position sets; ties are broken by
    shortest interval, then smallest origin label, then loop start, so the
    result is deterministic.
    """
    cands = find_teardrops(p)
    sets = [frozenset(t.interval) for t in cands]
    inner = [
        t
        for t, si in zip(cands, sets)
        if not any(sj < si for sj in sets)
    ]
    return min(inner, key=lambda t: (len(t.interval), t.origin, t.loop_start))


def is_reduced(p: PlanarCurve) -> bool:
    """No nugatory crossing (every chord interleaves something); U is reduced."""
    return all(p.code._bits)


def prime_decompose(p: PlanarCurve) -> list[PlanarCurve]:
    """Connected-sum factors, each prime, in recursive split order.

    U decomposes into no factors.  The factor multiset (by canonical code)
    does not depend on which valid split is taken first; tests assert this.
    """
    if p.n == 0:
        return []
    split = chords.split_connected_sum(p.code)
    if split is None:
        return [p]
    inner, outer = split
    return prime_decompose(realize(inner)) + prime_decompose(realize(outer))


def _check_site(p: PlanarCurve, site, name: str) -> None:
    if p.n == 0:
        if site is not None:
            raise InvalidSite("U has no edges; its site must be None")
    elif not isinstance(site, int) or isinstance(site, bool):
        raise InvalidSite(f"{name} must be an edge index, got {site!r}")
    elif not 0 <= site < 2 * p.n:
        raise InvalidSite(f"{name}={site} out of range 0..{2 * p.n - 1}")


def connected_sum(
    p1: PlanarCurve,
    p2: PlanarCurve,
    site1: int | None = None,
    site2: int | None = None,
) -> PlanarCurve:
    """Splice ``p2`` into ``p1``, cutting edge ``site1`` of p1 and ``site2`` of p2.

    Edge t runs between code positions t and t+1.  U is the neutral element
    on either side (its site must be None, having no edges).  The spliced
    code is relabeled and realized; the result always is realizable.
    """
    _check_site(p1, site1, "site1")
    _check_site(p2, site2, "site2")
    if p1.n == 0:
        return p2
    if p2.n == 0:
        return p1
    w1, w2 = p1.word, p2.word
    shifted = tuple(x + p1.n for x in w2[site2 + 1:] + w2[: site2 + 1])
    merged = w1[: site1 + 1] + shifted + w1[site1 + 1:]
    return realize(ChordDiagram.from_labels(merged))
