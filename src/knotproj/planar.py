"""Spherical realizations of Gauss codes as combinatorial maps.

A realization is a rotation system on 4n darts.  Traversing the curve, edge t
runs from the t-th code position to the (t+1)-th; its tail dart is 2t and its
head dart is 2t+1, so the edge involution is ``d ^ 1``.  Each vertex is
visited by two strand passages, and transversality forces the in- and
out-dart of one passage to sit opposite each other in the rotation, which
leaves exactly two admissible rotations per vertex, its flip.  With darts
in1, out1 of the first passage and in2, out2 of the second, flip 0 is the
cyclic order (in1, in2, out1, out2) and flip 1 is (in1, out2, out1, in2).
A curve is therefore fixed by its word and its flip mask, and
:class:`PlanarCurve` holds just those two, the word as its diagram; its
rotations and faces are built on first read.

Faces come from one step array, :func:`_face_step`, built from the word and
the flip mask alone: it sends each dart to the next dart of its face.  A flip
mask is a spherical realization exactly when that permutation has n + 2
cycles (Euler's formula with V = n, E = 2n).  Two walkers read the cycles.
:func:`_face_walk` is the lean one: one pass gives each face's degree and
the edges of each 2-gon, with no :class:`Face` built, and it is all that
accepts or rejects a candidate mask, lists a curve's moves, drives the
greedy 1b/s2b run, fills a census record and answers the verify checks.  A
curve whose mask a walk accepted keeps that walk, so a census curve's map,
or a move's result, is walked once.  :func:`_trace_faces` serves only the
public ``faces``, which :func:`monogons` and :func:`strong_bigons` filter.
Strongness itself is one comparison on the word, :func:`_is_strong`, made
each time a walk's 2-gons are read (:func:`_strong_sites`).  The step array
is the one place that writes the rotation rule down: a curve's
``rotations`` are read back off it, a derived view for readers of the map.

No search over the 2**n flip masks is needed.  By the interlacement-graph
characterization of Gauss codes (Rosenstiehl, C. R. Acad. Sci. Paris 283,
1976; de Fraysseix and Ossona de Mendez, "On a characterization of Gauss
codes", Discrete Comput. Geom. 22, 1999), the flips of interleaved chords a
and b of a spherical realization differ by the parity of g + |N(a) & N(b)|,
with g the number of code positions strictly between their first
occurrences and N the interlacement neighbourhood.  Propagating that rule
over each component of the interlacement graph fixes every flip up to
mirroring whole components, in O(n^2) bit operations; one walk of the face
permutation then confirms the candidate or shows the code is not spherical.

Faces, monogons, strong 2-gons and the connected-sum structure all live
here because they need the realized map (or feed it); a connected sum
splices two maps and a prime decomposition splits one, each carrying the
flip bits, with no flip search; both, like a move, relabel the surviving
crossings through :func:`_drop_labels`.  Teardrop loops live here too, but
read only the word, not the map.

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

from functools import cached_property
from typing import NamedTuple

from . import chords
from .chords import ChordDiagram
from .errors import InvalidSite, MalformedCode, NoCrossings, NotRealizable

__all__ = [
    "Face",
    "Teardrop",
    "PlanarCurve",
    "U",
    "realize",
    "all_realizations",
    "monogons",
    "strong_bigons",
    "innermost_teardrop",
    "is_reduced",
    "prime_decompose",
    "connected_sum",
]


class Face(NamedTuple):
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


class Teardrop(NamedTuple):
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


class _PlanarCurveFields(NamedTuple):
    code: ChordDiagram
    flips: int


class PlanarCurve(chords._Frozen, _PlanarCurveFields):
    """A Gauss code together with a spherical rotation system.

    ``code`` is the diagram the curve was built from, and ``word`` is its
    word.  Bit v-1 of ``flips`` is crossing v's flip.  ``rotations[v-1]`` is
    the cyclic dart order at vertex v, starting at its first in-dart: (in1,
    in2, out1, out2) at flip 0 and (in1, out2, out1, in2) at flip 1.
    ``faces`` is the full face list.  Both are read off :func:`_face_step` on
    first read and then cached, and nothing in the package reads either:
    they are the public views of the map, the rotations in the form the
    literature and an independent face tracer read, so a caller or a test
    can check a realization without the package's dart conventions for
    faces.  A curve is the pair ``(code, flips)``, so equality and hashing
    compare the word and the flips.  The curve's Euler circuit visits the
    darts in numeric order (tail 2t, head 2t+1 for edge t).  The constructor
    insists that ``code`` is a :class:`ChordDiagram` (else
    :class:`MalformedCode`) and ``flips`` an int mask of n bits (else
    :class:`InvalidSite`), so one curve has one mask; it does not check that
    the mask is a realization.
    """

    def __new__(cls, code: ChordDiagram, flips: int):
        if not isinstance(code, ChordDiagram):
            name = type(code).__name__
            raise MalformedCode(f"code must be a ChordDiagram, got {name}")
        if type(flips) is not int or not 0 <= flips < 1 << code.n:  # bools too
            raise InvalidSite(f"flip mask {flips!r} not in 0..2**{code.n} - 1")
        return tuple.__new__(cls, (code, flips))

    @property
    def word(self) -> tuple[int, ...]:
        return self.code.word

    @property
    def n(self) -> int:
        return self.code.n

    @cached_property
    def rotations(self) -> tuple[tuple[int, int, int, int], ...]:
        # the rotation successor of dart a is step[a ^ 1]
        step = _face_step(self.word, self.flips)
        rings = []
        for t in self.code._firsts:  # v's first occurrence: in1 = 2t - 1 (mod 4n)
            ring = [(2 * t - 1) % len(step)]
            for _ in range(3):
                ring.append(step[ring[-1] ^ 1])
            rings.append(tuple(ring))
        return tuple(rings)

    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """This curve's :func:`_face_walk`: the walk that accepted its mask
        (:func:`_curve_for_mask`), or one made on first read."""
        return _face_walk(self.word, self.flips)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        if not self.word:
            return (Face((), ()), Face((), ()))
        return tuple(_trace_faces(self.word, self.flips))

    def __repr__(self) -> str:
        return f"PlanarCurve({' '.join(map(str, self.word)) or 'U'!r})"


U = PlanarCurve(ChordDiagram(()), 0)


def _face_step(word: tuple[int, ...], flips: int) -> list[int]:
    """The face permutation of the curve with this word and flip mask.

    A face steps from dart d to ``step[d]``, the successor of d ^ 1 in the
    rotation at its vertex.  Vertex v with occurrences t1 < t2 has darts
    in1 = 2*t1 - 1 (mod 4n), out1 = 2*t1, in2 = 2*t2 - 1, out2 = 2*t2, and
    the rotation (in1, in2, out1, out2) at flip 0 and (in1, out2, out1, in2)
    at flip 1, the two orders transversality allows; each rotation successor
    a -> b gives ``step[a ^ 1] = b``.  This is the only statement of the
    rotation rule: ``PlanarCurve.rotations`` reads the rings back off the
    array.
    """
    nd = 2 * len(word)
    step = [0] * nd
    first = [-1] * (len(word) // 2 + 1)
    for t, v in enumerate(word):
        t1 = first[v]
        if t1 < 0:
            first[v] = t
            continue
        in1, out1, in2, out2 = (2 * t1 - 1) % nd, 2 * t1, 2 * t - 1, 2 * t
        if flips >> (v - 1) & 1:
            step[in1 ^ 1], step[out2 ^ 1] = out2, out1
            step[out1 ^ 1], step[in2 ^ 1] = in2, in1
        else:
            step[in1 ^ 1], step[in2 ^ 1] = in2, out1
            step[out1 ^ 1], step[out2 ^ 1] = out2, in1
    return step


def _is_strong(word: tuple[int, ...], t1: int, t2: int) -> bool:
    """Whether the 2-gon bounded by edges t1 and t2 is a strong 2-gon.

    Both edges join the face's two corners, and edge t starts at ``word[t]``.
    Different start labels mean one edge runs a -> b and the other b -> a:
    the word reads a b .. b a, the chords are nested and the orientation of
    the curve runs coherently around the face.  Equal start labels mean
    either both edges run a -> b (a b .. a b, interleaved chords, parallel
    strands) or both are loops at a, as on the figure-eight's outer face;
    neither is strong.
    """
    return word[t1] != word[t2]


def _face_walk(
    word: tuple[int, ...], flips: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Face degrees and 2-gons of the curve with this word and flip mask.

    One pass over the cycles of :func:`_face_step`, with no :class:`Face`
    built.  The degrees come in the order of each cycle's smallest dart, as
    :func:`_trace_faces` lists the faces, so there are n + 2 of them exactly
    when the mask is spherical; U's two faces have degree 0.  Each 2-cycle
    d <-> e, d its smaller dart, gives its two edges (d >> 1, e >> 1);
    :func:`_strong_sites` reads the strong 2-gons off them.  Both come back
    as tuples, so the walk a curve keeps (``PlanarCurve._walk``) holds no
    list's spare capacity; every reader only reads it.
    """
    if not word:
        return (0, 0), ()
    step = _face_step(word, flips)
    degrees = []
    bigons = []
    for start in range(len(step)):
        d = step[start]
        if d < 0:  # a visited dart's step is set to -1
            continue
        second = d
        step[start] = -1
        k = 1
        while d != start:
            step[d], d = -1, step[d]
            k += 1
        degrees.append(k)
        if k == 2:
            bigons.append((start >> 1, second >> 1))
    return tuple(degrees), tuple(bigons)


def _strong_sites(
    word: tuple[int, ...], bigons: tuple[tuple[int, int], ...]
) -> list[tuple[int, int]]:
    """The strong 2-gons among the 2-gons of a :func:`_face_walk`, by site.

    A 2-gon with edges t1 and t2 that :func:`_is_strong` accepts gives the
    site (a, b), its two corners ascending, one per face; the corners are
    the two ends of edge t1.  The filter runs on each read, not inside the
    walk, so the walk a curve keeps holds the map's 2-gons and no
    strongness verdict.
    """
    m = len(word)
    sites = []
    for t1, t2 in bigons:
        if _is_strong(word, t1, t2):
            a, b = word[t1], word[(t1 + 1) % m]  # edge t1 joins the corners
            sites.append((a, b) if a < b else (b, a))
    return sites


def _trace_faces(word: tuple[int, ...], flips: int) -> list[Face]:
    """The faces of the curve with this word and flip mask, as :class:`Face` objects.

    The cycles of :func:`_face_step`, each from its smallest dart, in the
    order of those darts.  The corner passed on leaving dart d is the vertex
    at the head of d ^ 1: a tail dart 2t sits at ``word[t]`` and a head dart
    2t+1 at ``word[t+1]``, so the corner is ``word[((d ^ 1) + 1) // 2 % m]``.
    """
    m = len(word)
    step = _face_step(word, flips)
    out: list[Face] = []
    for start in range(len(step)):
        if step[start] < 0:
            continue
        cycle = []
        corners = []
        d = start
        while step[d] >= 0:  # a visited dart's step is set to -1
            cycle.append(d)
            corners.append(word[((d ^ 1) + 1) // 2 % m])
            step[d], d = -1, step[d]
        out.append(Face(tuple(cycle), tuple(corners)))
    return out


def _flip_coset(cd: ChordDiagram) -> tuple[int, list[int]]:
    """Candidate flip mask and the indicator masks of the interlacement components.

    Bit v-1 of a mask is vertex v's flip.  Flips are propagated along the
    spanning order of :func:`chords._components`, each component's root set
    to 0: for interleaved a and b the flips of a spherical realization
    satisfy flip[a] ^ flip[b] = (g + |N(a) & N(b)|) mod 2, where g counts
    the code positions strictly between the first occurrences of a and b,
    so g = first[a] + first[b] + 1 mod 2, and N is the interleavement
    neighbourhood.  Flipping a whole component mirrors that part of the
    curve, so when the code is realizable its valid masks are exactly the
    returned mask XOR the span of the component indicators.  Each component
    is then mirrored when its largest label carries flip 1, which makes the
    mask the smallest valid one in numeric (sweep) order, whatever the root.
    The components come back as :func:`chords._components` lists them.

    ``cd._bits`` comes with an enumerated diagram; any other diagram
    builds it, and every diagram builds ``cd._firsts``, in one pass over
    its word.
    """
    adj = cd._bits
    first = cd._firsts
    components, order = chords._components(cd)
    mask = 0
    for a, reached in order:
        row = adj[a]
        side = (mask >> a & 1) + first[a] + 1
        while reached:
            low = reached & -reached
            reached ^= low
            b = low.bit_length() - 1
            if (side + first[b] + (row & adj[b]).bit_count()) & 1:
                mask |= low
    for comp in components:
        if mask >> (comp.bit_length() - 1) & 1:
            mask ^= comp
    return mask, components


def _curve_for_mask(cd: ChordDiagram, mask: int) -> PlanarCurve | None:
    """The curve with the given flip mask, or None unless it has n + 2 faces.

    The faces are only counted (:func:`_face_walk`); the curve keeps that
    walk as its ``_walk`` and builds its faces when they are first read.
    Its ``code`` is ``cd`` itself, which keeps the interlacement core ``cd``
    has already built.  The empty word's two degree-0 faces pass, and its
    curve is :data:`U` itself: this is the one place an entry point gets U
    for n = 0.
    """
    walk = _face_walk(cd.word, mask)
    if len(walk[0]) != cd.n + 2:
        return None
    if not cd.word:
        return U
    p = PlanarCurve(cd, mask)
    p.__dict__["_walk"] = walk
    return p


def _drop_labels(
    word: tuple[int, ...], mask: int, drop
) -> tuple[tuple[int, ...], int]:
    """Delete the labels in ``drop`` from a word and its flip mask, and relabel.

    ``word`` holds labels 1..n, each twice, in any order.  One pass numbers
    each survivor at its first occurrence, so the word comes out normalized,
    and moves its flip bit with it.  Moves, prime factors and connected sums
    (with nothing dropped) all relabel through here.
    """
    rank = [0] * (len(word) // 2 + 1)
    for v in drop:
        rank[v] = -1
    out = []
    kept = flips = 0
    for x in word:
        r = rank[x]
        if not r:
            flips |= (mask >> (x - 1) & 1) << kept
            kept += 1
            r = rank[x] = kept
        if r > 0:
            out.append(r)
    return tuple(out), flips


def _not_spherical(word: tuple[int, ...], mask: int) -> NotRealizable:
    """The error for a word and flip mask without n + 2 faces."""
    return NotRealizable(
        f"flip mask {mask:#x} on {' '.join(map(str, word))!r} "
        "leaves no spherical map"
    )


def _embed(word: tuple[int, ...], mask: int) -> PlanarCurve:
    """The curve with this normalized word and flip mask, after one face walk.

    The curve keeps the walk (:func:`_curve_for_mask`), so the moves of a
    move's result are read without another; the empty word gives U.  The
    word is normal by construction (:func:`_drop_labels`), so it is not
    validated again.  Raises :class:`NotRealizable` unless the walk gives
    n + 2 faces.
    """
    q = _curve_for_mask(ChordDiagram._of_normal(word), mask)
    if q is None:
        raise _not_spherical(word, mask)
    return q


def _search_rotations(cd: ChordDiagram) -> PlanarCurve | None:
    """First rotation assignment whose face count is n + 2, in mask order.

    The flip mask comes from :func:`_flip_coset` in O(n^2) bit operations;
    one face walk then confirms it, so a code that passes parity but is not
    spherical still gets None.
    """
    mask, _ = _flip_coset(cd)
    return _curve_for_mask(cd, mask)


def all_realizations(cd: ChordDiagram) -> list[PlanarCurve]:
    """Every accepted rotation assignment in mask order, with no parity prefilter.

    Only the 2**k masks of the coset from :func:`_flip_coset` can be
    spherical (k interlacement components); each is confirmed by its own
    face walk, and the empty diagram's one mask gives ``[U]``.  Used to
    check that realization-dependent quantities do not actually depend on
    the realization found first.
    """
    base, components = _flip_coset(cd)
    masks = [base]
    for comp in components:
        masks += [m ^ comp for m in masks]
    found = (_curve_for_mask(cd, m) for m in sorted(masks))
    return [p for p in found if p is not None]


def realize(cd: ChordDiagram) -> PlanarCurve:
    """Realize a Gauss code on the sphere, deterministically.

    Raises :class:`NotRealizable` when no transversal rotation system has
    n + 2 faces; the message names the failing parity chord when the cheap
    necessary condition already rules the code out.  The empty code passes
    both steps and gives U itself (:func:`_curve_for_mask`).
    """
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
    """The strong 2-gons: degree-2 faces that an orientation of the curve orients.

    "Any nontrivial knot projection with no triple chords has a monogon or a
    bigon" (arXiv:2108.10133) defines a strong 2-gon as a 2-gon oriented by
    an orientation of the curve: its two edges run coherently around it, one
    from corner a to b and the other from b back to a.  :func:`_is_strong`
    reads that off the word, and only those faces admit the s2b move.
    """
    out = []
    for f in p.faces:
        if f.degree == 2:
            d, e = f.dart_cycle
            if _is_strong(p.word, d >> 1, e >> 1):
                out.append(f)
    return out


def innermost_teardrop(p: PlanarCurve) -> Teardrop:
    """A teardrop whose interval contains no other teardrop's interval.

    Containment is proper inclusion of the position sets.  It is read off
    the word in one pass, each label's first position from
    ``ChordDiagram._firsts``: chord v with positions t1 < t2 has two sides,
    the t2 - t1 - 1 positions strictly between them and the (t1 - t2 - 1)
    mod 2n that wrap past the end of the word, and the shortest side of any
    chord (ties broken by smallest origin label, then loop start, so the
    result is deterministic) is the teardrop returned.  It is a teardrop,
    since a label twice inside it would give that chord a strictly shorter
    side; and it is innermost, since a teardrop properly inside it would be
    shorter still.  Teardrops are sides too, so this is also the shortest
    teardrop.
    """
    if p.n == 0:
        raise NoCrossings("U has no crossings, hence no teardrops")
    w = p.word
    m = len(w)
    firsts = p.code._firsts
    sides = []
    for t, v in enumerate(w):
        t1 = firsts[v - 1]
        if t1 < t:
            sides += [(t - t1 - 1, v, t1), ((t1 - t - 1) % m, v, t)]
    size, origin, start = min(sides)
    ww = w + w
    plabels = ww[start + 1 : start + 1 + size]
    index = {lab: k for k, lab in enumerate(plabels, 1)}
    # the complementary arc runs from the loop's end back round to its start
    rest = ww[start + size + 2 : start + m]
    return Teardrop(
        origin=origin,
        loop_start=start,
        interval=tuple(i % m for i in range(start + 1, start + 1 + size)),
        boundary_labels=(origin, *plabels),
        sigma=tuple(index[lab] for lab in rest if lab in index),
    )


def is_reduced(p: PlanarCurve) -> bool:
    """No nugatory crossing (every chord interleaves something); U is reduced."""
    return all(p.code._bits)


def prime_decompose(p: PlanarCurve) -> list[PlanarCurve]:
    """Connected-sum factors, each prime: one per interlacement component.

    A factor is ``p`` with every crossing outside one component of the
    interlacement graph (:func:`chords._components`) deleted: the
    subsequence of ``p.word`` that the component's labels make, relabeled
    by first occurrence, each flip bit moving with its label, so no factor
    is realized again.  That mask is spherical: a closed interval (a proper
    cyclic interval closed under the chord pairing) is an arc of the curve
    that meets the rest only at its two ends, and a circle on the sphere
    round that arc cuts the curve twice.  Replacing the other side's arc by
    a simple arc along that circle draws the part as a closed curve on the
    same sphere, and each of its crossings keeps its local picture, hence
    its flip.  A factor is what repeated splitting at closed intervals
    leaves (the order argument below), so its mask is spherical too.

    Prime is connected.  A closed interval's chords cross nothing outside
    it, so a diagram with one component has no closed interval.
    Conversely, every chord outside a component C has both ends in one gap
    between consecutive endpoints of C: a chord with ends in two gaps that
    crossed no chord of C would part C's chords into two non-empty sides
    with no crossing between them.  So a non-empty gap is a closed
    interval, and a diagram with two components has one.

    Order.  Factors are listed by each component's last position in
    ``p.word``.  That is the order of splitting off the component with the
    earliest last position, the inside of :func:`chords.split_connected_sum`,
    and splitting what is left again, each part kept as the subsequence of
    ``p.word`` it is: deleting a component's crossings changes no other
    component and keeps the order of their last positions.  A factor's word
    is the subsequence of ``p.word`` it keeps, so it may be a rotation of the
    word read from its interval's ends; its canonical code is the same.  U
    decomposes into no factors.

    One pass.  The word's symbols are grouped by component, each group in
    word order (a stable sort), and :func:`_drop_labels` relabels the
    grouped word once.  A group holds whole chords, so the labels of
    component i come next in first-occurrence order, k_i of them, with
    their flip bits at the same offset.  Cutting the result at the groups'
    ends and subtracting each offset gives every factor's word and mask,
    with no pass over the whole word per factor.  Factors with equal words
    share one diagram, so a caller that canonicalizes each factor (the
    ``analyze`` command) runs one orbit search per distinct word.
    """
    comps = chords._components(p.code)[0]
    part = [0] * (p.n + 1)
    for i, comp in enumerate(comps):
        while comp:
            low = comp & -comp
            comp ^= low
            part[low.bit_length()] = i
    word, mask = _drop_labels(sorted(p.word, key=part.__getitem__), p.flips, ())
    factors = []
    codes: dict[tuple[int, ...], ChordDiagram] = {}
    off = 0  # the labels of the components before this one
    for comp in comps:
        k = comp.bit_count()
        w = tuple([x - off for x in word[2 * off : 2 * (off + k)]])
        cd = codes.setdefault(w, ChordDiagram._of_normal(w))
        factors.append(PlanarCurve(cd, mask >> off & ((1 << k) - 1)))
        off += k
    return factors


def _check_site(p: PlanarCurve, site, name: str) -> None:
    if p.n == 0:
        if site is not None:
            raise InvalidSite("U has no edges; its site must be None")
    elif not isinstance(site, int) or isinstance(site, bool):
        raise InvalidSite(f"{name} must be an edge index, got {site!r}")
    elif not 0 <= site < 2 * p.n:
        raise InvalidSite(f"{name}={site} out of range 0..{2 * p.n - 1}")


def _splice_block(w2: tuple[int, ...], site2: int, shift: int) -> tuple[int, ...]:
    """``w2`` read from position ``site2 + 1``, its labels shifted by ``shift``.

    The part of a splice at edge ``site2`` of ``w2`` that comes from
    ``w2`` (:func:`_splice_word`, with ``shift`` the crossing number of
    the other summand).
    """
    cut = site2 + 1
    return tuple([x + shift for x in w2[cut:] + w2[:cut]])


def _splice_word(
    w1: tuple[int, ...], w2: tuple[int, ...], site1: int, site2: int
) -> tuple[int, ...]:
    """The word of the splice at edges ``site1`` of ``w1`` and ``site2`` of ``w2``.

    The block of ``w2`` (:func:`_splice_block`: read from position
    ``site2 + 1``, its labels shifted by ``len(w1) // 2``) is inserted after
    position ``site1`` of ``w1``.  The result is not relabeled: its labels
    are 1..n1 + n2, each twice, but not in first-occurrence order.
    """
    block = _splice_block(w2, site2, len(w1) // 2)
    return w1[: site1 + 1] + block + w1[site1 + 1:]


def connected_sum(
    p1: PlanarCurve,
    p2: PlanarCurve,
    site1: int | None = None,
    site2: int | None = None,
) -> PlanarCurve:
    """Splice ``p2`` into ``p1``, cutting edge ``site1`` of p1 and ``site2`` of p2.

    Edge t runs between code positions t and t+1.  U is the neutral element
    on either side (its site must be None, having no edges).  The result is
    the splice of the two embeddings given, not a realization of the spliced
    code: p2's word, read from position ``site2 + 1``, is inserted after
    position ``site1`` of p1's (:func:`_splice_word`), and the maps are
    joined along the two cut edges.  Two spherical maps spliced along an
    edge give a spherical map, with (n1 + 2) + (n2 + 2) - 2 = n + 2 faces: a
    curve's map has no bridge, so two distinct faces border each cut edge,
    and each of p1's merges with one of p2's.  So no flip is searched and no
    face counted; the flips carry over:

    * p1's chords keep their passage order, so they keep their rotations and
      their flip bits;
    * a p2 chord with both passages on one side of the cut keeps its flip.
      One that straddles it is met at its second passage first, which swaps
      its passages and turns (in1, in2, out1, out2) into (in1, out2, out1,
      in2), toggling its flip.  The straddling chords are those with exactly
      one occurrence in ``w2[:site2 + 1]``, the XOR of their bits.

    The spliced word is relabeled by first occurrence, each bit moving with
    its label, by :func:`_drop_labels` with nothing dropped, which makes it
    normal by construction, so it is not validated again.  Code-level
    readers that do not depend on label names, such as the triple-chord
    count of ``verify._connected_sum_lemma``, read the same unrelabeled
    word (p1's head, :func:`_splice_block`, p1's tail) directly, with
    ``chords._interlacement_bits``, the reader every diagram's rows come
    from, and build no curve.
    """
    _check_site(p1, site1, "site1")
    _check_site(p2, site2, "site2")
    n1 = p1.n
    if n1 == 0:
        return p2
    if p2.n == 0:
        return p1
    w2 = p2.word
    straddling = 0
    for x in w2[: site2 + 1]:
        straddling ^= 1 << (x - 1)
    flips = p1.flips | (p2.flips ^ straddling) << n1
    word, mask = _drop_labels(_splice_word(p1.word, w2, site1, site2), flips, ())
    return PlanarCurve(ChordDiagram._of_normal(word), mask)
