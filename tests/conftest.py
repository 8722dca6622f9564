"""Shared oracles for the test suite.

Everything here is deliberately implemented from scratch rather than imported
from the package, so that agreement between a fast route and an oracle route
is evidence and not tautology.  What the oracles do take from the package is
limited to its value types (``ChordDiagram``, ``PlanarCurve``, ``Face``,
``Move``, ``Teardrop``, ``ReductionTrace``), ``canonicalize`` and ``realize``
where an oracle checks a later stage, and the few internals an oracle is
built around (``planar._flip_coset``'s span, ``invariants.resolve``,
``a2_gauss_formula``, the ``_PV_*`` arrow pattern,
``planar._drop_labels`` for the recursive splitter
:func:`recursive_prime_decompose`, and
``chords._interlacement_bits`` with ``chords._triangles`` for the
triple-chord count of each splice in :func:`ordered_splices`).
:func:`is_orbit_min` is a driver, not an oracle: it hands
``chords._is_orbit_min`` the candidate starts that ``chords._least_starts``
scans for, so any word can be tested.  In particular the
move oracles read moves off faces traced from the vertex rings
(:func:`face_moves`), never through ``applicable_moves`` or ``apply_move``.
The one deliberately wrong rule here, :func:`weak_variant`, is a mutant for
the tests that patch ``planar._is_strong``, not an oracle.
"""

import json
import os
import pathlib
from fractions import Fraction
from itertools import combinations

import pytest

from knotproj import (
    ChordDiagram,
    Move,
    PlanarCurve,
    Teardrop,
    canonicalize,
    chords,
    interleaved,
    invariants,
    planar,
    realize,
)
from knotproj.errors import InapplicableMove, NoCrossings
from knotproj.moves import ReductionTrace

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def pytest_collection_modifyitems(config, items):
    """Skip tests marked ``slow`` unless KNOTPROJ_SLOW=1."""
    if os.environ.get("KNOTPROJ_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set KNOTPROJ_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pairing_words(n):
    """Every double-occurrence word of length 2n, one per perfect matching.

    Labels are assigned in first-occurrence order, so each word is already
    in parse normal form.  (2n-1)!! words; use only at small n.
    """
    def matchings(positions):
        if not positions:
            yield []
            return
        a = positions[0]
        rest = positions[1:]
        for k in range(len(rest)):
            b = rest[k]
            for sub in matchings(rest[:k] + rest[k + 1:]):
                yield [(a, b)] + sub

    out = []
    for pairing in matchings(list(range(2 * n))):
        word = [0] * (2 * n)
        for lab, (i, j) in enumerate(pairing, start=1):
            word[i] = lab
            word[j] = lab
        out.append(tuple(word))
    return out


def curled_composite(rng, n):
    """A random connected sum of trefoils and T(2,5) shadows, filled up to
    n chords with curls, rotated: the shape of the benchmark's analyze codes."""
    word = ()
    while True:
        prime = rng.choice(((1, 2, 3, 1, 2, 3), (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)))
        if (len(word) + len(prime)) // 2 >= n:
            break
        r = rng.randrange(len(prime))
        inner = tuple(x + len(word) // 2 for x in prime[r:] + prime[:r])
        i = rng.randrange(len(word) + 1)
        word = word[:i] + inner + word[i:]
    word = list(word)
    for v in range(len(word) // 2 + 1, n + 1):
        at = rng.randint(0, len(word))
        word[at:at] = [v, v]
    r = rng.randrange(len(word))
    return tuple(word[r:] + word[:r])


def _is_canonical(w):
    m = len(w)
    for refl in (False, True):
        s = w[::-1] if refl else w
        for r in range(m):
            if not refl and r == 0:
                continue
            ren = {}
            for k in range(m):
                x = s[(r + k) % m]
                y = ren.setdefault(x, len(ren) + 1)
                if y != w[k]:
                    if y < w[k]:
                        return False
                    break
    return True


def all_canonical_words(n):
    """Every canonical double-occurrence word with n chords, ascending.

    The generator without the parity prune: parity-failing words are kept.
    """
    if n == 0:
        return [()]
    m = 2 * n
    out = []
    for gap in range(1, n + 1):
        # chord 1 closes at `gap`; the prefix before it is forced to be new chords
        word = [0] * m
        word[0] = 1
        word[gap] = 1
        for k in range(1, gap):
            word[k] = k + 1
        open_pos = {k + 1: k for k in range(1, gap)}
        state = [gap + 1]  # next fresh label

        def place(i):
            if i == m:
                if not open_pos and _is_canonical(tuple(word)):
                    out.append(tuple(word))
                return
            if len(open_pos) > m - i:
                return
            for lab, fp in open_pos.items():
                if i > fp + (m - gap):
                    return
            for lab in sorted(open_pos):
                d = i - open_pos[lab]
                if d < gap or d > m - gap:
                    continue
                fp = open_pos.pop(lab)
                word[i] = lab
                place(i + 1)
                open_pos[lab] = fp
            if state[0] <= n:
                lab = state[0]
                state[0] += 1
                open_pos[lab] = i
                word[i] = lab
                place(i + 1)
                state[0] -= 1
                del open_pos[lab]
            word[i] = 0

        place(gap + 1)
    return out


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


def reading_orbit_min(word: tuple[int, ...]) -> tuple[int, ...]:
    """The orbit minimum by relabeled tuples, the tuple reading the package
    replaced with its partner-step keys (``chords._orbit_min``).

    Only the :func:`_candidate_starts` are read, each only until it differs
    from the best so far; the best is relabeled whole.
    """
    best: tuple[int, ...] = ()
    for seq, r in _candidate_starts(word):
        if not best or _reads_below(seq, r, best):
            best = _relabel(seq[r:] + seq[:r])
    return best


def is_orbit_min(word: tuple[int, ...]) -> bool:
    """``chords._is_orbit_min`` on any normalized word: the back steps of the
    word and of its reversal, and the candidate starts ``chords._least_starts``
    scans for, which the generator records as its chords close instead."""
    if not word:
        return True
    back = chords._back_steps(word)
    rback = chords._back_steps(word[::-1])
    g = min(back)
    starts = zip(chords._least_starts(back * 2, g), chords._least_starts(rback * 2, g))
    return back[g] == g and chords._is_orbit_min(back, rback, list(starts), g)


def leaf_checked_words(n: int) -> list[tuple[int, ...]]:
    """The parity-pruned generator with canonicity checked only at the leaves.

    :func:`knotproj.enumeration._canonical_words` before its close-time
    canonicity prune and its second-condition prune: the gap and parity
    prunes, then ``reading_orbit_min(w) == w`` on every complete word, the
    tuple reading, so the generator's key comparison is checked against an
    independent route.  Wrapping ``reading_orbit_min`` counts (or records)
    the leaves it checks.
    """
    if n == 0:
        return [()]
    m = 2 * n
    out: list[tuple[int, ...]] = []
    for gap in range(1, n + 1, 2):
        # chord 1 closes at `gap`; the prefix before it is forced to be new chords
        word = [0] * m
        word[0] = 1
        word[gap] = 1
        for k in range(1, gap):
            word[k] = k + 1
        # pref[i] XORs 1 << word[k] over k < i
        pref = [0] * (m + 1)
        for k in range(gap + 1):
            pref[k + 1] = pref[k] ^ (1 << word[k])
        open_pos = {k + 1: k for k in range(1, gap)}
        state = [gap + 1]  # next fresh label

        def place(i: int) -> None:
            if i == m:
                w = tuple(word)
                if not open_pos and reading_orbit_min(w) == w:
                    out.append(w)
                return
            if len(open_pos) > m - i:
                return
            for lab, fp in open_pos.items():
                if i > fp + (m - gap):
                    return
            for lab in sorted(open_pos):
                fp = open_pos[lab]
                d = i - fp
                if d < gap or d > m - gap:
                    continue
                if (pref[i] ^ pref[fp + 1]).bit_count() & 1:
                    continue
                del open_pos[lab]
                word[i] = lab
                pref[i + 1] = pref[i] ^ (1 << lab)
                place(i + 1)
                open_pos[lab] = fp
            if state[0] <= n:
                lab = state[0]
                state[0] += 1
                open_pos[lab] = i
                word[i] = lab
                pref[i + 1] = pref[i] ^ (1 << lab)
                place(i + 1)
                state[0] -= 1
                del open_pos[lab]
            word[i] = 0

        place(gap + 1)
    return out


def second_condition_violations(word):
    """Pairs of non-interleaved chords with an odd number of common neighbours.

    Rosenstiehl's second condition for a spherical Gauss code, read from
    label-position sets: chord b interleaves chord a when exactly one of b's
    two positions lies strictly inside a's interval.  A spherical code has
    no such pair.
    """
    spans = {}
    for i, x in enumerate(word):
        spans.setdefault(x, []).append(i)
    inside = {a: set(range(i1 + 1, i2)) for a, (i1, i2) in spans.items()}
    nbr = {
        a: {b for b in spans if len(inside[a] & set(spans[b])) == 1} for a in spans
    }
    return [
        (a, b)
        for a, b in combinations(sorted(spans), 2)
        if b not in nbr[a] and len(nbr[a] & nbr[b]) % 2
    ]


def count_tr_sextuples(cd):
    """Count triple chords by matching the six-point pattern directly.

    A triple {a, b, c} qualifies when its six endpoints, read in circle
    order, spell x y z x y z; linearizing a cyclic word of that shape always
    leaves position i and i+3 equal, which is what is checked.
    """
    total = 0
    for triple in combinations(range(1, cd.n + 1), 3):
        pos = sorted(p for lab in triple for p in cd.positions(lab))
        lab = [cd.word[p] for p in pos]
        if lab[0] == lab[3] and lab[1] == lab[4] and lab[2] == lab[5]:
            total += 1
    return total


def interleavement_graph(cd):
    """Adjacency map of the interleavement graph, from endpoint positions."""
    pos = {a: cd.positions(a) for a in range(1, cd.n + 1)}
    return {
        a: frozenset(
            b
            for b, (j1, j2) in pos.items()
            if b != a and (i1 < j1 < i2) != (i1 < j2 < i2)
        )
        for a, (i1, i2) in pos.items()
    }


def _relabel(labels):
    seen = {}
    return tuple(seen.setdefault(x, len(seen) + 1) for x in labels)


def rank_drop_labels(word, mask, drop):
    """The labels in ``drop`` deleted from a normalized word and its flip mask.

    Survivors are relabeled by rank, which is their first-occurrence order in
    a normalized word, and bit v-1 of ``mask`` moves to the survivor's rank:
    the reference for ``planar._drop_labels`` on moves and prime factors.
    """
    rank = [0] * (len(word) // 2 + 1)
    kept = out = 0
    for v in range(1, len(rank)):
        if v in drop:
            continue
        out |= (mask >> (v - 1) & 1) << kept
        kept += 1
        rank[v] = kept
    return tuple(rank[x] for x in word if rank[x]), out


def zip_relabeled(word, mask):
    """``word`` relabeled by first occurrence, each bit of ``mask`` moved
    along ``zip(word, relabeled)`` to its new label: the reference for
    ``planar._drop_labels`` with nothing dropped, as ``connected_sum`` calls
    it on a spliced word."""
    relabeled = _relabel(word)
    out = 0
    for x, y in zip(word, relabeled):
        out |= (mask >> (x - 1) & 1) << (y - 1)
    return relabeled, out


def canonical_text_full_relabel(cd):
    """Canonical code text: relabel all 4n rotations and reflections, take the min."""
    w = cd.word
    if not w:
        return ""
    orbit = [
        _relabel(seq[r:] + seq[:r]) for seq in (w, w[::-1]) for r in range(len(w))
    ]
    return " ".join(map(str, min(orbit)))


def first_closed_interval(word):
    """The first proper cyclic interval closed under the chord pairing.

    Returns (start, end) with ``word`` doubled, ``(word + word)[start:end]``
    the interval: the smallest start, then the smallest even length.  None
    when there is none (a prime word, or fewer than two chords).  An interval
    is closed exactly when every label occurs in it an even number of times,
    i.e. when its prefix XORs agree.
    """
    m = len(word)
    if m < 4:
        return None
    ww = word + word
    pref = [0]
    for x in ww:
        pref.append(pref[-1] ^ (1 << x))
    for start in range(m):
        for end in range(start + 2, start + m - 1, 2):
            if pref[end] == pref[start]:
                return start, end
    return None


def split_connected_sum_members(cd):
    """A proper interval closed under the pairing, by member arrays.

    Among the closed intervals that do not wrap, the one with the smallest
    end, then the largest start; returns the (inside, outside) words, the
    outside read from the inside's end, relabeled by first occurrence, or
    None.
    """
    w = cd.word
    m = len(w)
    if cd.n < 2:
        return None
    spans = [cd.positions(a) for a in range(1, cd.n + 1)]
    for end in range(2, m + 1):
        for start in range(end - 2, max(end - m + 2, 0) - 1, -2):
            member = [start <= i < end for i in range(m)]
            if all(member[i1] == member[i2] for i1, i2 in spans):
                return (
                    ChordDiagram.from_labels(w[start:end]),
                    ChordDiagram.from_labels(w[end:] + w[:start]),
                )
    return None


def recursive_prime_decompose(p):
    """Prime factors by recursive splitting: the reference ``prime_decompose``.

    ``p`` is split at :func:`first_closed_interval`, inside first, and
    each part is split again.  A part is ``p`` with the other part's
    crossings deleted, each survivor keeping its flip bit
    (``planar._drop_labels``).  U has no factors; a prime curve is its own.
    The first closed interval [s, e) never wraps, since its complement
    would start earlier, and every component outside it has a position
    >= e, since one wholly before s would span a closed interval starting
    before s; so by induction on the parts the factors come in the order
    of their components' last positions, as ``prime_decompose`` lists them.
    """
    if p.n == 0:
        return []
    found = first_closed_interval(p.word)
    if found is None:
        return [p]
    start, end = found
    inside = set((p.word + p.word)[start:end])
    outside = set(range(1, p.n + 1)) - inside
    factors = []
    for drop in (outside, inside):
        word, mask = planar._drop_labels(p.word, p.flips, drop)
        factors += recursive_prime_decompose(
            PlanarCurve(ChordDiagram._of_normal(word), mask)
        )
    return factors


def vertex_rings(word, flips):
    """Admissible dart ring per vertex, rebuilt from the word alone.

    Edge t has tail dart 2t and head dart 2t+1; passage k of a vertex enters
    on the head dart of the preceding edge and leaves on the tail dart of its
    own edge.  Transversality forces the two in-darts opposite each other,
    leaving one binary choice (``flips[v-1]``) per vertex.
    """
    m = len(word)
    occ = {}
    for t, lab in enumerate(word):
        occ.setdefault(lab, []).append(t)
    rings = []
    for v in sorted(occ):
        t1, t2 = occ[v]
        in1 = 2 * ((t1 - 1) % m) + 1
        in2 = 2 * ((t2 - 1) % m) + 1
        out1 = 2 * t1
        out2 = 2 * t2
        if flips[v - 1]:
            rings.append((in1, out2, out1, in2))
        else:
            rings.append((in1, in2, out1, out2))
    return tuple(rings)


def mask_rings(word, mask):
    """``vertex_rings`` for an integer flip mask (bit v-1 is vertex v's flip)."""
    return vertex_rings(word, tuple(bool(mask >> v & 1) for v in range(len(word) // 2)))


def ring_traced_faces(word, rings):
    """The faces of a rotation system as ``planar.Face`` objects.

    Built from the rings, not from the package's step array: a dart's
    successor is read off its vertex ring, a face steps from d to the
    successor of d ^ 1, and the corner passed there is the vertex at the
    head of d ^ 1.  Faces start at their smallest dart, in the order of
    those darts.
    """
    m = len(word)
    nd = 2 * m
    succ = [0] * nd
    for ring in rings:
        for k in range(4):
            succ[ring[k]] = ring[(k + 1) % 4]
    # dart incidence: tail 2t at word[t], head 2t+1 at word[t+1]
    vertex_of = [0] * nd
    for t in range(m):
        vertex_of[2 * t] = word[t]
        vertex_of[2 * t + 1] = word[(t + 1) % m]
    out = []
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
        out.append(planar.Face(tuple(cycle), tuple(corners)))
    return out


def trace_face_count(word, rings):
    """Independent face tracer: orbit count of the face permutation.

    Walks corner-by-corner with dict lookups instead of the package's
    successor array.
    """
    m = len(word)
    if m == 0:
        return 2
    succ = {}
    for ring in rings:
        for i, d in enumerate(ring):
            succ[d] = ring[(i + 1) % 4]
    seen = set()
    count = 0
    for start in range(2 * m):
        if start in seen:
            continue
        count += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = succ[d ^ 1]
    return count


def sweep_realizations(word):
    """Rings of every rotation assignment with n + 2 faces, in mask order.

    The full 2**n sweep: bit v-1 of the mask is vertex v's flip, and masks
    are tried in ascending numeric order.  A generator, so that callers
    wanting only the first realization stop early.
    """
    n = len(word) // 2
    for mask in range(1 << n):
        rings = mask_rings(word, mask)
        if trace_face_count(word, rings) == n + 2:
            yield rings


def brute_force_realizable(word):
    """True when some rotation assignment yields n + 2 faces (full sweep)."""
    return next(sweep_realizations(word), None) is not None


def flip_coset_masks(cd):
    """Every mask of the ``_flip_coset`` span, ascending: the only candidates."""
    base, components = planar._flip_coset(cd)
    masks = [base]
    for comp in components:
        masks += [m ^ comp for m in masks]
    return sorted(masks)


def eager_realizations(cd):
    """(word, rotations, faces) of every accepted mask, built the eager way.

    The construction curves had when they stored all three: for each mask of
    the coset span in ascending order, build the rotations, trace the faces
    from them, and accept on n + 2 faces.  The rotations come from
    ``vertex_rings`` and the faces from ``ring_traced_faces``.
    """
    if cd.n == 0:
        return [((), (), (planar.Face((), ()), planar.Face((), ())))]
    out = []
    for mask in flip_coset_masks(cd):
        rotations = mask_rings(cd.word, mask)
        faces = tuple(ring_traced_faces(cd.word, rotations))
        if len(faces) == cd.n + 2:
            out.append((cd.word, rotations, faces))
    return out


def resolutions(p):
    """All 2**n resolutions, in bit-counter order (bit v-1 belongs to vertex v)."""
    for mask in range(1 << p.n):
        yield invariants.resolve(p, tuple(bool(mask >> k & 1) for k in range(p.n)))


# --- skein recursion ------------------------------------------------------
#
# The semantic definition of a2: resolve crossings through the skein relation
# nabla(L+) - nabla(L-) = z * nabla(L0) until the diagrams are descending.
# Link diagrams inside the recursion are lists of components, each a list of
# (crossing, over) passages in traversal order, plus a sign per crossing.
# The two passages of a crossing always carry complementary flags.  Smoothing
# and the Reidemeister deletions below only ever rewire passages, so the
# planarity of the starting diagram is preserved throughout.

_NODE_BUDGET = 1_000_000


def _is_split(comps):
    k = len(comps)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    where = {}
    for ci, comp in enumerate(comps):
        for c, _ in comp:
            if c in where:
                a, b = find(where[c]), find(ci)
                parent[a] = b
            else:
                where[c] = ci
    return len({find(i) for i in range(k)}) > 1


def _reduce_r1(comps, signs):
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


def _reduce_r2(comps, signs):
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
            removals = {}
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


def _conway(comps, signs, counter):
    counter[0] += 1
    if counter[0] > _NODE_BUDGET:
        raise RuntimeError(f"skein recursion exceeded {_NODE_BUDGET} nodes")
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
    seen = set()
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


def _knot_diagram(r):
    word = r.base.word
    first = {}
    comp = []
    for t, v in enumerate(word):
        if v not in first:
            first[v] = t
            over = r.over_under[v - 1]
        else:
            over = not r.over_under[v - 1]
        comp.append((v, over))
    return [comp], {v: r.signs[v - 1] for v in range(1, r.base.n + 1)}


def conway_polynomial(r):
    """Conway polynomial of the resolved diagram as {degree: coefficient}."""
    comps, signs = _knot_diagram(r)
    return _conway(comps, signs, [0])


def a2_skein(r):
    """z^2 coefficient of the Conway polynomial, via the skein relation."""
    return conway_polynomial(r).get(2, 0)


def sweep_average_a2(p):
    """Average a2 over all 2**n resolutions, through the based Gauss formula."""
    total = sum(invariants.a2_gauss_formula(r) for r in resolutions(p))
    return Fraction(total, 2 ** p.n)


def skein_average_a2(p):
    """Average a2 over all resolutions, through the skein oracle only."""
    total = sum(a2_skein(r) for r in resolutions(p))
    return Fraction(total, 2 ** p.n)


def vertex_dart_table(word):
    """Per vertex: (in1, out1, in2, out2) darts of its two passages."""
    m = len(word)
    occ = {}
    for t, v in enumerate(word):
        occ.setdefault(v, []).append(t)
    return {
        v: (2 * ((t1 - 1) % m) + 1, 2 * t1, 2 * ((t2 - 1) % m) + 1, 2 * t2)
        for v, (t1, t2) in occ.items()
    }


def crossing_sign(rotation, darts, first_over):
    """A crossing's sign read off its vertex ring.

    +1 when the under strand's in-dart follows the over strand's out-dart in
    ``rotation``; ``darts`` is the vertex's (in1, out1, in2, out2).
    """
    in1, out1, in2, out2 = darts
    over_out = out1 if first_over else out2
    under_in = in2 if first_over else in1
    return 1 if rotation.index(under_in) == (rotation.index(over_out) + 1) % 4 else -1


def dart_average_a2(p):
    """The pair sum read from the embedding: crossing signs off the rotations.

    An interleaved pair a, b (first[a] < first[b] < second[a] < second[b])
    adds a quarter of sign(a) * sign(b), each sign taken with the bit that
    the arrow pattern ``invariants._PV_*`` asks of its chord.
    """
    table = vertex_dart_table(p.word)
    first = {}
    second = {}
    for t, v in enumerate(p.word):
        (second if v in first else first)[v] = t
    rot = p.rotations
    a_over = not invariants._PV_FIRST_UNDER
    b_over = not invariants._PV_SECOND_UNDER
    sign_a = {v: crossing_sign(rot[v - 1], table[v], a_over) for v in first}
    sign_b = {v: crossing_sign(rot[v - 1], table[v], b_over) for v in first}
    order = list(first)  # chords by first occurrence
    total = 0
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if first[b] > second[a]:
                break
            if second[b] > second[a]:
                total += sign_a[a] * sign_b[b]
    return Fraction(total, 4)


def rerealizing_move(p, move):
    """A move on the code: drop the site's chords, realize the rest from scratch.

    The embedding of the result is the first one of the pruned code, not
    necessarily the curve the move leaves.  Applicability is read off the
    faces (:func:`face_moves`).
    """
    if move not in face_moves(p):
        raise InapplicableMove(f"{move} is not applicable to {p!r}")
    drop = set(move.site)
    return realize(ChordDiagram.from_labels(x for x in p.word if x not in drop))


def realized_connected_sum(p1, p2, site1, site2):
    """The splice of two curves with crossings, through ``from_labels`` and
    ``realize``: validation, the parity check and the rotation search."""
    w2 = p2.word
    shifted = tuple(x + p1.n for x in w2[site2 + 1:] + w2[: site2 + 1])
    merged = p1.word[: site1 + 1] + shifted + p1.word[site1 + 1:]
    return realize(ChordDiagram.from_labels(merged))


def ordered_splices(pools, max_n):
    """Every ordered splice of two words from ``pools`` with n1 + n2 <= max_n.

    ``pools`` maps n to words with n chords.  The result maps (w1, s1, w2,
    s2), for each ordered pair of words and each pair of sites, to the
    spliced word and its triple-chord count.  The spliced word is w2 read
    from position s2 + 1, its labels shifted by n1, inserted after position
    s1 of w1, not relabeled; the count is the triangles
    (``chords._triangles``) of the word's own interlacement graph
    (``chords._interlacement_bits``).  This is the sweep of every ordered
    site pair that the connected-sum check's one splice per class stands
    for.
    """
    out = {}
    for n1, words1 in pools.items():
        for n2, words2 in pools.items():
            if n1 + n2 > max_n:
                continue
            for w1 in words1:
                for w2 in words2:
                    for s2 in range(2 * n2):
                        block = tuple(x + n1 for x in w2[s2 + 1:] + w2[: s2 + 1])
                        for s1 in range(2 * n1):
                            word = w1[: s1 + 1] + block + w1[s1 + 1:]
                            tr = chords._triangles(chords._interlacement_bits(word))
                            out[w1, s1, w2, s2] = word, tr
    return out


def cyclic_class(word):
    """The least rotation of ``word``, relabeled by first occurrence.

    Two words have the same class exactly when one is a rotation of the
    other up to relabeling.
    """
    return min(_relabel(word[r:] + word[:r]) for r in range(len(word)))


def _cyclic_interior(m: int, s: int, e: int) -> list[int]:
    out = []
    i = (s + 1) % m
    while i != e:
        out.append(i)
        i = (i + 1) % m
    return out


def find_teardrops(p):
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


def filtered_innermost_teardrop(p):
    """The innermost teardrop by its definition: drop every teardrop whose
    interval properly contains another's, then take the least of the rest by
    (interval length, origin, loop start)."""
    cands = find_teardrops(p)
    sets = [frozenset(t.interval) for t in cands]
    inner = [t for t, si in zip(cands, sets) if not any(sj < si for sj in sets)]
    return min(inner, key=lambda t: (len(t.interval), t.origin, t.loop_start))


def face_moves(p):
    """Every applicable move, read off ``Face`` objects.

    The faces are traced off the vertex rings (:func:`ring_traced_faces`),
    and there must be n + 2 of them.  Each degree-1 face gives 1b at its one
    corner, and each strong 2-gon by the interlacement definition
    (:func:`strong_bigon_sites`) gives s2b at its two corners.  1b sites
    first, each site listed once, ascending.
    """
    if not p.n:
        return []
    faces = ring_traced_faces(p.word, mask_rings(p.word, p.flips))
    assert len(faces) == p.n + 2, p
    ones = sorted({f.corners[0] for f in faces if f.degree == 1})
    twos = sorted(set(strong_bigon_sites(faces, p.code)))
    return [Move("1b", (v,)) for v in ones] + [Move("s2b", ab) for ab in twos]


def dropped_curve(p, site):
    """``p`` with the crossings in ``site`` deleted, each survivor keeping its flip.

    The survivors are relabeled by first occurrence (``from_labels``), each
    carrying its flip bit to its new label.
    """
    kept = [x for x in p.word if x not in site]
    cd = ChordDiagram.from_labels(kept)
    mask = 0
    for old, new in dict(zip(kept, cd.word)).items():
        mask |= (p.flips >> (old - 1) & 1) << (new - 1)
    return PlanarCurve(cd, mask)


def stepwise_reduce(p):
    """The greedy reduction with a face trace after every move.

    Each step lists the moves with :func:`face_moves`, which also checks
    that the curve reached has n + 2 faces, and deletes the first one's
    crossings with :func:`dropped_curve`.  Returns the (move, word) steps and
    the curve where the run stopped.
    """
    steps = []
    cur = p
    while cur.n:
        ms = face_moves(cur)
        if not ms:
            break
        cur = dropped_curve(cur, ms[0].site)
        steps.append((ms[0], cur.word))
    return steps, cur


def strong_bigon_sites(faces, cd):
    """The sorted corner pair of each strong 2-gon among ``faces``.

    Strong by the interlacement definition: the two corners are distinct
    chords that do not interleave in :func:`interleavement_graph`.
    """
    g = interleavement_graph(cd)
    out = []
    for f in faces:
        if f.degree == 2:
            a, b = f.corners
            if a != b and b not in g[a]:
                out.append((min(a, b), max(a, b)))
    return out


def weak_variant(word, t1, t2):
    """Deliberately wrong strongness rule, for mutation tests that patch
    ``planar._is_strong``: a 2-gon on edges t1 and t2 counts when its
    corner chords interleave (the pattern the real rule excludes) instead of
    nesting.  Both edges join the same two corners, word[t1] and
    word[t1 + 1]."""
    a, b = word[t1], word[(t1 + 1) % len(word)]
    return a != b and interleaved(ChordDiagram(word), a, b)


def face_record(p):
    """A dataset record's face and class fields, from ``Face`` objects.

    The faces are traced off the vertex rings (:func:`ring_traced_faces`),
    the strong 2-gons read by the interlacement definition, ``prime`` by the
    member-array split and ``in_S`` by the greedy run with a face trace after
    every move (:func:`stepwise_reduce`).  U's two faces have degree 0.
    """
    if p.n:
        faces = ring_traced_faces(p.word, mask_rings(p.word, p.flips))
        degrees = [f.degree for f in faces]
    else:
        faces, degrees = [], [0, 0]
    return {
        "face_degrees": tuple(sorted(degrees)),
        "monogons": degrees.count(1),
        "strong_bigons": len(strong_bigon_sites(faces, p.code)),
        "prime": p.n >= 1 and split_connected_sum_members(p.code) is None,
        "in_S": stepwise_reduce(p)[1].n == 0,
    }


def dfs_in_S(p):
    """Membership in S by memoized backtracking over re-realizing moves.

    Tries the moves :func:`face_moves` lists in order, keyed per canonical
    code, and rebuilds the first successful path as the witness.
    """
    memo = {}
    succ = {}

    def dfs(cur):
        key = str(canonicalize(cur.code))
        if key in memo:
            return memo[key]
        if cur.n == 0:
            memo[key] = True
            return True
        memo[key] = False
        for mv in face_moves(cur):
            child = rerealizing_move(cur, mv)
            if dfs(child):
                memo[key] = True
                succ[key] = (mv, child)
                return True
        return False

    if not dfs(p):
        return False, None
    steps = []
    cur = p
    while cur.n:
        mv, child = succ[str(canonicalize(cur.code))]
        steps.append((mv, canonicalize(child.code)))
        cur = child
    return True, ReductionTrace(
        start=canonicalize(p.code), steps=tuple(steps), terminal=canonicalize(cur.code)
    )


def embedding_key(p):
    """A key equal for two embedded curves exactly when they are isomorphic.

    The least (word, flips) over every base point and both directions of
    traversal, relabeled by first occurrence.  Rotations are read as
    geometric cyclic orders of darts, which neither change is allowed to
    alter; mirror images get different keys.
    """
    w = p.word
    m = len(w)
    nxt = {}
    for rot in p.rotations:
        for k in range(4):
            nxt[rot[k]] = rot[(k + 1) % 4]
    best = ((), ())
    for rev in (False, True):
        for r in range(m):
            # new position i holds old position at[i]; old_dart maps new darts back
            at = [(r - i) % m if rev else (r + i) % m for i in range(m)]
            old_dart = {}
            for t in range(m):
                if rev:  # new edge t runs from old position at[t] back to at[t] - 1
                    old_dart[2 * t] = 2 * ((at[t] - 1) % m) + 1
                    old_dart[2 * t + 1] = 2 * ((at[t] - 1) % m)
                else:
                    old_dart[2 * t] = 2 * at[t]
                    old_dart[2 * t + 1] = 2 * at[t] + 1
            ren = {}
            word = tuple(ren.setdefault(w[i], len(ren) + 1) for i in at)
            occ = {}
            for t, lab in enumerate(word):
                occ.setdefault(lab, []).append(t)
            flips = []
            for lab in range(1, len(occ) + 1):
                t1, t2 = occ[lab]
                in1 = old_dart[2 * ((t1 - 1) % m) + 1]
                in2 = old_dart[2 * ((t2 - 1) % m) + 1]
                flips.append(nxt[in1] != in2)
            key = (word, tuple(flips))
            if best == ((), ()) or key < best:
                best = key
    return best


@pytest.fixture(scope="session")
def census():
    with open(FIXTURES / "census_counts.json", encoding="utf-8") as fh:
        return json.load(fh)
