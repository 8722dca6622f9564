"""Shared oracles for the test suite.

Everything here is deliberately implemented from scratch rather than imported
from the package, so that agreement between a fast route and an oracle route
is evidence and not tautology.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from knotproj import invariants

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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
        rings = vertex_rings(word, tuple(bool(mask >> v & 1) for v in range(n)))
        if trace_face_count(word, rings) == n + 2:
            yield rings


def brute_force_realizable(word):
    """True when some rotation assignment yields n + 2 faces (full sweep)."""
    return next(sweep_realizations(word), None) is not None


def skein_average_a2(p):
    """Average a2 over all resolutions, through the skein oracle only."""
    total = sum(invariants.a2_skein(r) for r in invariants.resolutions(p))
    return Fraction(total, 2 ** p.n)


@pytest.fixture(scope="session")
def census():
    with open(FIXTURES / "census_counts.json") as fh:
        return json.load(fh)
