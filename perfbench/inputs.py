"""Seeded inputs for the analyze workload, made by splicing Gauss words.

Nothing here imports knotproj: the codes are built from a few known curves
(torus shadows T(2,k), the trefoil, and the unrealizable core
``1 2 3 1 2 4 5 3 4 5``) with connected sums and curls, so the benchmark never
asks the program under test what its inputs are.

Each request class has a fixed code count per crossing number (see ``MIX``),
so a seed changes which codes are sent and in what order, but never how many
of each kind.  That keeps the latency percentiles inside the same class from
seed to seed.
"""

from __future__ import annotations

import random

TREFOIL = (1, 2, 3, 1, 2, 3)
UNREALIZABLE_CORE = (1, 2, 3, 1, 2, 4, 5, 3, 4, 5)

# Codes per class and crossing number.  "arnold" codes are drawn from a fixed
# pool per n and "in_s" codes are the first codes of their pool, all sent in
# every run: their expected outputs are recorded in golden.json.  The in_s set
# does not depend on the seed because an in_S search costs 0.1 s to 3 s at
# n = 14 depending on the code, so a seeded draw of a few codes would move
# the workload's wall time by more than any bound.  "unrealizable" and
# "reject" codes are drawn fresh from the seed, since their expected result
# follows from how they are built.  The 12 unrealizable n = 14 sweeps are the
# slowest bucket after three in_s searches, so the 99th percentile (the 11th
# slowest of 1000) falls inside that bucket rather than on its edge.
MIX = {
    "full": {
        "arnold": {7: 60, 8: 45, 9: 35, 10: 20, 11: 10},
        "in_s": {10: 6, 11: 6, 12: 6, 13: 6, 14: 6},
        "unrealizable": {10: 4, 11: 4, 12: 4, 13: 4, 14: 12},
        "reject": {"malformed": 200, "parity": 572},
    },
    "smoke": {
        "arnold": {7: 4},
        "in_s": {10: 2},
        "unrealizable": {10: 2},
        "reject": {"malformed": 5, "parity": 7},
    },
}

ARNOLD_POOL_SIZE = 24
REJECT_PARITY_N = range(3, 17)


def torus(k: int) -> tuple[int, ...]:
    """The shadow of the torus knot T(2,k): ``1 .. k 1 .. k``."""
    return tuple(range(1, k + 1)) * 2


def code_text(word) -> str:
    return " ".join(map(str, word))


def _rotate(word, rng: random.Random) -> tuple[int, ...]:
    r = rng.randrange(len(word))
    return tuple(word[r:]) + tuple(word[:r])


def _splice(a, b, rng: random.Random) -> tuple[int, ...]:
    """Connected sum: cut ``a`` at a random edge and insert a rotation of ``b``."""
    shift = max(a)
    inner = tuple(x + shift for x in _rotate(b, rng))
    i = rng.randrange(1, len(a) + 1)
    return tuple(a[:i]) + inner + tuple(a[i:])


def _curls(word, count: int, rng: random.Random) -> tuple[int, ...]:
    """Insert ``count`` monogons (a label twice in a row) at random positions."""
    w = list(word)
    for _ in range(count):
        c = max(w, default=0) + 1
        i = rng.randrange(len(w) + 1)
        w[i:i] = [c, c]
    return tuple(w)


def _arnold_base(n: int, rng: random.Random) -> tuple[int, ...]:
    """A realizable curve with at most n crossings to decorate with curls."""
    kinds = [
        lambda: torus(rng.choice([k for k in (5, 7, 9, 11) if k <= n])),
        lambda: _splice(TREFOIL, TREFOIL, rng),
        lambda: _splice(torus(5), TREFOIL, rng),
    ]
    if n >= 9:
        kinds.append(lambda: _splice(_splice(TREFOIL, TREFOIL, rng), TREFOIL, rng))
    return rng.choice(kinds)()


def _not_in_s_composite(rng: random.Random) -> tuple[int, ...]:
    """A connected sum of primes outside S (trefoils and T(2,5))."""
    kinds = [
        lambda: _splice(TREFOIL, TREFOIL, rng),
        lambda: _splice(torus(5), TREFOIL, rng),
        lambda: _splice(_splice(TREFOIL, TREFOIL, rng), TREFOIL, rng),
        lambda: _splice(torus(5), torus(5), rng),
    ]
    return rng.choice(kinds)()


def pool(cls: str, n: int, size: int) -> list[str]:
    """The first ``size`` codes of the seed-independent ``cls`` pool for n."""
    rng = random.Random(f"{cls}/{n}")
    out: list[str] = []
    if cls == "arnold" and n % 2 and n <= 11:
        out.append(code_text(torus(n)))
    while len(out) < size:
        base = _arnold_base(n, rng) if cls == "arnold" else _not_in_s_composite(rng)
        word = _rotate(_curls(base, n - len(base) // 2, rng), rng)
        text = code_text(word)
        if text not in out:
            out.append(text)
    return out


def parity_violation(word) -> bool:
    """Whether some chord interleaves an odd number of chords.

    Written from the definition, independent of the program under test: a
    chord's interleave count is the number of labels that occur exactly once
    strictly between its two occurrences.
    """
    first: dict[int, int] = {}
    for i, x in enumerate(word):
        if x not in first:
            first[x] = i
            continue
        between: dict[int, int] = {}
        for y in word[first[x] + 1 : i]:
            between[y] = between.get(y, 0) + 1
        if sum(1 for c in between.values() if c == 1) % 2:
            return True
    return False


def _parity_reject(n: int, rng: random.Random) -> str:
    labels = [v for v in range(1, n + 1) for _ in (0, 1)]
    while True:
        rng.shuffle(labels)
        if parity_violation(labels):
            return code_text(labels)


def _malformed(rng: random.Random) -> str:
    n = rng.randrange(2, 9)
    word = [v for v in range(1, n + 1) for _ in (0, 1)]
    rng.shuffle(word)
    kind = rng.randrange(4)
    if kind == 0:  # a token that is not an integer
        word[rng.randrange(len(word))] = f"x{rng.randrange(10)}"
    elif kind == 1:  # a label that occurs once
        del word[rng.randrange(len(word))]
    elif kind == 2:  # a label that occurs three times
        word.insert(rng.randrange(1, len(word) + 1), rng.randrange(1, n + 1))
    else:  # a label that is not positive
        word[1:1] = [0, 0]
    return " ".join(map(str, word))


def analyze_codes(seed: int, scale: str) -> list[tuple[str, int, str]]:
    """The seeded request list: ``(class, n, code)`` in sending order.

    ``n`` is 0 for malformed codes.  Codes of the "arnold" class are sent with
    ``--arnold``; all stay at n <= 11, below the CLI's n > 12 guard.
    """
    rng = random.Random(seed)
    mix = MIX[scale]
    reqs: list[tuple[str, int, str]] = []
    for n, count in mix["arnold"].items():
        choices = pool("arnold", n, ARNOLD_POOL_SIZE)
        reqs += [("arnold", n, rng.choice(choices)) for _ in range(count)]
    for n, count in mix["in_s"].items():
        reqs += [("in_s", n, code) for code in pool("in_s", n, count)]
    for n, count in mix["unrealizable"].items():
        for _ in range(count):
            word = _rotate(_curls(UNREALIZABLE_CORE, n - 5, rng), rng)
            reqs.append(("unrealizable", n, code_text(word)))
    ns = list(REJECT_PARITY_N)
    for k in range(mix["reject"]["parity"]):
        n = ns[k % len(ns)]
        reqs.append(("reject", n, _parity_reject(n, rng)))
    reqs += [("reject", 0, _malformed(rng)) for _ in range(mix["reject"]["malformed"])]
    rng.shuffle(reqs)
    return reqs
