"""Machine checks of the package's mathematical claims over full enumerations.

Each check reads every enumerated curve up to a crossing bound
(connected-sum-lemma: the pairs of curves below it with at most the bound in
all, counted as ``curves_tested``) and returns a :class:`CheckReport`.  A
report passes exactly when its violation list is empty; ``witnesses`` carries
informative non-violations (strictness examples, expected exclusions).
Reports serialize deterministically — elapsed time is kept on the report
for humans but left out of the JSON so that repeated runs are byte-identical.

:func:`run_checks` runs any set of checks in one pass over the census.  For
each n it enumerates the curves once, counts each curve's triple chords
once, and hands that batch to each check in turn; every check sees the
curves in census order.  A check is a visit of one n's batch, which adds to
the check's :class:`_Tally`.  The checks that make greedy runs (main-theorem
and inclusion-chain) share the pass's one table of end states, so a
curve's second run stops at its start.  Between two n the pass keeps only
the tallies, so it holds one n's curves at a time, besides
connected-sum-lemma's pools of triple-chord-free first summands, which
hold only n <= max_n / 2.  A report's ``elapsed`` is its own check's time;
the enumeration and the triple-chord counts belong to the pass.

The triple-chord count does not change when a word is rotated or
relabeled, so connected-sum-lemma reads one splice for each class of
splices that two identities make equal up to rotation and relabeling.
R(w, s) is the rotation of w that starts after site s:

* swap: the splice of p2 into p1 at sites (s1, s2) is a rotation of
  R(w1, s1) followed by R(w2, s2), and the splice of p1 into p2 at
  (s2, s1) is a rotation of the same two parts in the other order, so a
  pair is read only with p1 no later than p2 in census order, and a curve
  spliced into itself only at unordered pairs of site classes;
* site classes: two sites of one summand whose rotations have the same
  back steps give the same rotation up to relabeling, and so the same
  splices, so only the first site of each class is read.

Each splice read is read whole, as one word, by
``chords._interlacement_bits``, the reader every diagram's rows come from:
rows assembled from the summands' interlacement graphs would assume that
no chord of one summand interleaves a chord of the other, which is the
lemma's proof, not a test of it.  ``curves_tested`` counts the ordered
pairs, each at the batch of its larger summand; a failing report lists one
violation per splice read, not one per ordered site pair.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import chords, moves, planar
from .enumeration import _check_nonnegative, check_budget, enumerate_curves
from .invariants import arnold_invariant
from .planar import PlanarCurve

__all__ = [
    "CheckReport",
    "check_main_theorem",
    "check_inclusion_chain",
    "check_two_strong_bigons",
    "check_connected_sum_lemma",
    "check_teardrop_reversal",
    "CHECK_IDS",
    "run_checks",
]


class CheckReport(NamedTuple):
    """Outcome of one check: identifier, scan bound, and findings."""

    check_id: str
    max_n: int
    curves_tested: int
    violations: tuple[tuple[str, str], ...]
    elapsed: float
    witnesses: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "check_id": self.check_id,
            "max_n": self.max_n,
            "curves_tested": self.curves_tested,
            "passed": self.passed,
            "violations": [list(v) for v in self.violations],
            "witnesses": [list(w) for w in self.witnesses],
        }


class _Tally:
    """One check's findings so far in a pass, and the time it has taken.

    ``pools`` maps each n <= max_n / 2 to the triple-chord-free curves with
    n crossings, each with its site classes; only
    connected-sum-lemma fills it.
    """

    def __init__(self, check_id: str, max_n: int):
        self.check_id = check_id
        self.max_n = max_n
        self.tested = 0
        self.violations: list[tuple[str, str]] = []
        self.witnesses: list[tuple[str, str]] = []
        self.pools: dict[int, list[tuple]] = {}
        self.elapsed = 0.0

    def report(self) -> CheckReport:
        return CheckReport(
            self.check_id,
            self.max_n,
            self.tested,
            tuple(self.violations),
            self.elapsed,
            tuple(self.witnesses),
        )


def _code(p: PlanarCurve) -> str:
    return str(chords.canonicalize(p.code))


def _main_theorem(t: _Tally, n: int, batch: list, table: dict) -> None:
    """Triple-chord-free curves have a monogon or strong 2-gon and reduce to U.

    One greedy run per curve (``moves._reduce``) tests both, by where it
    ends: a run that ends on a word as long as the curve's took no move and
    breaks the first, one that ends short of U after a move breaks the
    second.  The runs share the pass's table of end states, so each stops at
    the first loop-free state an earlier run passed, with that run's end.
    """
    for p, tr in batch:
        if tr:
            continue
        t.tested += 1
        word = moves._reduce(p, table)[1][0]
        if not word:
            continue
        short = len(word) < len(p.word)
        why = moves._stuck(word) if short else "no monogon and no strong 2-gon"
        t.violations.append((_code(p), str(why)))


def _inclusion_chain(t: _Tally, n: int, batch: list, table: dict) -> None:
    """x=0 => tr=0; tr=0 => in S; in S => arnold invariant 0.

    Strictness witnesses (curves separating consecutive classes) are reported
    but are not violations.  The greedy runs share the pass's table of end
    states.
    """
    for p, tr in batch:
        t.tested += 1
        x = chords.count_x(p.code)
        if x == 0 and tr != 0:
            t.violations.append((_code(p), f"x=0 but tr={tr}"))
        member = moves._reaches_U(p, table)
        if tr == 0 and not member:
            t.violations.append((_code(p), "tr=0 but not in S"))
        if tr == 0 and x > 0:
            t.witnesses.append((_code(p), f"strict: tr=0, x={x}"))
        if member and tr > 0:
            t.witnesses.append((_code(p), f"strict: in S, tr={tr}"))
        a = arnold_invariant(p)
        if member and a != 0:
            t.violations.append((_code(p), f"in S but arnold={a}"))
        if a == 0 and not member:
            t.witnesses.append((_code(p), "strict: arnold=0, not in S"))


def _two_strong_bigons(t: _Tally, n: int, batch: list, table: dict) -> None:
    """Reduced triple-chord-free curves with n >= 1 have at least 2 strong 2-gons."""
    for p, tr in batch:
        if tr or not planar.is_reduced(p):
            continue
        t.tested += 1
        k = len(planar._strong_sites(p.word, p._walk[1]))
        if k < 2:
            t.violations.append((_code(p), f"only {k} strong 2-gon(s)"))


def _site_classes(w: tuple[int, ...]) -> list[int]:
    """The first site of each class of ``w``'s sites, ascending.

    A site s cuts ``w`` into the rotation ``w[s + 1:] + w[:s + 1]``.  Two
    sites are in one class when their rotations are the same word up to
    relabeling, which is exactly when the rotations' back steps agree:
    ``chords._back_steps(w) * 2`` sliced at ``[s + 1 : s + 1 + m]``.  Back
    steps name no label, and they fix the word up to its labels, since each
    position's partner lies that many steps back.
    """
    m = len(w)
    back = chords._back_steps(w) * 2
    firsts: dict[tuple[int, ...], int] = {}
    for s in range(m):
        firsts.setdefault(tuple(back[s + 1 : s + 1 + m]), s)
    return list(firsts.values())


def _connected_sum_lemma(t: _Tally, n: int, batch: list, table: dict) -> None:
    """Splicing two triple-chord-free curves is triple-chord-free, at every site.

    This n's triple-chord-free curves are the second summands, spliced into
    each pooled first summand with n1 + n <= max_n and n1 <= n, and are
    pooled themselves (with their site classes) only when 2n <= max_n: a
    summand with more crossings is never the first.  So each ordered pair
    of triple-chord-free curves with n1 + n2 <= max_n, at each pair of
    sites, is covered at the batch of its larger summand;
    ``curves_tested`` counts the ordered pairs.  A splice is read as its
    word, ``planar._splice_word``: the spliced code of
    ``planar.connected_sum`` before its relabeling by first occurrence,
    with no curve, diagram or relabel built.  The triple-chord count does
    not change when a word is rotated or relabeled, so one splice is read
    for each class of splices that two identities make equal up to rotation
    and relabeling.  Write R(w, s) for the rotation ``w[s + 1:] + w[:s + 1]``:

    * swap: the splice at (p1, s1, p2, s2), ``w1[:s1 + 1] + block +
      w1[s1 + 1:]``, is a rotation of R(w1, s1) followed by R(w2, s2)
      shifted by n1 (move the head to the end).  The splice at (p2, s2,
      p1, s1) is a rotation of the same two parts in the other order, and
      so of the first splice up to relabeling.  So the pairs with n1 <= n2
      are read, with i1 <= i2 in the pool when n1 == n2, and only unordered
      pairs of site classes when p1 is p2;
    * site classes: sites s and s' of one summand with the same back steps
      (:func:`_site_classes`) give the same R(w, .) up to relabeling, and
      the two parts of a splice carry disjoint labels, so their splices are
      equal up to relabeling.  So only the first site of each class is
      read, on both summands.

    At max-n 7 that is 572 splices in place of the 3,540 ordered ones;
    9,804 in place of 46,780 at max-n 9.  A failing report lists one
    violation per splice read, at its sites, not one per ordered site pair,
    by the larger summand's n, then the smaller's.

    Each splice read is one word, the head ``w1[:s1 + 1]``, p2's block
    (``planar._splice_block``, built once per p2, site class and n1) and
    the tail ``w1[s1 + 1:]``, and its rows are
    ``chords._interlacement_bits`` of that word, the reader every
    diagram's rows come from.  No rows come from a summand's graph:
    assembling them from the summands' graphs would assume that no chord of
    one summand interleaves a chord of the other, which is the lemma's
    proof, not a test of it.  The check stays at the code level: the
    spliced code is the same for every embedding of the summands and for
    p2's mirror, so it reads no flips, and checking the lemma for curves
    needs a statement about the map.
    """
    pools = t.pools
    top = t.max_n
    free = [(p, _site_classes(p.word)) for p, tr in batch if not tr]
    if 2 * n <= top:
        pools[n] = free
    smaller = sum(len(pools[k]) for k in range(1, min(n, top - n + 1)))
    t.tested += len(free) * (2 * smaller + len(pools.get(n, ())))
    for n1 in range(1, min(n, top - n) + 1):
        blocks = [
            (p2, s, [planar._splice_block(p2.word, s2, n1) for s2 in s])
            for p2, s in free
        ]
        for i1, (p1, sites1) in enumerate(pools[n1]):
            w1 = p1.word
            for p2, sites2, p2_blocks in blocks[i1 if n1 == n else 0:]:
                for k1, s1 in enumerate(sites1):
                    head, tail = w1[: s1 + 1], w1[s1 + 1:]
                    k0 = k1 if p1 is p2 else 0
                    for s2, block in zip(sites2[k0:], p2_blocks[k0:]):
                        rows = chords._interlacement_bits(head + block + tail)
                        tr = chords._triangles(rows)
                        if tr:
                            t.violations.append(
                                (
                                    f"{_code(p1)} # {_code(p2)}",
                                    f"sites ({s1},{s2}): tr={tr}",
                                )
                            )


def _teardrop_reversal(t: _Tally, n: int, batch: list, table: dict) -> None:
    """Innermost teardrop of a triple-chord-free curve has order-reversing sigma.

    Curves with triple chords are outside the claim; those among them whose
    sigma fails to reverse are listed as expected-excluded witnesses.
    """
    for p, tr in batch:
        td = planar.innermost_teardrop(p)
        sig = td.sigma
        reversing = all(sig[i] > sig[i + 1] for i in range(len(sig) - 1))
        if tr:
            if not reversing:
                t.witnesses.append(
                    (_code(p), f"expected-excluded (tr>0): sigma={list(sig)}")
                )
            continue
        t.tested += 1
        if not reversing:
            t.violations.append(
                (_code(p), f"sigma={list(sig)} at vertex {td.origin} not reversing")
            )


# check id -> (first n it reads, how far below max_n it stops, its visit of
# one n's batch).  The pass and the visits look up enumerate_curves, count_tr
# and their other helpers by name at run time, so wrappers installed on those
# names (tracers, monkeypatches) apply.
_VISITS = {
    "main-theorem": (1, 0, _main_theorem),
    "inclusion-chain": (0, 0, _inclusion_chain),
    "two-strong-bigons": (1, 0, _two_strong_bigons),
    "connected-sum-lemma": (1, 1, _connected_sum_lemma),
    "teardrop-reversal": (1, 0, _teardrop_reversal),
}

CHECK_IDS = tuple(_VISITS)


def run_checks(check_ids, max_n: int) -> list[CheckReport]:
    """Run the checks named in ``check_ids`` in one pass; their reports, in that order.

    The pass enumerates each n that some check reads: from 0 when
    inclusion-chain runs, else from 1, up to ``max_n``, or ``max_n - 1``
    when connected-sum-lemma runs alone (its summands are each below the
    bound).  Each check visits each n it reads once, in one loop over the
    census.  Raises KeyError for an identifier not in :data:`CHECK_IDS`,
    and, before anything is enumerated, :class:`BudgetExceeded` for a
    negative bound or where :func:`check_budget` refuses the largest n the
    pass enumerates.
    """
    specs = [_VISITS[cid] for cid in check_ids]
    _check_nonnegative(max_n)
    top = max((max_n - below for _, below, _ in specs), default=0)
    check_budget(max(top, 0))
    tallies = [_Tally(cid, max_n) for cid in check_ids]
    table: dict = {}
    for n in range(min((first for first, _, _ in specs), default=1), top + 1):
        batch = [(p, chords.count_tr(p.code)) for p in enumerate_curves(n)]
        for t, (first, below, visit) in zip(tallies, specs):
            if first <= n <= max_n - below:
                t0 = time.perf_counter()
                visit(t, n, batch, table)
                t.elapsed += time.perf_counter() - t0
        del batch  # so this n's curves are freed before the next n is built
    return [t.report() for t in tallies]


def check_main_theorem(max_n: int) -> CheckReport:
    """Triple-chord-free curves have a monogon or strong 2-gon and reduce to U."""
    return run_checks(["main-theorem"], max_n)[0]


def check_inclusion_chain(max_n: int) -> CheckReport:
    """x=0 => tr=0; tr=0 => in S; in S => arnold invariant 0."""
    return run_checks(["inclusion-chain"], max_n)[0]


def check_two_strong_bigons(max_n: int) -> CheckReport:
    """Reduced triple-chord-free curves with n >= 1 have at least 2 strong 2-gons."""
    return run_checks(["two-strong-bigons"], max_n)[0]


def check_connected_sum_lemma(max_n: int) -> CheckReport:
    """Splicing two triple-chord-free curves is triple-chord-free, at every site."""
    return run_checks(["connected-sum-lemma"], max_n)[0]


def check_teardrop_reversal(max_n: int) -> CheckReport:
    """Innermost teardrop of a triple-chord-free curve has order-reversing sigma."""
    return run_checks(["teardrop-reversal"], max_n)[0]
