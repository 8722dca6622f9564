"""Machine checks of the package's mathematical claims over full enumerations.

Each check sweeps every enumerated curve up to a crossing bound
(connected-sum-lemma: the pairs of curves below it with at most the bound in
all, counted as ``curves_tested``) and returns a :class:`CheckReport`.  A
report passes exactly when its violation list is empty; ``witnesses`` carries
informative non-violations (strictness examples, expected exclusions).
Reports serialize deterministically — elapsed time is kept on the report
for humans but left out of the JSON so that repeated runs are byte-identical.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import chords, moves, planar
from .enumeration import _check_nonnegative, check_budget, enumerate_curves
from .invariants import arnold_invariant, format_rational
from .planar import PlanarCurve

__all__ = [
    "CheckReport",
    "check_main_theorem",
    "check_inclusion_chain",
    "check_two_strong_bigons",
    "check_connected_sum_lemma",
    "check_teardrop_reversal",
    "CHECK_IDS",
    "run_check",
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


def _code(p: PlanarCurve) -> str:
    return str(chords.canonicalize(p.code))


def check_main_theorem(max_n: int, *, table: dict | None = None) -> CheckReport:
    """Triple-chord-free curves have a monogon or strong 2-gon and reduce to U.

    One greedy run per curve (``moves._reduce``) tests both: a run stuck
    before its first move breaks the first, one stuck later the second.
    The runs share one verdict table, so each stops at the first state an
    earlier run decided: ``table`` if given (``moves._reduce``'s table,
    read and written, so a caller can share it with other sweeps of the
    same move rules), else a fresh one for this call.  A curve that fails
    is run again with no table, to the curve where it sticks, to word the
    violation.
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    table = {} if table is None else table
    for n in range(1, max_n + 1):
        for p in enumerate_curves(n):
            if chords.count_tr(p.code):
                continue
            tested += 1
            if moves._reaches_U(p, table):
                continue
            steps, cur = moves._reduce(p)
            why = moves._stuck(cur) if steps else "no monogon and no strong 2-gon"
            violations.append((_code(p), str(why)))
    return CheckReport(
        "main-theorem", max_n, tested, tuple(violations), time.perf_counter() - t0
    )


def check_inclusion_chain(max_n: int, *, table: dict | None = None) -> CheckReport:
    """x=0 => tr=0; tr=0 => in S; in S => arnold invariant 0.

    Strictness witnesses (curves separating consecutive classes) are reported
    but are not violations.  The greedy runs share one verdict table
    (``moves._reaches_U``): ``table`` if given, as in
    :func:`check_main_theorem`, else a fresh one for this call.
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    witnesses = []
    table = {} if table is None else table
    for n in range(0, max_n + 1):
        for p in enumerate_curves(n):
            tested += 1
            cd = p.code
            x = chords.count_x(cd)
            tr = chords.count_tr(cd)
            if x == 0 and tr != 0:
                violations.append((_code(p), f"x=0 but tr={tr}"))
            member = moves._reaches_U(p, table)
            if tr == 0 and not member:
                violations.append((_code(p), "tr=0 but not in S"))
            if tr == 0 and x > 0:
                witnesses.append((_code(p), f"strict: tr=0, x={x}"))
            if member and tr > 0:
                witnesses.append((_code(p), f"strict: in S, tr={tr}"))
            a = arnold_invariant(p)
            if member and a != 0:
                violations.append((_code(p), f"in S but arnold={format_rational(a)}"))
            if a == 0 and not member:
                witnesses.append((_code(p), "strict: arnold=0, not in S"))
    return CheckReport(
        "inclusion-chain",
        max_n,
        tested,
        tuple(violations),
        time.perf_counter() - t0,
        tuple(witnesses),
    )


def check_two_strong_bigons(max_n: int) -> CheckReport:
    """Reduced triple-chord-free curves with n >= 1 have at least 2 strong 2-gons."""
    t0 = time.perf_counter()
    tested = 0
    violations = []
    for n in range(1, max_n + 1):
        for p in enumerate_curves(n):
            if chords.count_tr(p.code) or not planar.is_reduced(p):
                continue
            tested += 1
            k = len(planar._strong_sites(p.word, p._walk[1]))
            if k < 2:
                violations.append((_code(p), f"only {k} strong 2-gon(s)"))
    return CheckReport(
        "two-strong-bigons", max_n, tested, tuple(violations), time.perf_counter() - t0
    )


def _heads(
    w1: tuple[int, ...],
) -> list[tuple[tuple[list[int], int], tuple[int, ...]]]:
    """For each edge ``site1`` of ``w1``: the reader's state after the head, and the tail.

    The head ``w1[:site1 + 1]`` is read by ``chords._read`` from the empty
    state of w1's n1 chords (the head holds no other label); the tail is
    ``w1[site1 + 1:]``.
    """
    n1 = len(w1) // 2
    heads = []
    for site1 in range(2 * n1):
        rows = [1 << i for i in range(n1)]
        prefix = chords._read(rows, 0, w1[: site1 + 1])
        heads.append(((rows, prefix), w1[site1 + 1:]))
    return heads


def _splice_rows(
    head: tuple[list[int], int], blocks: list[tuple[int, ...]], tail: tuple[int, ...]
) -> list[list[int]]:
    """The interlacement rows of the word head + block + tail, for each block.

    ``head`` is the reader's state after the head (:func:`_heads`); the
    rows of the blocks' n2 chords, labeled n1 + 1..n1 + n2, join it with
    their own bits, and each block and then the tail are read on a copy.
    """
    rows, prefix = head
    n1 = len(rows)
    seeded = rows + [1 << (n1 + j) for j in range(len(blocks[0]) // 2)]
    out = []
    for block in blocks:
        spliced = seeded.copy()
        chords._read(spliced, prefix, block + tail)
        out.append(spliced)
    return out


def check_connected_sum_lemma(max_n: int) -> CheckReport:
    """Splicing two triple-chord-free curves is triple-chord-free, at every site.

    Each splice is read as its word, ``planar._splice_word``: the spliced
    code of ``planar.connected_sum`` before its relabeling by first
    occurrence, with no curve, diagram or relabel built.  Relabeling only
    renames chords, and the triple-chord count does not depend on names, so
    the count is that of ``connected_sum``'s code.  The interlacement graph
    is built from the whole spliced word, not assembled from the summands'
    graphs: that would assume no chord of one summand interleaves a chord
    of the other, which is the lemma's proof, not a test of it.  The check
    stays at the code level: the spliced code is the same for every
    embedding of the summands and for p2's mirror, so it reads no flips,
    and checking the lemma for curves needs a statement about the map.

    The splice at sites (s1, s2) is the head ``w1[:s1 + 1]``, p2's block
    (``planar._splice_block``) and the tail ``w1[s1 + 1:]``.  The
    prefix-XOR reader ``chords._read`` reads the word left to right, and
    its state after the head depends only on the head, which is the same
    symbols for every splice with that p1 and s1.  So that state is read
    once per p1 and s1 (:func:`_heads`), each p2's 2 * n2 blocks are built
    once per n1, and each splice reads its own block and tail on a copy of
    the head's state (:func:`_splice_rows`).  Its rows are then exactly
    ``chords._interlacement_bits`` of its spliced word: every symbol of the
    word is read, in order, and nothing comes from a summand's graph.
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    pools = {
        n: [p for p in enumerate_curves(n) if not chords.count_tr(p.code)]
        for n in range(1, max_n)
    }
    for n1 in range(1, max_n):
        heads = [_heads(p1.word) for p1 in pools[n1]]
        for n2 in range(1, max_n - n1 + 1):
            blocks = [
                [planar._splice_block(p2.word, s2, n1) for s2 in range(2 * n2)]
                for p2 in pools[n2]
            ]
            for p1, p1_heads in zip(pools[n1], heads):
                for p2, p2_blocks in zip(pools[n2], blocks):
                    tested += 1
                    for s1, (head, tail) in enumerate(p1_heads):
                        for s2, rows in enumerate(_splice_rows(head, p2_blocks, tail)):
                            tr = chords._triangles(rows)
                            if tr:
                                violations.append(
                                    (
                                        f"{_code(p1)} # {_code(p2)}",
                                        f"sites ({s1},{s2}): tr={tr}",
                                    )
                                )
    return CheckReport(
        "connected-sum-lemma",
        max_n,
        tested,
        tuple(violations),
        time.perf_counter() - t0,
    )


def check_teardrop_reversal(max_n: int) -> CheckReport:
    """Innermost teardrop of a triple-chord-free curve has order-reversing sigma.

    Curves with triple chords are outside the claim; those among them whose
    sigma fails to reverse are listed as expected-excluded witnesses.
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    witnesses = []
    for n in range(1, max_n + 1):
        for p in enumerate_curves(n):
            td = planar.innermost_teardrop(p)
            sig = td.sigma
            reversing = all(sig[i] > sig[i + 1] for i in range(len(sig) - 1))
            if chords.count_tr(p.code):
                if not reversing:
                    witnesses.append(
                        (_code(p), f"expected-excluded (tr>0): sigma={list(sig)}")
                    )
                continue
            tested += 1
            if not reversing:
                violations.append(
                    (_code(p), f"sigma={list(sig)} at vertex {td.origin} not reversing")
                )
    return CheckReport(
        "teardrop-reversal",
        max_n,
        tested,
        tuple(violations),
        time.perf_counter() - t0,
        tuple(witnesses),
    )


# Entries call the module-level functions by name at run time, so wrappers
# installed on those names (tracers, monkeypatches) also apply through here.
# Only the checks that make greedy runs take the verdict table.
_CHECKS = {
    "main-theorem": lambda max_n, table: check_main_theorem(max_n, table=table),
    "inclusion-chain": lambda max_n, table: check_inclusion_chain(max_n, table=table),
    "two-strong-bigons": lambda max_n, table: check_two_strong_bigons(max_n),
    "connected-sum-lemma": lambda max_n, table: check_connected_sum_lemma(max_n),
    "teardrop-reversal": lambda max_n, table: check_teardrop_reversal(max_n),
}

CHECK_IDS = tuple(_CHECKS)


def run_check(check_id: str, max_n: int, *, table: dict | None = None) -> CheckReport:
    """Run one check by identifier.

    ``table`` is the greedy-run verdict table handed to main-theorem and
    inclusion-chain (the other checks make no greedy run); with None each
    of those calls makes a fresh one.  Raises KeyError for an identifier
    not in :data:`CHECK_IDS`, and, before anything is enumerated,
    :class:`BudgetExceeded` for a negative bound or where
    :func:`check_budget` refuses the largest n the check enumerates:
    ``max_n``, or ``max_n - 1`` for connected-sum-lemma.
    """
    check = _CHECKS[check_id]
    _check_nonnegative(max_n)
    check_budget(max_n - 1 if check_id == "connected-sum-lemma" and max_n else max_n)
    return check(max_n, table)
