"""Machine checks of the package's mathematical claims over full enumerations.

Each check sweeps every enumerated curve up to a crossing bound
(connected-sum-lemma: the pairs of curves below it with at most the bound in
all, counted as ``curves_tested``) and returns a :class:`CheckReport`.  A
report passes exactly when its violation list is empty; ``witnesses`` carries
informative non-violations (strictness examples, expected exclusions).
Reports serialize deterministically — elapsed time is kept on the dataclass
for humans but left out of the JSON so that repeated runs are byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CheckReport:
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


def check_main_theorem(max_n: int) -> CheckReport:
    """Triple-chord-free curves have a monogon or strong 2-gon and reduce to U.

    One greedy run per curve (``moves._reduce``) tests both: a run stuck
    before its first move breaks the first, one stuck later the second.
    The runs share one verdict table for this call, so each stops at the
    first state an earlier run decided; a curve that fails is run again
    with no table, to the curve where it sticks, to word the violation.
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    table = {}
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


def check_inclusion_chain(max_n: int) -> CheckReport:
    """x=0 => tr=0; tr=0 => in S; in S => arnold invariant 0.

    Strictness witnesses (curves separating consecutive classes) are reported
    but are not violations.  The greedy runs share one verdict table for
    this call (``moves._reaches_U``).
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    witnesses = []
    table = {}
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
    """
    t0 = time.perf_counter()
    tested = 0
    violations = []
    pools = {
        n: [p for p in enumerate_curves(n) if not chords.count_tr(p.code)]
        for n in range(1, max_n)
    }
    for n1 in range(1, max_n):
        for n2 in range(1, max_n - n1 + 1):
            for p1 in pools[n1]:
                w1 = p1.word
                for p2 in pools[n2]:
                    w2 = p2.word
                    tested += 1
                    for s1 in range(2 * n1):
                        for s2 in range(2 * n2):
                            w = planar._splice_word(w1, w2, s1, s2)
                            tr = chords._triangles(chords._interlacement_bits(w))
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
_CHECKS = {
    "main-theorem": lambda max_n: check_main_theorem(max_n),
    "inclusion-chain": lambda max_n: check_inclusion_chain(max_n),
    "two-strong-bigons": lambda max_n: check_two_strong_bigons(max_n),
    "connected-sum-lemma": lambda max_n: check_connected_sum_lemma(max_n),
    "teardrop-reversal": lambda max_n: check_teardrop_reversal(max_n),
}

CHECK_IDS = tuple(_CHECKS)


def run_check(check_id: str, max_n: int) -> CheckReport:
    """Run one check by identifier.

    Raises KeyError for an identifier not in :data:`CHECK_IDS`, and, before
    anything is enumerated, :class:`BudgetExceeded` for a negative bound or
    where :func:`check_budget` refuses the largest n the check enumerates:
    ``max_n``, or ``max_n - 1`` for connected-sum-lemma.
    """
    check = _CHECKS[check_id]
    _check_nonnegative(max_n)
    check_budget(max_n - 1 if check_id == "connected-sum-lemma" and max_n else max_n)
    return check(max_n)
