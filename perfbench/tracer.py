"""Spans around the calls into each knotproj module, for the traced run.

``Tracer.install`` replaces each function in ``SPANS`` by a wrapper in every
knotproj module namespace that holds it, so by-name imports (``verify`` imports
``enumerate_curves`` and ``arnold_invariant``, ``moves`` imports
``canonicalize`` and ``count_tr``, the package re-exports nearly everything)
are traced too.  Per-pair helpers (``chords.interleaved``,
``ChordDiagram.positions``, ``planar._trace_faces``) are left alone, so the
wrappers cost little next to the work they time.

Spans are aggregated in memory by (parent span, span): calls, inclusive time
and self time (inclusive time minus the time of child spans).  Storing every
span would cost more memory than the work it measures: the census run makes
well over 100,000 calls.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "<request>"

# (module, function, span name)
SPANS = [
    ("chords", "parse_code", "chords.parse_code"),
    ("chords", "canonicalize", "chords.canonicalize"),
    ("chords", "count_x", "chords.count_x"),
    ("chords", "count_tr", "chords.count_tr"),
    ("chords", "gauss_parity_violations", "chords.gauss_parity_violations"),
    ("chords", "split_connected_sum", "chords.split_connected_sum"),
    ("planar", "realize", "planar.realize"),
    ("planar", "_search_rotations", "planar._search_rotations"),
    ("planar", "connected_sum", "planar.connected_sum"),
    ("planar", "monogons", "planar.monogons"),
    ("planar", "strong_bigons", "planar.strong_bigons"),
    ("planar", "is_reduced", "planar.is_reduced"),
    ("planar", "prime_decompose", "planar.prime_decompose"),
    ("planar", "innermost_teardrop", "planar.innermost_teardrop"),
    ("moves", "in_S", "moves.in_S"),
    ("moves", "apply_move", "moves.apply_move"),
    ("moves", "applicable_moves", "moves.applicable_moves"),
    ("moves", "reduce_no_triple", "moves.reduce_no_triple"),
    ("invariants", "arnold_invariant", "invariants.arnold_invariant"),
    ("enumeration", "enumerate_curves", "enumeration.enumerate_curves"),
    ("enumeration", "build_record", "enumeration.build_record"),
    ("enumeration", "write_dataset", "enumeration.write_dataset"),
    ("verify", "check_main_theorem", "verify.main-theorem"),
    ("verify", "check_inclusion_chain", "verify.inclusion-chain"),
    ("verify", "check_two_strong_bigons", "verify.two-strong-bigons"),
    ("verify", "check_connected_sum_lemma", "verify.connected-sum-lemma"),
    ("verify", "check_teardrop_reversal", "verify.teardrop-reversal"),
    ("cli", "main", "cli.main"),
]

# Called once per resolution (2^n times per Arnold invariant): counted, not
# timed, so its time stays in arnold_invariant's self time.
COUNTS = [("invariants", "a2_gauss_formula", "invariants.a2_gauss_formula")]

# Spans whose per-call durations are kept, for percentiles.
KEEP_DURATIONS = {"planar.realize"}


def _outcome(name: str, result, exc) -> str | None:
    """A label for calls whose result the metrics count, else None."""
    if name == "planar.realize" and exc is not None:
        if type(exc).__name__ == "NotRealizable":
            return "not_realizable"
    elif name == "planar._search_rotations" and exc is None and result is not None:
        return "found"
    elif name == "moves.in_S" and exc is None and result[0]:
        return "true"
    return None


class Tracer:
    """Aggregated spans of one worker process."""

    def __init__(self):
        self.stack = [[ROOT, 0.0]]  # open spans: [name, time of child spans]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.outcomes = Counter()  # (parent, name, label) -> calls
        self.counts = Counter()  # name -> calls
        self.durations = defaultdict(list)  # name -> per-call seconds

    def _span(self, name: str, fn):
        stack, edges, outcomes = self.stack, self.edges, self.outcomes
        durations = self.durations[name] if name in KEEP_DURATIONS else None

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                edge = edges[(parent[0], name)]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
                if durations is not None:
                    durations.append(dt)
                label = _outcome(name, result, exc)
                if label is not None:
                    outcomes[(parent[0], name, label)] += 1

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper wherever it is bound."""
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "knotproj" or key.startswith("knotproj.")
        ]
        for targets, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for mod, attr, name in targets:
                original = getattr(importlib.import_module(f"knotproj.{mod}"), attr, None)
                if original is None:  # gone from the program: its metrics read 0
                    continue
                wrapped = make(name, original)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapped)

    def report(self) -> dict:
        """Aggregates in a JSON-friendly form."""
        return {
            "edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items())],
            "outcomes": [[p, n, lab, c] for (p, n, lab), c in sorted(self.outcomes.items())],
            "counts": dict(self.counts),
            "p99_ms": {
                k: 1000 * percentile(v, 99) for k, v in self.durations.items() if v
            },
        }


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1]
