"""Combinatorics of spherical knot projections.

Gauss codes and chord diagrams, spherical realization as combinatorial maps,
the 1b/s2b reduction calculus, the averaged-a2 invariant, exhaustive small-n
enumeration, and machine verification of the structural claims tying them
together.
"""

from . import errors
from .chords import (
    ChordDiagram,
    canonicalize,
    count_tr,
    count_x,
    gauss_parity_violations,
    interleaved,
    is_nugatory,
    parse_code,
    split_connected_sum,
)
from .enumeration import (
    EnumerationRecord,
    build_record,
    enumerate_curves,
    enumeration_budget,
    read_dataset,
    write_dataset,
)
from .invariants import (
    Resolution,
    a2_gauss_formula,
    arnold_invariant,
    average_a2,
    format_rational,
    parse_rational,
    resolve,
)
from .moves import Move, ReductionTrace, applicable_moves, apply_move, in_S, reduce_no_triple
from .planar import (
    Face,
    PlanarCurve,
    Teardrop,
    U,
    all_realizations,
    connected_sum,
    find_teardrops,
    innermost_teardrop,
    is_reduced,
    monogons,
    prime_decompose,
    realize,
    strong_bigons,
)
from .verify import (
    CHECK_IDS,
    CheckReport,
    check_connected_sum_lemma,
    check_inclusion_chain,
    check_main_theorem,
    check_teardrop_reversal,
    check_two_strong_bigons,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ChordDiagram",
    "canonicalize",
    "count_tr",
    "count_x",
    "gauss_parity_violations",
    "interleaved",
    "is_nugatory",
    "parse_code",
    "split_connected_sum",
    "EnumerationRecord",
    "build_record",
    "enumerate_curves",
    "enumeration_budget",
    "read_dataset",
    "write_dataset",
    "Resolution",
    "a2_gauss_formula",
    "arnold_invariant",
    "average_a2",
    "format_rational",
    "parse_rational",
    "resolve",
    "Move",
    "ReductionTrace",
    "applicable_moves",
    "apply_move",
    "in_S",
    "reduce_no_triple",
    "Face",
    "PlanarCurve",
    "Teardrop",
    "U",
    "all_realizations",
    "connected_sum",
    "find_teardrops",
    "innermost_teardrop",
    "is_reduced",
    "monogons",
    "prime_decompose",
    "realize",
    "strong_bigons",
    "CHECK_IDS",
    "CheckReport",
    "check_connected_sum_lemma",
    "check_inclusion_chain",
    "check_main_theorem",
    "check_teardrop_reversal",
    "check_two_strong_bigons",
    "run_check",
    "__version__",
]
