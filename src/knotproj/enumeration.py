"""Exhaustive enumeration of spherical curves and the JSONL dataset format.

Curves are enumerated one per equivalence class (rotation, reflection,
relabeling) by generating the canonical double-occurrence words that pass
the Gauss parity condition and keeping the realizable ones.  Generation is
canonical-first and parity-pruned: a word can only be canonical when the
forward gap of chord 1 equals the smallest cyclic gap of any chord, so the
search fixes that gap and prunes every placement that would undercut it; a
chord's interlace count is complete once its second endpoint is placed, so
a chord that would close interleaving an odd number of chords is never
placed; and, as in orderly generation (R. C. Read, "Every one a winner",
Ann. Discrete Math. 2, 1978), a partial word is dropped as soon as one of
its reflections is known to read smaller.  Only the survivors get the
orbit-minimality check, which stops at the first candidate reading below
the word.
Realizability is decided by :func:`knotproj.planar._search_rotations`:
crossing flips are propagated over the interlacement graph in O(n^2) bit
operations and one face trace confirms or refutes the candidate rotation
system.

Datasets are JSONL: a {"schema":1} header line, then one record per curve,
ordered by (n, code).  Rationals are serialized exactly ("p/q", or "k" for
integers).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import chords, invariants, moves, planar
from .chords import ChordDiagram
from .errors import BudgetExceeded, SchemaError
from .planar import PlanarCurve

__all__ = [
    "DEFAULT_MAX_N",
    "BUDGET_ENV",
    "EnumerationRecord",
    "enumeration_budget",
    "check_budget",
    "enumerate_curves",
    "build_record",
    "write_dataset",
    "read_dataset",
]

DEFAULT_MAX_N = 8
BUDGET_ENV = "KNOTPROJ_MAX_N"

DEFAULT_ARNOLD_MAX_N = 6


def enumeration_budget() -> int:
    """Largest crossing number enumerate_curves accepts; env-overridable."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise BudgetExceeded(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


def _check_nonnegative(n: int) -> None:
    """Raise :class:`BudgetExceeded` for a negative crossing number."""
    if n < 0:
        raise BudgetExceeded(f"crossing number must be nonnegative, got {n}")


def check_budget(n: int) -> None:
    """Raise :class:`BudgetExceeded` unless ``enumerate_curves(n)`` may run.

    Refuses a negative n (:func:`_check_nonnegative`), an n above
    :func:`enumeration_budget`, and a non-integer budget override in the
    environment.
    """
    _check_nonnegative(n)
    budget = enumeration_budget()
    if n > budget:
        raise BudgetExceeded(
            f"n={n} exceeds the enumeration budget {budget} "
            f"(set {BUDGET_ENV} to raise it)"
        )


def _canonical_words(n: int) -> list[tuple[int, ...]]:
    """Canonical double-occurrence words with n chords that pass parity, ascending.

    Chord 1 is fixed to close at ``gap``, the smallest cyclic gap of any
    chord, and placements that would undercut it are pruned.  A chord's
    interlace count is known the moment it closes: it is the number of labels
    seen exactly once strictly inside its interval, the popcount of a
    prefix-XOR difference.  Closing a chord with an odd count is pruned, so
    in every word built each chord interleaves an even number of others.
    Chords 2..gap all cross chord 1, so only odd gaps are searched.

    Canonicity is pruned as minimal-gap chords close (orderly generation).
    When a chord closes at position i exactly ``gap`` after its first
    endpoint, the reflection of the finished word read backward from i is one
    of the transforms :func:`chords._orbit_min` compares.  Its first i + 1
    symbols are word[i], word[i-1], .., word[0], all placed already, and
    relabeling by first occurrence gives a prefix that depends on them alone.
    If that prefix reads below word[0..i], the reflection reads below every
    completion of the word, so no completion is canonical and the placement
    is skipped; the prune is exact.  Chord 1's own closing reads 1 2 .. gap 1,
    the word's own prefix, and never prunes.  The complete survivors get
    :func:`chords._is_orbit_min`, which also reads the forward transforms.
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
                if not open_pos and chords._is_orbit_min(w):
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
                word[i] = lab
                if d == gap and chords._reads_below(
                    tuple(word[i::-1]), 0, tuple(word[: i + 1])
                ):
                    continue
                del open_pos[lab]
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


@lru_cache(maxsize=None)
def _curves(n: int) -> tuple[PlanarCurve, ...]:
    if n == 0:
        return (planar.U,)
    found = []
    for w in _canonical_words(n):
        cd = ChordDiagram(w)
        # the generator already pruned parity failures; this one bitset pass
        # per word guards that prune
        if chords.gauss_parity_violations(cd):
            continue
        p = planar._search_rotations(cd)
        if p is not None:
            found.append(p)
    return tuple(found)


def enumerate_curves(n: int) -> list[PlanarCurve]:
    """All realizable curves with exactly n crossings, one per class.

    Codes come out canonical and in ascending word order.  Raises
    :class:`BudgetExceeded` where :func:`check_budget` refuses n.
    """
    check_budget(n)
    return list(_curves(n))


@dataclass(frozen=True)
class EnumerationRecord:
    """One dataset row: the canonical code and its computed facts.

    ``arnold`` is None when the record was built without the Arnold
    invariant (the CLI computes it up to ``--arnold-max``); it is then
    omitted from the JSON.
    """

    code: str
    n: int
    x: int
    tr: int
    face_degrees: tuple[int, ...]
    monogons: int
    strong_bigons: int
    reduced: bool
    prime: bool
    in_S: bool
    arnold: Fraction | None = None


def build_record(p: PlanarCurve, with_arnold: bool = True) -> EnumerationRecord:
    """Compute a record for one realized curve."""
    cd = p.code
    return EnumerationRecord(
        code=chords.canonicalize(cd).text,
        n=p.n,
        x=chords.count_x(cd),
        tr=chords.count_tr(cd),
        face_degrees=tuple(sorted(f.degree for f in p.faces)),
        monogons=len(planar.monogons(p)),
        strong_bigons=len(planar.strong_bigons(p)),
        reduced=planar.is_reduced(p),
        prime=p.n >= 1 and chords.split_connected_sum(cd) is None,
        in_S=moves._reaches_U(p),
        arnold=invariants.arnold_invariant(p) if with_arnold else None,
    )


_RECORD_FIELDS = (
    "code",
    "n",
    "x",
    "tr",
    "face_degrees",
    "monogons",
    "strong_bigons",
    "reduced",
    "prime",
    "in_S",
    "arnold",
)

_INT_FIELDS = ("n", "x", "tr", "monogons", "strong_bigons")
_BOOL_FIELDS = ("reduced", "prime", "in_S")


def _record_to_obj(rec: EnumerationRecord) -> dict:
    obj = {
        "code": rec.code,
        "n": rec.n,
        "x": rec.x,
        "tr": rec.tr,
        "face_degrees": list(rec.face_degrees),
        "monogons": rec.monogons,
        "strong_bigons": rec.strong_bigons,
        "reduced": rec.reduced,
        "prime": rec.prime,
        "in_S": rec.in_S,
    }
    if rec.arnold is not None:
        obj["arnold"] = invariants.format_rational(rec.arnold)
    return obj


def write_dataset(records, path) -> None:
    """Write records as JSONL, schema line first, ordered by (n, code)."""
    ordered = sorted(records, key=lambda r: (r.n, tuple(map(int, r.code.split()))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": 1}, separators=(",", ":")) + "\n")
        for rec in ordered:
            fh.write(json.dumps(_record_to_obj(rec), separators=(",", ":")) + "\n")


def _parse_record(obj: dict, line: int) -> EnumerationRecord:
    if not isinstance(obj, dict):
        raise SchemaError("record is not a JSON object", line)
    unknown = sorted(set(obj) - set(_RECORD_FIELDS))
    if unknown:
        raise SchemaError(f"unknown field(s) {unknown}", line)
    missing = [f for f in _RECORD_FIELDS if f != "arnold" and f not in obj]
    if missing:
        raise SchemaError(f"missing field(s) {missing}", line)
    if not isinstance(obj["code"], str):
        raise SchemaError("code must be a string", line)
    for f in _INT_FIELDS:
        if not isinstance(obj[f], int) or isinstance(obj[f], bool):
            raise SchemaError(f"{f} must be an integer", line)
    for f in _BOOL_FIELDS:
        if not isinstance(obj[f], bool):
            raise SchemaError(f"{f} must be a boolean", line)
    fd = obj["face_degrees"]
    if not isinstance(fd, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in fd
    ):
        raise SchemaError("face_degrees must be a list of integers", line)
    arnold = None
    if "arnold" in obj:
        if not isinstance(obj["arnold"], str):
            raise SchemaError("arnold must be a rational string", line)
        try:
            arnold = invariants.parse_rational(obj["arnold"])
        except ValueError as exc:
            raise SchemaError(str(exc), line) from None
    return EnumerationRecord(
        code=obj["code"],
        n=obj["n"],
        x=obj["x"],
        tr=obj["tr"],
        face_degrees=tuple(fd),
        monogons=obj["monogons"],
        strong_bigons=obj["strong_bigons"],
        reduced=obj["reduced"],
        prime=obj["prime"],
        in_S=obj["in_S"],
        arnold=arnold,
    )


def read_dataset(path) -> list[EnumerationRecord]:
    """Read a JSONL dataset back; schema violations name the offending line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty file: missing schema line", 1)
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", 1) from None
    if head != {"schema": 1}:
        raise SchemaError(f'expected {{"schema": 1}}, got {lines[0]!r}', 1)
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", i) from None
        records.append(_parse_record(obj, i))
    return records
