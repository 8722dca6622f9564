"""Exhaustive enumeration of spherical curves and the JSONL dataset format.

Curves are enumerated one per equivalence class (rotation, reflection,
relabeling) by generating the canonical double-occurrence words that pass
the first two of Rosenstiehl's conditions for a spherical Gauss code
(C. R. Acad. Sci. Paris 283, 1976; proved by de Fraysseix and Ossona de
Mendez, Discrete Comput. Geom. 22, 1999) and keeping the realizable ones;
the third condition is left to the realization step.  Generation is
canonical-first and pruned as chords close:

* a word can only be canonical when the forward gap of chord 1 equals the
  smallest cyclic gap of any chord, so the search fixes that gap and prunes
  every placement that would undercut it;
* a chord's interlacement neighbourhood N(c) is complete once its second
  endpoint is placed, so a chord that would close interleaving an odd
  number of chords is never placed (parity, the first condition);
* nor is one that would close with an odd number of common neighbours with
  an already closed chord it does not interleave (the second condition);
  both neighbourhoods are complete then, and each non-interleaved pair is
  checked when its later chord closes, so the prune is exact;
* as in orderly generation (R. C. Read, "Every one a winner", Ann. Discrete
  Math. 2, 1978), a partial word is dropped as soon as one of its
  reflections is known to read smaller.

Both conditions speak only of the interlacement graph, which rotating,
reflecting and relabeling the word leave unchanged (up to renaming its
vertices), so a word passes them exactly when its canonical form does: the
prunes lose no class, and the canonicity prune needs no change.  Only the
survivors get the orbit-minimality check, which stops at the first
candidate reading below the word.

Realizability is decided by :func:`knotproj.planar._search_rotations`:
crossing flips are propagated over the interlacement graph in O(n^2) bit
operations and one count of the face orbits confirms or refutes the
candidate rotation system.

Datasets are JSONL: a {"schema":1} header line, then one record per curve,
ordered by (n, code).  Rationals are serialized exactly ("p/q", or "k" for
integers).
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
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
    """Canonical double-occurrence words with n chords that pass Rosenstiehl's
    first two conditions, ascending.

    Chord 1 is fixed to close at ``gap``, the smallest cyclic gap of any
    chord, and placements that would undercut it are pruned.  A chord's
    interlacement neighbourhood N(c) is known the moment it closes: it is the
    set of labels seen exactly once strictly inside its interval, a
    prefix-XOR difference.  Closing a chord with N(c) of odd size is pruned,
    so in every word built each chord interleaves an even number of others.
    Chords 2..gap all cross chord 1, so only odd gaps are searched.

    Each closed chord keeps N(c).  Closing c is also pruned when some closed
    chord a outside N(c) has ``N(a) & N(c)`` of odd size: non-interleaved
    chords of a spherical code share an even number of neighbours.  Every
    non-interleaved pair is checked once, when its later chord closes, and
    with both neighbourhoods complete, so exactly the words failing the
    condition are cut.  The condition reads the interlacement graph alone,
    which rotations and reflections of the word keep, so a word's canonical
    form passes it exactly when the word does: no class loses its canonical
    word, and the canonicity prune below needs no change.

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
        # the interlacement neighbourhood (bit b for label b) of each closed chord
        closed = {1: pref[gap] ^ pref[1]}
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
                nc = pref[i] ^ pref[fp + 1]
                if nc.bit_count() & 1:
                    continue
                if _odd_common_neighbours(nc, closed):
                    continue
                word[i] = lab
                if d == gap and chords._reads_below(
                    tuple(word[i::-1]), 0, tuple(word[: i + 1])
                ):
                    continue
                del open_pos[lab]
                closed[lab] = nc
                pref[i + 1] = pref[i] ^ (1 << lab)
                place(i + 1)
                del closed[lab]
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


def _odd_common_neighbours(nc: int, closed: dict[int, int]) -> bool:
    """Whether some closed chord that a chord with neighbourhood ``nc`` does
    not interleave shares an odd number of neighbours with it.

    ``closed`` maps each closed chord's label a to its neighbourhood N(a);
    bit b of a neighbourhood stands for label b.
    """
    for a, na in closed.items():
        if (na & nc).bit_count() & 1 and not nc >> a & 1:
            return True
    return False


@lru_cache(maxsize=None)
def _curves(n: int) -> tuple[PlanarCurve, ...]:
    if n == 0:
        return (planar.U,)
    found = []
    for w in _canonical_words(n):
        # generated words are normal, each its own orbit minimum
        cd = ChordDiagram._of_canonical(w)
        # the generator already pruned parity failures; this one bitset pass
        # per word guards that prune, and the benchmark's tracer counts the
        # generated words through it
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

    This class is the record schema: its fields, in order, are the keys of a
    dataset line, and the writer and the reader take their field lists from
    it.  ``arnold`` is None when the record was built without the Arnold
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
        code=str(chords.canonicalize(cd)),
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


_FIELDS = fields(EnumerationRecord)
_RECORD_FIELDS = tuple(f.name for f in _FIELDS)
_REQUIRED_FIELDS = tuple(f.name for f in _FIELDS if f.default is MISSING)
# annotations are strings here (postponed evaluation)
_INT_FIELDS = tuple(f.name for f in _FIELDS if f.type == "int")
_BOOL_FIELDS = tuple(f.name for f in _FIELDS if f.type == "bool")


def _record_to_obj(rec: EnumerationRecord) -> dict:
    """The JSON object of a record, its keys in field order.

    ``face_degrees`` becomes a list and ``arnold`` rational text, or is left
    out when it is None.  Fields are read one by one, not with
    ``dataclasses.asdict``, which would deep-copy every record.
    """
    obj = {f: getattr(rec, f) for f in _RECORD_FIELDS}
    obj["face_degrees"] = list(rec.face_degrees)
    if rec.arnold is None:
        del obj["arnold"]
    else:
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
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
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
    return EnumerationRecord(**{**obj, "face_degrees": tuple(fd), "arnold": arnold})


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
