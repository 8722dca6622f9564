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
  every placement that would undercut it; chord 1 is placed by the same
  steps as every chord, and at position gap only its close is tried;
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
operations and one walk of the face permutation confirms or refutes the
candidate rotation system.  It reads the interlacement rows that each
generated diagram brings from the search.

A record reads its face degrees, monogons and strong 2-gons off one such
walk (:func:`knotproj.planar._face_walk`), with no face list built.

:func:`enumerate_curves` keeps nothing between calls: each call generates
and realizes its n afresh, and the curves live as long as the caller holds
the list.  Each command reads each n once (``enumerate`` record by record,
``verify`` in its one pass), so only the n in hand is alive.

Datasets are JSONL: a {"schema":1} header line, then one record per curve,
ordered by (n, code).  The Arnold invariant is written as a decimal integer
string.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple, get_type_hints

from . import chords, invariants, moves, planar
from .chords import ChordDiagram
from .errors import BudgetExceeded, MalformedCode, SchemaError
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
    """Largest crossing number enumerate_curves accepts; env-overridable.

    The override is written in ASCII decimal digits only, as ``parse_code``
    reads a label: no sign, space, underscore or other script.
    """
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        # int() alone also takes "+9", " 9", "1_0", "-1" and non-ASCII digits
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError
        return int(raw)  # ValueError too past the interpreter's digit limit
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


def _canonical_words(n: int) -> list[ChordDiagram]:
    """The diagrams of the canonical double-occurrence words with n chords
    that pass Rosenstiehl's first two conditions, ascending.

    Each odd ``gap``, the smallest cyclic gap of any chord, gets one search
    (chords 2..gap all cross chord 1, so N(1) is even only when gap is odd).
    Each position either closes an open chord at least ``gap`` long or
    opens the next fresh label; chord 1 takes the same steps.  Positions
    1..gap-1 close nothing, so they open 2..gap, and position gap opens
    nothing, so chord 1, the only chord open that long, closes there.

    A chord's interlacement neighbourhood N(c) is known the moment it
    closes: it is the set of labels seen exactly once strictly inside its
    interval, a prefix-XOR difference.  Each closed chord keeps N(c) for the
    parity and second-condition prunes the module docstring states.

    Canonicity is pruned as minimal-gap chords close (orderly generation).
    When a chord closes at position i exactly ``gap`` after its first
    endpoint, the reflection of the finished word read backward from i is one
    of the transforms :func:`chords._orbit_min` compares.  Its first i + 1
    symbols are word[i], word[i-1], .., word[0], all placed already, and
    relabeling by first occurrence gives a prefix that depends on them alone.
    If that prefix reads below word[0..i], the reflection reads below every
    completion of the word, so no completion is canonical and the placement
    is skipped; the prune is exact.  Chord 1's close compares no offset
    (the range gap + 1 .. gap is empty) and never prunes.

    No relabeled tuple is built for that comparison.  As a chord of length d
    closes, d is written at its later endpoint and 2n - d at its earlier one,
    in ``back`` (the :func:`chords._back_steps` of the word) and in ``rback``
    (those of the reversed word, where the endpoints swap roles).  In a
    reading, the symbol at offset k repeats a label exactly when its back
    step is at most k, and the label it repeats is the smaller the larger
    that step; otherwise its label is fresh, larger than every label read.
    So keys (that step, or 0 when fresh) order readings as their relabeled
    words do: at the first key that differs, the larger key is the smaller
    word (:func:`chords._precedes`).  Within word[0..i] every step a reading
    must see is written, and every other entry is 0 or a step longer than
    the prefix, which reads as fresh, so the prune compares ``rback`` read
    from the closing position with ``back`` read from 0, from offset
    gap + 1 on (both read 1 2 .. gap 1 before it).

    The survivors get :func:`chords._is_orbit_min` on the same two arrays,
    which lists the only readings that can be least, those that read
    1 2 .. gap 1, with :func:`chords._least_starts`, as
    :func:`chords._orbit_min` does.

    The open chords are a list of first positions, ascending, so one
    comparison with the earliest (the deadline) tells when a chord can no
    longer close within ``m - gap``, and the loop stops at the first that
    would close shorter than ``gap``.  The deadline is needed for
    correctness, not only speed: the leaf test reads only the sides of
    length ``gap``, so it relies on every chord keeping both sides at least
    ``gap`` long, the side it closes on by the loop's stop and the other by
    the deadline.  Without the deadline the output is unchanged for
    n <= 9, but at n = 10 the gap-7 search emits 4 words that are not
    canonical, their least back step 5, such as
    1 2 3 4 5 6 7 1 2 8 4 9 10 5 6 7 8 3 9 10.

    Each diagram carries the rows the search kept, N(a) >> 1, as
    ``ChordDiagram._bits``; its first positions are left to
    ``ChordDiagram._firsts``, found by a scan of the word when
    :func:`planar._flip_coset` first reads them.
    """
    if n == 0:
        return [ChordDiagram._of_canonical(())]
    m = 2 * n
    out: list[ChordDiagram] = []
    for gap in range(1, n + 1, 2):
        slack = m - gap  # the longest a chord may be on the side it closes
        word = [0] * m
        # pref[i] XORs 1 << word[k] over k < i
        pref = [0] * (m + 1)
        # the open chords' first positions, ascending, as are their labels
        opens: list[int] = []
        # (a, N(a)) of each closed chord, bit b of N(a) for label b
        closed: list[tuple[int, int]] = []
        # chords._back_steps of the word and of its reversal, written as each
        # chord closes; rback[m - 1 - p] is position p's step ahead
        back = [0] * m
        rback = [0] * m

        def place(i: int, fresh: int) -> None:
            # fresh is the next unused label
            if i == m:
                if chords._is_orbit_min(back, rback, gap):
                    cd = ChordDiagram._of_canonical(tuple(word))
                    rows = [0] * n
                    for a, na in closed:
                        rows[a - 1] = na >> 1
                    cd.__dict__["_bits"] = tuple(rows)
                    out.append(cd)
                return
            if opens and i > opens[0] + slack:
                return  # the earliest open chord can no longer close
            for j, fp in enumerate(opens):
                d = i - fp
                if d < gap:
                    break  # so are the later ones
                nc = pref[i] ^ pref[fp + 1]
                if nc.bit_count() & 1:
                    continue
                for a, na in closed:
                    if (na & nc).bit_count() & 1 and not nc >> a & 1:
                        break  # the second condition fails
                else:
                    lab = word[fp]
                    word[i] = lab
                    back[i] = d
                    if d == gap:
                        if chords._precedes(rback, m - 1 - i, back, 0, gap + 1, i + 1):
                            continue
                    rback[m - 1 - fp] = d
                    back[fp] = rback[m - 1 - i] = m - d
                    del opens[j]
                    closed.append((lab, nc))
                    pref[i + 1] = pref[i] ^ (1 << lab)
                    place(i + 1, fresh)
                    closed.pop()
                    opens.insert(j, fp)
                    rback[m - 1 - fp] = 0  # fp opens again; it reads as fresh
            if fresh <= n and i != gap:  # chord 1 closes at gap
                opens.append(i)
                word[i] = fresh
                back[i] = 0  # a fresh label repeats nothing
                pref[i + 1] = pref[i] ^ (1 << fresh)
                place(i + 1, fresh + 1)
                opens.pop()

        place(0, 1)
    return out


def enumerate_curves(n: int) -> list[PlanarCurve]:
    """All realizable curves with exactly n crossings, one per class.

    Codes come out canonical and in ascending word order, generated afresh
    on each call.  Each curve's code is the diagram the generator built,
    with the interlacement rows it handed on; n = 0
    takes the same path to ``[U]``.  Raises :class:`BudgetExceeded` where
    :func:`check_budget` refuses n.
    """
    check_budget(n)
    found = []
    for cd in _canonical_words(n):
        # the generator already pruned parity failures; this pass over the
        # handed rows guards that prune, and the benchmark's tracer counts
        # the generated words through it, as it counts realizations through
        # the per-word _search_rotations call
        if chords.gauss_parity_violations(cd):
            continue
        p = planar._search_rotations(cd)
        if p is not None:
            found.append(p)
    return found


class EnumerationRecord(NamedTuple):
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
    arnold: int | None = None


def build_record(
    p: PlanarCurve, with_arnold: bool = True, *, table: dict | None = None
) -> EnumerationRecord:
    """Compute a record for one realized curve.

    The face fields come from the curve's :func:`planar._face_walk`, which
    counts exactly what ``p.faces``, ``planar.monogons`` and
    ``planar.strong_bigons`` list; an enumerated curve keeps the walk that
    accepted its mask, so it is not walked again.  ``prime`` asks only
    whether the interlacement graph has exactly one component
    (``planar.prime_decompose`` says why that is primality).

    ``in_S`` is one greedy run (``moves._reaches_U``).  ``table``, a dict
    that starts empty, maps the loop-free states earlier runs passed to
    their runs' end states, so a sweep that passes one table to every record
    stops each run at the first loop-free state already run from; the module docstring of
    :mod:`knotproj.moves` says why the table is exact and why it serves one
    sweep only.  With no table every run goes to its end.
    """
    cd = p.code
    degrees, bigons = p._walk
    return EnumerationRecord(
        code=str(chords.canonicalize(cd)),
        n=p.n,
        x=chords.count_x(cd),
        tr=chords.count_tr(cd),
        face_degrees=tuple(sorted(degrees)),
        monogons=degrees.count(1),
        strong_bigons=len(planar._strong_sites(p.word, bigons)),
        reduced=planar.is_reduced(p),
        prime=len(chords._components(cd)[0]) == 1,
        in_S=moves._reaches_U(p, table),
        arnold=invariants.arnold_invariant(p) if with_arnold else None,
    )


_RECORD_FIELDS = EnumerationRecord._fields
_REQUIRED_FIELDS = tuple(
    f for f in _RECORD_FIELDS if f not in EnumerationRecord._field_defaults
)
# the annotations are strings (postponed evaluation), which NamedTuple keeps
# as ForwardRefs; get_type_hints evaluates them to the types
_TYPES = get_type_hints(EnumerationRecord)
_INT_FIELDS = tuple(f for f in _RECORD_FIELDS if _TYPES[f] is int)
_BOOL_FIELDS = tuple(f for f in _RECORD_FIELDS if _TYPES[f] is bool)


def _record_to_obj(rec: EnumerationRecord) -> dict:
    """The JSON object of a record, its keys in field order.

    ``face_degrees`` becomes a list and ``arnold`` decimal text, or is left
    out when it is None.
    """
    obj = rec._asdict()
    obj["face_degrees"] = list(rec.face_degrees)
    if rec.arnold is None:
        del obj["arnold"]
    else:
        obj["arnold"] = str(rec.arnold)
    return obj


def write_dataset(records, path) -> None:
    """Write records as JSONL, schema line first, ordered by (n, code)."""
    ordered = sorted(records, key=lambda r: (r.n, tuple(map(int, r.code.split()))))
    # one encoder for every line: json.dumps with options builds one per call
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode({"schema": 1}) + "\n")
        for rec in ordered:
            fh.write(encode(_record_to_obj(rec)) + "\n")


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
    try:
        cd = chords.parse_code(obj["code"])
    except MalformedCode as exc:
        raise SchemaError(f"code is not a Gauss code: {exc}", line) from None
    if str(cd) != obj["code"]:
        raise SchemaError(f"code must be written {str(cd)!r}", line)
    if cd.n != obj["n"]:
        raise SchemaError(f"n is {obj['n']} but code has {cd.n} crossing(s)", line)
    arnold = None
    if "arnold" in obj:
        try:
            if not isinstance(obj["arnold"], str):
                raise ValueError
            arnold = chords._decimal(obj["arnold"])
        except ValueError:
            raise SchemaError("arnold must be a decimal integer string", line) from None
    return EnumerationRecord(**{**obj, "face_degrees": tuple(fd), "arnold": arnold})


def read_dataset(path) -> list[EnumerationRecord]:
    """Read a JSONL dataset back; schema violations name the offending line."""
    records = []
    with open(path, "rb") as fh:
        raws = fh.read().splitlines()
    if not raws:
        raise SchemaError("empty file: missing schema line", 1)
    for i, raw in enumerate(raws, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8: {exc}", i) from None
        if i > 1 and not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", i) from None
        if i > 1:
            records.append(_parse_record(obj, i))
        # True == 1.0 == 1, so the type is checked apart
        elif obj != {"schema": 1} or type(obj["schema"]) is not int:
            raise SchemaError(f'expected {{"schema": 1}}, got {text!r}', 1)
    return records
