"""Command-line interface.

Subcommands: analyze, reduce, enumerate, verify, dot.  Failure paths write
diagnostics to stderr only; exit codes are 2 for malformed codes, 3 for
unrealizable codes, 4 for budget refusals, 5 for file I/O problems, 6 for an
unknown check id, and 1 when a verify run finds violations.  The first three
are mapped from their exceptions in one place, :func:`main`; the subcommands
just let them propagate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import chords, enumeration, moves, planar, verify
from .errors import BudgetExceeded, MalformedCode, NotRealizable

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_MALFORMED = 2
EXIT_NOT_REALIZABLE = 3
EXIT_BUDGET = 4
EXIT_IO = 5
EXIT_UNKNOWN_CHECK = 6


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _parse(text: str) -> chords.ChordDiagram:
    """:func:`chords.parse_code`, its error message prefixed with the code text."""
    try:
        return chords.parse_code(text)
    except MalformedCode as exc:
        raise MalformedCode(f"malformed code {text!r}: {exc}") from None


def _analysis_obj(
    cd: chords.ChordDiagram, with_arnold: bool, table: dict
) -> dict:
    """The dataset record of ``cd`` plus ``realizable`` and ``prime_factors``.

    ``table`` is the command's greedy-run table of end states
    (``build_record``).
    """
    p = planar.realize(cd)
    rec = enumeration.build_record(p, with_arnold, table=table)
    if rec.prime:
        factors = [rec.code]
    else:
        factors = [str(chords.canonicalize(f.code)) for f in planar.prime_decompose(p)]
    obj = {}
    for key, val in enumeration._record_to_obj(rec).items():
        if key == "face_degrees":
            obj["realizable"] = True
        if key == "prime":
            key, val = "prime_factors", factors
        obj[key] = val
    return obj


# the JSON text of each type of value an analysis object holds
_JSON_SCALAR = {
    str: encode_basestring_ascii,
    bool: enumeration._JSON_BOOL.__getitem__,
    int: "%d".__mod__,
}


def _analysis_json(obj: dict) -> str:
    """``json.dumps(obj, indent=2)`` of an :func:`_analysis_obj`, read off
    its strings, ints, bools and lists of them (a test holds the two equal);
    json's own indenting encoder is pure Python."""
    members = []
    for key, val in obj.items():
        if type(val) is not list:
            val = _JSON_SCALAR[type(val)](val)
        elif val:
            val = "[\n    %s\n  ]" % ",\n    ".join([_JSON_SCALAR[type(v)](v) for v in val])
        else:
            val = "[]"
        members.append('  "%s": %s' % (key, val))
    return "{\n%s\n}" % ",\n".join(members)


def _format_analysis(obj: dict) -> str:
    lines = []
    for key, val in obj.items():
        if isinstance(val, bool):
            shown = "true" if val else "false"
        elif isinstance(val, list):
            shown = json.dumps(val)
        elif key == "code":
            shown = val if val else "(U)"
        else:
            shown = str(val)
        lines.append(f"{key + ':':<15}{shown}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    """Print each code's :func:`_analysis_obj`: as text, or with ``--json``
    as :func:`_analysis_json` writes it, a ``--in`` batch as a JSON list."""
    if args.infile is not None:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                # universal newlines leave only "\n"; splitlines() would also
                # break at form feeds and the other separators a code may hold
                code_texts = [ln for ln in fh.read().split("\n") if ln.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(EXIT_IO, f"cannot read {args.infile}: {exc}")
    else:
        code_texts = [args.code if args.code is not None else ""]
    # one greedy-run table per command, shared by its codes (build_record)
    table = {}
    results = [_analysis_obj(_parse(text), args.arnold, table) for text in code_texts]
    if args.json:
        texts = [_analysis_json(obj) for obj in results]
        if args.infile is None:
            print(texts[0])
        else:  # a JSON list, each object indented 2 more
            print("[\n  %s\n]" % ",\n".join(texts).replace("\n", "\n  ") if texts else "[]")
    else:
        print("\n\n".join(_format_analysis(obj) for obj in results))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    cd = _parse(args.code)
    p = planar.realize(cd)
    if chords.count_tr(cd) == 0:
        trace = moves.reduce_no_triple(p)
    else:
        member, trace = moves.in_S(p)
        if not member:
            print(f"{chords.canonicalize(cd)}: not in S")
            return EXIT_OK
    print(f"start: {str(trace.start) or '(U)'}")
    for mv, code in trace.steps:
        print(f"  {mv} -> {str(code) or '(U)'}")
    print(f"terminal: {str(trace.terminal) or '(U)'}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    # a budget refusal comes before --out is opened, and an unwritable
    # --out before the first count line
    enumeration.check_budget(args.n)
    # one greedy-run table for the whole sweep (build_record)
    table = {}
    count = 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(enumeration._SCHEMA_LINE)
            for n in range(1, args.n + 1) if args.n else [0]:
                before = count
                # census order is (n, code); each n's list is freed after its loop
                for p in enumeration.enumerate_curves(n):
                    rec = enumeration.build_record(
                        p, with_arnold=n <= args.arnold_max, table=table
                    )
                    fh.write(enumeration._record_line(rec))
                    count += 1
                print(f"n={n}: {count - before}")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out} ({count} records)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not args.all and args.check not in verify.CHECK_IDS:
        return _fail(
            EXIT_UNKNOWN_CHECK,
            f"unknown check {args.check!r}; known: {', '.join(verify.CHECK_IDS)}",
        )
    ids = verify.CHECK_IDS if args.all else [args.check]
    t0 = time.perf_counter()
    reports = verify.run_checks(ids, args.max_n)
    elapsed = time.perf_counter() - t0
    if args.json:
        payload = (
            reports[0].to_json_obj()
            if not args.all
            else [r.to_json_obj() for r in reports]
        )
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{status} {r.check_id} (max_n={r.max_n}, "
                f"curves_tested={r.curves_tested})"
            )
            for code, detail in r.violations:
                print(f"  violation: {code}: {detail}")
    for r in reports:
        print(f"{r.check_id}: elapsed {r.elapsed:.2f}s", file=sys.stderr)
    print(f"verify: elapsed {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATIONS


def _cmd_dot(args) -> int:
    cd = _parse(args.code)
    m = 2 * cd.n
    lines = ["graph chord_diagram {", "  layout=circo;"]
    for t in range(m):
        lines.append(f'  p{t} [label="{cd.word[t]}"];')
    for t in range(m):
        lines.append(f"  p{t} -- p{(t + 1) % m};")
    for v in range(1, cd.n + 1):
        i, j = cd.positions(v)
        lines.append(f"  p{i} -- p{j} [style=dashed];")
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand table (name -> subparser).

    Each subparser carries its handler as the ``handler`` default.
    """
    parser = argparse.ArgumentParser(
        prog="knotproj",
        description="Combinatorics of spherical knot projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="pattern counts, faces, and invariants")
    source = p_an.add_mutually_exclusive_group()
    source.add_argument("code", nargs="?", default=None, help="Gauss code (quoted)")
    p_an.add_argument(
        "--arnold", action="store_true", help="also compute the Arnold invariant"
    )
    p_an.add_argument("--json", action="store_true")
    source.add_argument("--in", dest="infile", default=None, help="batch file, one code per line")
    p_an.set_defaults(handler=_cmd_analyze)

    p_re = sub.add_parser("reduce", help="greedy 1b/s2b reduction or S-membership")
    p_re.add_argument("code")
    p_re.set_defaults(handler=_cmd_reduce)

    p_en = sub.add_parser("enumerate", help="write the curve dataset up to n")
    p_en.add_argument("n", type=int)
    p_en.add_argument("--out", required=True)
    p_en.add_argument(
        "--arnold-max",
        type=int,
        default=enumeration.DEFAULT_ARNOLD_MAX_N,
        help="compute arnold only for n at most this (default %(default)s)",
    )
    p_en.set_defaults(handler=_cmd_enumerate)

    p_ve = sub.add_parser("verify", help="run machine checks over the enumeration")
    group = p_ve.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", help="one of: " + ", ".join(verify.CHECK_IDS))
    group.add_argument("--all", action="store_true")
    p_ve.add_argument("--max-n", type=int, default=6)
    p_ve.add_argument("--json", action="store_true")
    p_ve.set_defaults(handler=_cmd_verify)

    p_dot = sub.add_parser("dot", help="chord diagram as Graphviz source")
    p_dot.add_argument("code")
    p_dot.set_defaults(handler=_cmd_dot)

    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None).

    A known subcommand's arguments are parsed by its own parser, which is
    all the top-level parser would do after its generic pass; the top-level
    parser runs only for an empty argv, ``-h`` and an unknown subcommand,
    where it prints help or exits 2.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
    else:
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MalformedCode as exc:
        return _fail(EXIT_MALFORMED, str(exc))
    except NotRealizable as exc:
        return _fail(EXIT_NOT_REALIZABLE, str(exc))
    except BudgetExceeded as exc:
        return _fail(EXIT_BUDGET, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
