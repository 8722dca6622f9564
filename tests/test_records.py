"""The nine record types keep their value semantics — repr, equality, hash,
immutability and the dataset schema read off ``EnumerationRecord`` — and
importing the CLI stays free of the modules a class generator would pull in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotproj as kp
from knotproj import enumeration, invariants, planar
from knotproj.chords import ChordDiagram
from knotproj.enumeration import EnumerationRecord
from knotproj.errors import InvalidSite, MalformedCode
from knotproj.moves import Move
from knotproj.planar import PlanarCurve
from knotproj.verify import CheckReport


def examples():
    """One instance of each record type, built twice over, with its field
    names in order and its repr."""
    p = kp.realize(kp.parse_code("1 1"))
    t = kp.realize(kp.parse_code("1 2 3 1 2 3"))
    cd = ChordDiagram((1, 1, 2, 2))
    return [
        (
            lambda: ChordDiagram((1, 1, 2, 2)),
            ("word",),
            "ChordDiagram(word=(1, 1, 2, 2))",
        ),
        (
            lambda: PlanarCurve(cd, 1),
            ("code", "flips"),
            "PlanarCurve('1 1 2 2')",
        ),
        (
            lambda: kp.realize(kp.parse_code("1 1")).faces[1],
            ("dart_cycle", "corners"),
            "Face(dart_cycle=(1, 2), corners=(1, 1))",
        ),
        (
            lambda: planar.innermost_teardrop(t),
            ("origin", "loop_start", "interval", "boundary_labels", "sigma"),
            "Teardrop(origin=1, loop_start=0, interval=(1, 2), "
            "boundary_labels=(1, 2, 3), sigma=(1, 2))",
        ),
        (
            lambda: invariants.resolve(p, (True,)),
            ("base", "over_under", "signs"),
            "Resolution(base=PlanarCurve('1 1'), over_under=(True,), signs=(-1,))",
        ),
        (
            lambda: Move("1b", (1,)),
            ("kind", "site"),
            "Move(kind='1b', site=(1,))",
        ),
        (
            lambda: kp.reduce_no_triple(p),
            ("start", "steps", "terminal"),
            "ReductionTrace(start=ChordDiagram(word=(1, 1)), "
            "steps=((Move(kind='1b', site=(1,)), ChordDiagram(word=())),), "
            "terminal=ChordDiagram(word=()))",
        ),
        (
            lambda: kp.build_record(p),
            enumeration._RECORD_FIELDS,
            "EnumerationRecord(code='1 1', n=1, x=0, tr=0, face_degrees=(1, 1, 2), "
            "monogons=2, strong_bigons=0, reduced=False, prime=True, in_S=True, "
            "arnold=0)",
        ),
        (
            lambda: CheckReport("main-theorem", 3, 5, (), 0.25),
            ("check_id", "max_n", "curves_tested", "violations", "elapsed", "witnesses"),
            "CheckReport(check_id='main-theorem', max_n=3, curves_tested=5, "
            "violations=(), elapsed=0.25, witnesses=())",
        ),
    ]


NAMES = [
    "ChordDiagram", "PlanarCurve", "Face", "Teardrop", "Resolution",
    "Move", "ReductionTrace", "EnumerationRecord", "CheckReport",
]


@pytest.mark.parametrize("index", range(9), ids=NAMES)
def test_repr_and_value_semantics(index):
    make, names, want = examples()[index]
    a, b = make(), make()
    assert type(a).__name__ == NAMES[index]
    assert a is not b
    assert repr(a) == want
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # the hash of the field tuple, so set and dict orders of records are
    # those of their fields
    values = tuple(getattr(a, f) for f in names)
    assert hash(a) == hash(values)
    assert type(a)(*values) == a
    assert type(a)(**dict(zip(names, values))) == a


@pytest.mark.parametrize("index", range(9), ids=NAMES)
def test_records_refuse_assignment_and_deletion(index):
    make, names, _ = examples()[index]
    a = make()
    for name in (names[0], names[-1], "anything"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "anything")
    assert a == make()


def test_diagram_make_and_replace_validate():
    """``_make`` and the inherited ``_replace`` build through the
    constructor, so they refuse a word the constructor refuses."""
    with pytest.raises(MalformedCode):
        ChordDiagram._make([(2, 2)])
    with pytest.raises(MalformedCode):
        ChordDiagram((1, 1))._replace(word=(2, 2))
    made = ChordDiagram._make([(1, 2, 1, 2)])
    replaced = ChordDiagram((1, 1))._replace(word=(1, 2, 1, 2))
    for cd in (made, replaced):
        assert type(cd) is ChordDiagram and cd == ChordDiagram((1, 2, 1, 2))
        assert ChordDiagram._make(cd) == cd and cd._replace() == cd


@pytest.mark.parametrize("flips", [2, -1, True, 1.5], ids=["bit-n", "negative", "bool", "float"])
def test_curve_refuses_a_flip_mask_outside_n_bits(flips):
    """A mask with a bit at or above n, or not an int, would make a second,
    unequal curve with the same rotations, whose splice carries the stray
    bit; the constructor, ``_make`` and ``_replace`` refuse it."""
    cd = kp.parse_code("1 1")
    with pytest.raises(InvalidSite):
        PlanarCurve(cd, flips)
    with pytest.raises(InvalidSite):
        PlanarCurve._make([cd, flips])
    with pytest.raises(InvalidSite):
        PlanarCurve(cd, 0)._replace(flips=flips)


@pytest.mark.parametrize("code", [(1, 1), None, "1 1"], ids=["word", "none", "text"])
def test_curve_refuses_a_code_that_is_not_a_diagram(code):
    """The constructor, ``_make`` and ``_replace`` name the code's type
    rather than failing on its first attribute read."""
    name = type(code).__name__
    with pytest.raises(MalformedCode, match=f"got {name}$"):
        PlanarCurve(code, 0)
    with pytest.raises(MalformedCode, match=f"got {name}$"):
        PlanarCurve._make([code, 0])
    with pytest.raises(MalformedCode, match=f"got {name}$"):
        kp.U._replace(code=code)


def test_curve_make_and_replace_accept_an_n_bit_mask():
    cd = kp.parse_code("1 1")
    assert PlanarCurve(cd, 0)._replace(flips=1) == PlanarCurve._make([cd, 1]) == (cd, 1)
    assert PlanarCurve(cd, 1)._replace() == PlanarCurve(cd, 1)
    assert kp.U == PlanarCurve(ChordDiagram(()), 0)
    # the splice of the clean curve keeps n + 2 faces and its flips
    t = kp.realize(kp.parse_code("1 2 3 1 2 3"))
    spliced = kp.connected_sum(PlanarCurve(cd, 0), t, 0, 3)
    assert spliced.flips == 0b100
    assert len(spliced.faces) == spliced.n + 2


def test_cached_values_still_fill():
    """The refusal leaves the caches of the two types that keep them."""
    cd = kp.parse_code("1 2 1 2")
    assert cd._bits == cd.__dict__["_bits"]
    assert kp.canonicalize(cd) is cd.__dict__["_canon"]
    p = kp.realize(kp.parse_code("1 1 2 2"))
    assert p.faces is p.__dict__["faces"]
    assert p.rotations is p.__dict__["rotations"]
    assert p._walk is p.__dict__["_walk"]


def test_dataset_schema_is_read_off_the_record():
    assert enumeration._RECORD_FIELDS == (
        "code", "n", "x", "tr", "face_degrees", "monogons", "strong_bigons",
        "reduced", "prime", "in_S", "arnold",
    )
    assert enumeration._REQUIRED_FIELDS == enumeration._RECORD_FIELDS[:-1]
    assert enumeration._INT_FIELDS == ("n", "x", "tr", "monogons", "strong_bigons")
    assert enumeration._BOOL_FIELDS == ("reduced", "prime", "in_S")
    values = ("1 1", 1, 0, 0, (1, 1, 2), 2, 0, False, True, True)
    rec = EnumerationRecord(*values)
    assert rec.arnold is None
    assert rec == EnumerationRecord(*values, None)
    assert rec != EnumerationRecord(*values, 0)


def _modules_after(statement: str) -> set:
    """The modules a fresh interpreter holds after running ``statement``."""
    src = Path(kp.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60, check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_no_class_generator():
    """``import knotproj.cli`` is every launch's set-up; ``dataclasses`` and
    the ``inspect`` it imports are about 7 ms of it, and ``fractions`` and
    the ``decimal`` it imports a few more, for an invariant that is an
    integer.  Compared with a bare launch, so modules a ``site`` hook
    preloads do not count."""
    added = _modules_after("import knotproj.cli") - _modules_after("pass")
    assert "knotproj.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "fractions", "decimal"})


def test_plain_command_imports_no_argparse():
    """A plain command line is read without argparse, which with the
    ``gettext`` and ``locale`` it imports costs every launch about 2 ms; a
    subprocess, since pytest itself imports argparse."""
    run = "from knotproj.cli import main\nmain(['analyze', '--json', '1 1'])"
    added = _modules_after(run) - _modules_after("pass")
    assert "knotproj.cli" in added and "argparse" not in added
    assert "argparse" in _modules_after(f"{run}\nmain(['analyze', '--arn', '1 1'])")
