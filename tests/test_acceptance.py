"""Acceptance gate: the nine top-level claims, one visible line each.

Each criterion prints exactly one ``PASS criterion-k`` / ``FAIL criterion-k``
line on the real stdout (bypassing capture) so a plain pytest run shows the
scoreboard; the asserts carry the substance.
"""

import contextlib
import json
import random
import time
from fractions import Fraction

import pytest

import knotproj as kp
from knotproj import planar

from conftest import (
    a2_skein,
    brute_force_realizable,
    pairing_words,
    resolutions,
    skein_average_a2,
    trace_face_count,
)


@contextlib.contextmanager
def criterion(capfd, k, summary):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"FAIL criterion-{k}: {summary}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    with capfd.disabled():
        print(f"PASS criterion-{k}: {summary} ({elapsed:.1f}s)", flush=True)


def test_criterion_1_main_theorem(capfd, census):
    with criterion(capfd, 1, "triple-free curves reduce to U via 1b/s2b, n <= 7"):
        t0 = time.perf_counter()
        rep = kp.run_check("main-theorem", max_n=7)
        assert rep.passed, rep.violations
        expect = sum(census["triple_free"][str(n)] for n in range(1, 8))
        assert rep.curves_tested == expect
        assert time.perf_counter() - t0 < 300


def test_criterion_2_inclusion_chain(capfd, census):
    with criterion(capfd, 2, "x=0 => tr=0 => in S => arnold=0 (n <= 6, arnold n <= 5)"):
        t0 = time.perf_counter()
        rep = kp.run_check("inclusion-chain", max_n=6)
        assert rep.passed, rep.violations
        expect = sum(census["classes"][str(n)] for n in range(0, 7))
        assert rep.curves_tested == expect
        assert time.perf_counter() - t0 < 600


def test_criterion_3_two_strong_bigons(capfd, census):
    with criterion(capfd, 3, "reduced triple-free curves have >= 2 strong 2-gons, n <= 7"):
        rep = kp.run_check("two-strong-bigons", max_n=7)
        assert rep.passed, rep.violations
        expect = sum(census["reduced_triple_free"][str(n)] for n in range(1, 8))
        assert rep.curves_tested == expect


def test_criterion_4_connected_sum_lemma(capfd):
    with criterion(capfd, 4, "splices of triple-free summands stay triple-free, n1+n2 <= 6"):
        rep = kp.run_check("connected-sum-lemma", max_n=6)
        assert rep.passed, rep.violations
        assert rep.curves_tested > 0


def test_criterion_5_teardrop_reversal(capfd):
    with criterion(capfd, 5, "innermost teardrop permutation order-reversing when tr=0, n <= 7"):
        rep = kp.run_check("teardrop-reversal", max_n=7)
        assert rep.passed, rep.violations
        assert any("expected-excluded" in w[1] for w in rep.witnesses)


def test_criterion_6_invariant_oracles(capfd):
    with criterion(capfd, 6, "closed a2 formula == skein oracle on every resolution, n <= 5"):
        for n in range(0, 6):
            for p in kp.enumerate_curves(n):
                for r in resolutions(p):
                    want = a2_skein(r)
                    assert kp.a2_gauss_formula(r) == want
                    mirror = kp.resolve(p, tuple(not b for b in r.over_under))
                    assert a2_skein(mirror) == want
        assert kp.arnold_invariant(kp.U) == 0 == 8 * skein_average_a2(kp.U)
        loop = kp.realize(kp.parse_code("1 1"))
        assert kp.arnold_invariant(loop) == 0 == 8 * skein_average_a2(loop)
        trefoil = kp.realize(kp.parse_code("1 2 3 1 2 3"))
        assert skein_average_a2(trefoil) == Fraction(1, 4)
        assert kp.arnold_invariant(trefoil) == 2 == 8 * skein_average_a2(trefoil)


def test_criterion_7_strongness_discriminator(capfd, monkeypatch):
    with criterion(capfd, 7, "interleaved-bigon mutant breaks the verified corollaries"):

        def interleaved_variant(p):
            return [
                f
                for f in p.faces
                if f.degree == 2
                and f.corners[0] != f.corners[1]
                and kp.interleaved(p.code, *f.corners)
            ]

        healthy = kp.check_inclusion_chain(3)
        assert healthy.passed
        monkeypatch.setattr(planar, "strong_bigons", interleaved_variant)
        mutated = kp.check_inclusion_chain(3)
        bigons = kp.check_two_strong_bigons(4)
        assert not mutated.passed or not bigons.passed
        assert any(
            "arnold" in reason for _, reason in mutated.violations
        ), "trefoil must enter S with arnold = 2"


def test_criterion_8_enumeration_completeness(capfd):
    with criterion(capfd, 8, "generator == pairings oracle; realizability == full sweep, n <= 4"):
        for n in range(1, 5):
            oracle_classes = set()
            for word in pairing_words(n):
                cd = kp.ChordDiagram(word)
                sweep = brute_force_realizable(word)
                try:
                    kp.realize(cd)
                    package = True
                except kp.errors.NotRealizable:
                    package = False
                assert package == sweep, word
                if sweep:
                    oracle_classes.add(str(kp.canonicalize(cd)))
            curves = kp.enumerate_curves(n)
            assert {str(p.code) for p in curves} == oracle_classes
            for p in curves:
                assert kp.gauss_parity_violations(p.code) == []
                assert trace_face_count(p.word, p.rotations) == p.n + 2


def test_criterion_9_round_trips(capfd, tmp_path):
    with criterion(capfd, 9, "parse/canonical idempotence x 10^4; dataset and report determinism"):
        rng = random.Random(20260819)
        for _ in range(10_000):
            n = rng.randint(0, 6)
            bag = [v for v in range(1, n + 1) for _ in range(2)]
            rng.shuffle(bag)
            cd = kp.ChordDiagram.from_labels(bag)
            reparsed = kp.parse_code(str(cd))
            assert reparsed.word == cd.word
            canon = kp.canonicalize(cd)
            assert str(kp.canonicalize(kp.ChordDiagram(canon.word))) == str(canon)

        records = []
        for n in range(0, 5):
            for p in kp.enumerate_curves(n):
                records.append(kp.build_record(p))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        kp.write_dataset(records, a)
        kp.write_dataset(records, b)
        assert a.read_bytes() == b.read_bytes()
        assert kp.read_dataset(a) == records

        for cid in kp.CHECK_IDS:
            one = json.dumps(kp.run_check(cid, max_n=4).to_json_obj(), sort_keys=True)
            two = json.dumps(kp.run_check(cid, max_n=4).to_json_obj(), sort_keys=True)
            assert one == two
