"""Tiny-scale checks that keep the benchmark harness from rotting.

    python3 -m pytest perfbench

The smoke scale runs census for n <= 4, verify with --max-n 4 and 20 analyze
codes, so the whole file takes a few seconds.
"""

import json
import shutil
import subprocess
import sys

import pytest

import inputs
import run

SPEC = json.loads(run.SPEC.read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _smoke(workload: str, trace: int, seed: int = 3):
    res = _bench(
        run.ROOT,
        *("--workload", workload, "--seed", str(seed), "--seconds", "1"),
        *("--trace", str(trace), "--scale", "smoke"),
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    record, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert record["seed"] == 3 and record["failed_frac"] == 0
    assert record["machine"]["python"] and record["source"]["source_sha256"]
    if trace:
        assert set(got) <= set(record["layers"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    _, first = _smoke("verify", 1)
    _, second = _smoke("verify", 1)
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    assert first["metrics"]["enumeration.words"]["value"] > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "perfbench")
    res = _bench(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""


def test_checks_count_wrong_output_as_failed():
    golden = json.loads(run.GOLDEN.read_text())
    reqs = run.analyze_requests(3, "smoke", golden)
    wrong = {"rc": 0, "stdout": "{}\n", "elapsed": 0.0}
    assert all(r.check(wrong) == 1 for r in reqs)
    (census,) = run.census_requests("smoke", golden, run.BENCH / "missing")
    assert census.check({"rc": 0, "stdout": ""}) == census.ops == 4
    (verify,) = run.verify_requests("smoke", golden)
    assert verify.check({"rc": 0, "stdout": "[]"}) == verify.ops == 5


def test_requests_follow_the_seed_and_the_mix():
    a = inputs.analyze_codes(5, "full")
    assert a == inputs.analyze_codes(5, "full")
    assert a != inputs.analyze_codes(6, "full")
    assert len(a) == 1000
    mix = inputs.MIX["full"]
    for cls in ("arnold", "in_s", "unrealizable"):
        for n, count in mix[cls].items():
            assert sum(1 for c, m, _ in a if c == cls and m == n) == count
    rejects = [(n, code) for c, n, code in a if c == "reject"]
    assert sum(1 for n, _ in rejects if n == 0) == mix["reject"]["malformed"]
    for n, code in rejects:
        if n:
            assert inputs.parity_violation([int(t) for t in code.split()])
    # every pool code has an expected output
    golden = json.loads(run.GOLDEN.read_text())
    for cls, n, code in a:
        if cls in golden["analyze"]:
            assert code in golden["analyze"][cls]


def test_parity_oracle():
    assert not inputs.parity_violation(inputs.TREFOIL)
    assert not inputs.parity_violation(inputs.torus(5))
    assert not inputs.parity_violation(inputs.UNREALIZABLE_CORE)
    assert inputs.parity_violation((1, 2, 1, 2))
    assert inputs.parity_violation(inputs.torus(4))
