"""knotproj benchmark: the census, verify and analyze workloads.

Usage, from the root of a knotproj source tree:

    python3 perfbench/run.py --workload {census,verify,analyze} --seed N \\
        --seconds S --trace {0,1} [--scale {full,smoke}]

Each pass of a workload starts a fresh interpreter (``worker.py``) that
imports ``knotproj.cli`` from ``src/`` and serves CLI commands from one client
in a closed loop: the next command is sent only after the last one returned.
Inputs are made from ``--seed`` before any timing; the program receives only
the generated command lines.  Outputs are checked against ``golden.json`` (and
the census counts against ``tests/fixtures/census_counts.json``); a mismatch
counts as a failed operation.

With ``--trace 0`` passes repeat while ``--seconds`` allows (at least one) and
the end-to-end metrics are printed.  With ``--trace 1`` one untraced and one
traced pass run, and the per-layer metrics from the traced pass are printed,
with the tracing overhead as the difference of the two pass wall times.

Times in the final line are given at a reference CPU speed, scaled by a CPU
speed probe (probe.py), because the speed of a shared machine drifts.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the machine, the
source revision, the seed and the raw, unscaled samples.  See README.md for the
rationale and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import probe
from tracer import SPANS, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "census_counts.json"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = BENCH / ".work"

WORKLOADS = ("census", "verify", "analyze")
SCALES = {
    "full": {"census_n": 8, "verify_n": 7},
    "smoke": {"census_n": 4, "verify_n": 4},
}
# Interpreter launches timed for setup_s on top of one launch per pass; the
# first, which may write bytecode caches, is not counted.
SETUP_LAUNCHES = 9


def digest(text: str | bytes) -> str:
    """Short content digest used in golden.json."""
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def dataset_blocks(data: bytes) -> dict[int, bytes]:
    """The record lines of a census dataset, grouped by crossing number."""
    blocks: dict[int, bytes] = {}
    for line in data.splitlines(keepends=True)[1:]:
        n = json.loads(line)["n"]
        blocks[n] = blocks.get(n, b"") + line
    return blocks


# --- worker processes ------------------------------------------------------


class Worker:
    """A fresh interpreter serving CLI commands; times its own set-up.

    ``setup_s`` is at the reference CPU speed (probe.py), from the probe
    speed measured just before the launch; ``raw_setup_s`` is as measured.
    """

    def __init__(self, trace: bool = False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "0"  # same str hashing, so dict/set layouts repeat
        cmd = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if trace else [])
        speed = probe.speed_now()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            ready = self.proc.stdout.readline()
            self.raw_setup_s = time.perf_counter() - t0
            self.setup_s = self.raw_setup_s * speed / probe.REFERENCE_SPEED
            if ready != "ready\n":
                raise RuntimeError("worker failed to import knotproj.cli")
        except BaseException:
            self.close()
            raise

    def _ask(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        """Send one command and wait for its reply."""
        return self._ask({"argv": argv})

    def stats(self) -> dict:
        return self._ask({"stats": True})

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- workloads: requests and output checks ---------------------------------


@dataclass
class Request:
    argv: list[str]
    ops: int  # operations the request stands for
    check: object  # callable(reply) -> failed operations
    cls: str = ""


def census_requests(scale: str, golden: dict, workdir: Path) -> list[Request]:
    """``enumerate N --out FILE``; one operation per crossing number."""
    top = SCALES[scale]["census_n"]
    out = workdir / "census.jsonl"
    fixture = json.loads(FIXTURE.read_text())["classes"]
    want_counts = {**golden["census"]["counts"], **fixture}
    want_blocks = golden["census"]["records_sha256"]
    want_file = golden["census"]["file_sha256"][str(top)]

    def check(reply: dict) -> int:
        if reply["rc"] != 0 or not out.exists():
            return top
        data = out.read_bytes()
        out.unlink()
        printed = dict(re.findall(r"^n=(\d+): (\d+)$", reply["stdout"], re.M))
        blocks = dataset_blocks(data)
        failed = 0
        for n in range(1, top + 1):
            want = want_counts[str(n)]
            block = blocks.get(n, b"")
            failed += (
                printed.get(str(n)) != str(want)
                or block.count(b"\n") != want
                or digest(block) != want_blocks[str(n)]
            )
        if not failed and digest(data) != want_file:
            failed = top  # the difference is outside the per-n records
        return failed

    return [Request(["enumerate", str(top), "--out", str(out)], top, check)]


def verify_requests(scale: str, golden: dict) -> list[Request]:
    """``verify --all --max-n N --json``; one operation per check."""
    max_n = SCALES[scale]["verify_n"]
    want = golden["verify"][str(max_n)]

    def check(reply: dict) -> int:
        if reply["rc"] != 0:
            return len(want["checks"])
        try:
            got = {obj["check_id"]: obj for obj in json.loads(reply["stdout"])}
        except (ValueError, TypeError, KeyError):
            return len(want["checks"])
        failed = 0
        for cid, exp in want["checks"].items():
            obj = got.get(cid)
            failed += (
                obj is None
                or obj.get("passed") is not True
                or obj.get("curves_tested") != exp["curves_tested"]
                or digest(json.dumps(obj, sort_keys=True)) != exp["sha256"]
            )
        if not failed and digest(reply["stdout"]) != want["stdout_sha256"]:
            failed = len(want["checks"])  # same reports, different JSON text
        return failed

    argv = ["verify", "--all", "--max-n", str(max_n), "--json"]
    return [Request(argv, len(want["checks"]), check)]


def analyze_argv(cls: str, code: str) -> list[str]:
    return ["analyze", "--json"] + (["--arnold"] if cls == "arnold" else []) + [code]


def analyze_requests(seed: int, scale: str, golden: dict) -> list[Request]:
    """One ``analyze --json [--arnold] CODE`` per seeded code.

    Pool codes are checked against golden.json; unrealizable codes and
    parity rejects must exit 3 and malformed codes 2, with nothing on stdout.
    stderr is not compared.
    """
    reqs = []
    for cls, n, code in inputs.analyze_codes(seed, scale):
        if cls in golden["analyze"]:
            rc, sha = golden["analyze"][cls].get(code, (None, None))
        else:
            rc, sha = (2 if n == 0 else 3), digest("")

        def check(reply: dict, rc=rc, sha=sha) -> int:
            return int(reply["rc"] != rc or digest(reply["stdout"]) != sha)

        reqs.append(Request(analyze_argv(cls, code), 1, check, cls))
    return reqs


# --- passes and metrics ----------------------------------------------------


@dataclass
class Pass:
    """One fresh worker's run of the request list.

    ``latencies`` are command times at the reference CPU speed (probe.py);
    ``wall_s`` is their sum, the time the pass spends in the program.  The
    raw fields are as measured, ``raw_wall_s`` by the client, pipe included.
    """

    setup_s: float
    raw_setup_s: float
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_kb: int = 0
    trace: dict | None = None


def run_pass(requests: list[Request], trace: bool) -> Pass:
    worker = Worker(trace)
    try:
        p = Pass(worker.setup_s, worker.raw_setup_s)
        t0 = time.perf_counter()
        for req in requests:
            reply = worker.run(req.argv)
            p.raw_latencies.append(reply["elapsed"])
            p.latencies.append(reply["elapsed"] * reply["speed"] / probe.REFERENCE_SPEED)
            p.classes.append(req.cls)
            p.attempted += req.ops
            p.failed += req.check(reply)
        p.raw_wall_s = time.perf_counter() - t0
        p.wall_s = sum(p.latencies)
        stats = worker.stats()
    finally:
        worker.close()
    p.peak_rss_kb = stats["peak_rss_kb"]
    p.trace = stats["trace"]
    return p


def setup_launches() -> list[Worker]:
    """Timed interpreter launches, after one that may write bytecode caches."""
    workers = []
    for _ in range(SETUP_LAUNCHES + 1):
        worker = Worker()
        worker.close()
        workers.append(worker)
    return workers[1:]


def end_to_end(passes: list[Pass], setup: list[Worker]) -> dict:
    lat = [x for p in passes for x in p.latencies]
    return {
        "setup_s": (statistics.median([w.setup_s for w in setup] + [p.setup_s for p in passes]), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p99_ms": (1000 * percentile(lat, 99), "ms"),
        "peak_rss_mb": (statistics.median(p.peak_rss_kb for p in passes) / 1024, "MB"),
    }


def per_layer(traced: Pass, plain: Pass) -> dict:
    """Every layer metric: spans of the traced pass, class latencies of the plain one.

    Calls and self time (span time minus child spans) for each traced
    function, plus the counts and ratios README.md lists.  A layer that the
    workload never reaches reads 0.
    """
    tr = traced.trace
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    edge_calls: dict[tuple[str, str], int] = {}
    edge_total: dict[tuple[str, str], float] = {}
    for parent, name, n, total, own in tr["edges"]:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own
        edge_calls[(parent, name)] = n
        edge_total[(parent, name)] = total
    outcome: dict[tuple, int] = {}
    for parent, name, label, n in tr["outcomes"]:
        outcome[(name, label)] = outcome.get((name, label), 0) + n
        outcome[(parent, name, label)] = n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for _, _, name in SPANS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    enum = "enumeration.enumerate_curves"
    words = edge_calls.get((enum, "chords.gauss_parity_violations"), 0)
    passed = edge_calls.get((enum, "planar._search_rotations"), 0)
    curves = outcome.get((enum, "planar._search_rotations", "found"), 0)
    m["enumeration.words"] = (words, "count")
    m["enumeration.parity_pass"] = (passed, "count")
    m["enumeration.curves"] = (curves, "count")
    m["enumeration.parity_pass_ratio"] = (ratio(passed, words), "ratio")
    m["enumeration.realized_ratio"] = (ratio(curves, passed), "ratio")
    m["enumeration.write_dataset.s"] = (
        sum((v for (_, n), v in edge_total.items() if n == "enumeration.write_dataset"), 0.0),
        "s",
    )
    m["verify.enumerate_curves.s"] = (
        sum(
            (v for (p, n), v in edge_total.items() if p.startswith("verify.") and n == enum),
            0.0,
        ),
        "s",
    )
    m["planar.realize.p99_ms"] = (tr["p99_ms"].get("planar.realize", 0.0), "ms")
    m["planar.realize.not_realizable"] = (
        outcome.get(("planar.realize", "not_realizable"), 0),
        "count",
    )
    m["moves.in_S.true"] = (outcome.get(("moves.in_S", "true"), 0), "count")
    m["moves.apply_move_per_in_S"] = (
        ratio(edge_calls.get(("moves.in_S", "moves.apply_move"), 0), calls.get("moves.in_S", 0)),
        "ratio",
    )
    m["invariants.a2_gauss_formula.calls"] = (
        tr["counts"].get("invariants.a2_gauss_formula", 0),
        "count",
    )
    for cls in ("arnold", "in_s", "unrealizable", "reject"):
        lat = [x for x, c in zip(plain.latencies, plain.classes) if c == cls]
        m[f"analyze.{cls}.p50_ms"] = (1000 * statistics.median(lat) if lat else 0.0, "ms")
        m[f"analyze.{cls}.p99_ms"] = (1000 * percentile(lat, 99) if lat else 0.0, "ms")
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return m


def source_revision() -> dict:
    """Git revision when available, and a digest of the package sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        rev = None
    h = hashlib.sha256()
    for path in sorted((SRC / "knotproj").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "source_sha256": h.hexdigest()}


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "knotproj" / "cli.py").is_file():
        print(f"no knotproj sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    spec = json.loads(SPEC.read_text())

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if args.workload == "census":
            requests = census_requests(args.scale, golden, workdir)
        elif args.workload == "verify":
            requests = verify_requests(args.scale, golden)
        else:
            requests = analyze_requests(args.seed, args.scale, golden)

        probe.pin_to_one_cpu()
        setup = [] if args.trace else setup_launches()
        if args.trace:
            passes = [run_pass(requests, False), run_pass(requests, True)]
            measured = per_layer(passes[1], passes[0])
            wanted = spec["per_layer"]
        else:
            passes = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(requests, False))
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > args.seconds:
                    break
            measured = end_to_end(passes, setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.exists() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    raw = [x for p in passes for x in p.raw_latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine_record(),
        "source": source_revision(),
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "latency_samples": sum(len(p.latencies) for p in passes),
        "failed_frac": failed / attempted,
        "pass_wall_s": [p.wall_s for p in passes],
        "raw_pass_wall_s": [p.raw_wall_s for p in passes],
        "raw_latency_p50_ms": 1000 * statistics.median(raw),
        "raw_latency_p99_ms": 1000 * percentile(raw, 99),
        "probe_speed": [
            probe.REFERENCE_SPEED * p.wall_s / sum(p.raw_latencies) for p in passes
        ],
        "raw_setup_s": [w.raw_setup_s for w in setup] + [p.raw_setup_s for p in passes],
    }
    if args.trace:
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: dict(zip(("value", "unit"), measured[m["name"]]))
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
