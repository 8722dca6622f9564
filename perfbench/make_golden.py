"""Rebuild golden.json, the expected outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Runs the CLI in this process on the census, the verify reports and every
analyze pool code, and records digests of what it printed or wrote.  Run it
only when a change to the program's output is intended, and say so where the
change is described: the benchmark counts every difference from golden.json as
a failed operation.  Census class counts come from
tests/fixtures/census_counts.json where it has them; golden.json adds n = 8.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run

sys.path.insert(0, str(run.SRC))

from knotproj import cli  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def census() -> dict:
    top = run.SCALES["full"]["census_n"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "census.jsonl"
        rc, _ = _cli(["enumerate", str(top), "--out", str(path)])
        assert rc == 0
        data = path.read_bytes()
    header = data.splitlines(keepends=True)[0]
    blocks = run.dataset_blocks(data)
    files = {}
    for scale in run.SCALES.values():
        k = scale["census_n"]
        files[str(k)] = run.digest(header + b"".join(blocks[n] for n in range(1, k + 1)))
    return {
        "counts": {str(top): blocks[top].count(b"\n")},
        "records_sha256": {str(n): run.digest(b) for n, b in sorted(blocks.items())},
        "file_sha256": files,
    }


def verify() -> dict:
    out = {}
    for scale in run.SCALES.values():
        max_n = scale["verify_n"]
        rc, text = _cli(["verify", "--all", "--max-n", str(max_n), "--json"])
        assert rc == 0
        out[str(max_n)] = {
            "stdout_sha256": run.digest(text),
            "checks": {
                obj["check_id"]: {
                    "curves_tested": obj["curves_tested"],
                    "sha256": run.digest(json.dumps(obj, sort_keys=True)),
                }
                for obj in json.loads(text)
            },
        }
    return out


def analyze() -> dict:
    out = {}
    sizes = {
        "arnold": dict.fromkeys(inputs.MIX["full"]["arnold"], inputs.ARNOLD_POOL_SIZE),
        "in_s": inputs.MIX["full"]["in_s"],
    }
    for cls, by_n in sizes.items():
        table = {}
        for n, size in by_n.items():
            for code in inputs.pool(cls, n, size):
                rc, text = _cli(run.analyze_argv(cls, code))
                table[code] = [rc, run.digest(text)]
        out[cls] = table
    return out


def main() -> None:
    golden = {"census": census(), "verify": verify(), "analyze": analyze()}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
