"""One fresh interpreter that serves knotproj CLI commands in a closed loop.

Protocol, one JSON document per line: the worker prints ``ready`` as soon as
``knotproj.cli`` is imported (the parent times set-up up to that line), then
answers each request ``{"argv": [...]}`` with ``{"rc", "stdout", "elapsed",
"speed"}`` and the final request ``{"stats": true}`` with its peak RSS and,
when started with ``--trace``, the aggregated spans.  The program's own stdout
and stderr are captured per command; stderr is discarded, since messages may
be reworded.

``speed`` is the probe speed (see probe.py) measured on the worker's CPU
while the command ran, or over its last 0.2 s for short commands.
"""

import sys

import knotproj.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

# Everything below runs after set-up is measured.
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from probe import SpeedSampler  # noqa: E402


def _run(argv: list[str], speed: SpeedSampler) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = knotproj.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation; keep serving
        rc = -1
        print(traceback.format_exc(), file=sys.stderr)
    t1 = time.perf_counter()
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "elapsed": t1 - t0,
        "speed": speed.speed(t0, t1),
    }


def main() -> None:
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    speed = SpeedSampler()
    proto = sys.stdout
    for line in iter(sys.stdin.readline, ""):
        req = json.loads(line)
        if "argv" in req:
            reply = _run(req["argv"], speed)
        else:
            reply = {
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": tracer.report() if tracer else None,
            }
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
