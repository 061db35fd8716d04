"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py RUN_DIR PASS_NO TRACE

Imports ``ruinbounds.cli`` from the checkout's ``src/`` (timed as set-up),
then sends every argv of RUN_DIR/requests.json to ``cli.main`` in order, each
one only after the previous call returned, capturing stdout.  Between
requests, about every 0.1 s, it times a fixed reference loop.  Writes
RUN_DIR/pass_<PASS_NO>.json, and with TRACE = 1 the recorded spans too.

Only the standard library is imported before ``ruinbounds``, so set-up time
is the import cost a ``ruinbounds`` process pays.  The thread settings come
from the environment the parent sets; they are recorded here as the worker
saw them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The reference loop gauges how fast the shared host runs the worker right
# now.  It runs REFERENCE_REPEAT times after every REFERENCE_EVERY_S or more
# of requests and after the last one, outside the request timing, so that
# its samples spread over the pass.
REFERENCE_REPEAT = 3
REFERENCE_EVERY_S = 0.1


def reference_loop():
    """Seconds taken by a fixed pure-Python loop of about 3 ms."""
    t = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    return time.perf_counter() - t


def main(run_dir, pass_no, trace):
    with open(os.path.join(run_dir, "requests.json"), encoding="utf-8") as fh:
        requests = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import ruinbounds.cli as cli
    import_s = time.perf_counter() - t0

    src = os.path.join(ROOT, "src", "ruinbounds")
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        raise SystemExit(f"imported ruinbounds from {cli.__file__}, not {src}")

    recorder = None
    if trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()

    reference_s, results = [], []
    since_ref = 0.0
    for n, req in enumerate(requests, 1):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(req["argv"])
        except SystemExit as stop:  # argparse rejecting an argv
            rc = stop.code
        except Exception:  # a request that raises is a failed request, not a crash
            rc, exc = None, traceback.format_exc(limit=5)
        results.append({"rc": rc, "seconds": time.perf_counter() - t,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                        "exception": exc})
        since_ref += results[-1]["seconds"]
        if since_ref >= REFERENCE_EVERY_S or n == len(requests):
            reference_s += [reference_loop() for _ in range(REFERENCE_REPEAT)]
            since_ref = 0.0
    wall_s = sum(res["seconds"] for res in results)

    import numpy
    import scipy
    import scipy.fft
    info = {"import_s": import_s, "wall_s": wall_s, "reference_s": reference_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "threads": {**{v: os.environ.get(v) for v in THREAD_VARS},
                        "scipy.fft.workers": scipy.fft.get_workers()},
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "results": results}
    if recorder is not None:
        info["spans"] = recorder.write(os.path.join(run_dir, f"spans_{pass_no}"))
    with open(os.path.join(run_dir, f"pass_{pass_no}.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
