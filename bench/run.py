"""ruinbounds benchmark.

    python3 bench/run.py --workload {tables,fine_grid,mc_bounds} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/``.  Load model: a closed loop with one client.  Each pass runs the
workload's whole request list in a fresh worker process (``worker.py``), one
``ruinbounds.cli.main`` call at a time, and only one worker exists at a time,
so every pass pays the import and refills in-process caches as a user's
``ruinbounds`` process does.  Passes repeat until S seconds have gone.  BLAS
and OpenMP are pinned to one thread; scipy.fft already uses one worker.

``--trace 0`` reports the end-to-end metrics over untraced passes, each as
the median over the passes: ``peak_rss_mb``, and the import time
``setup_s`` and the pass time ``wall_norm_s``, both scaled to a fixed host
speed (see ``host_speed``).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (see
``spans.py``) plus the tracing overhead.  Outputs are checked after the
passes (``checks.py``), outside all timing.  A human-readable report with the environment goes to stderr
and to .bench_work/; the last stdout line is the JSON result.
"""

import os

# before numpy loads, here and in every worker this process starts
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# a run must end within 180 s: no pass starts after LAST_PASS_START_S, none
# runs past PASSES_END_S, and none takes longer than PASS_TIMEOUT_S
LAST_PASS_START_S = 120.0
PASSES_END_S = 160.0
PASS_TIMEOUT_S = 45.0

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}
# the worker's reference loop time at the host speed setup_s and wall_norm_s
# are scaled to
REFERENCE_NOMINAL_S = 0.0025


def per_layer_units(names):
    def unit(name):
        if name.endswith("_per_s"):
            return "1/s"
        if name.endswith(("_s", ".s")):
            return "s"
        if name.endswith(("share", "share_finest", "_frac")):
            return "ratio"
        if name.endswith("scaling_exp"):
            return "1"
        return "count"
    return {n: unit(n) for n in names}


def host_speed(p):
    """Factor that scales the pass's times to the host speed at which the
    worker's reference loop takes REFERENCE_NOMINAL_S.

    On a shared host the speed a process gets drifts by 10-25% for minutes
    at a time, as other tenants come and go, which is longer than a run.  The
    worker times a fixed pure-Python loop between requests throughout the
    pass, so a time divided by the loop's median time follows the program
    and not the host.
    """
    return REFERENCE_NOMINAL_S / statistics.median(p["reference_s"])


def _median_q(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def environment(seed, worker_info):
    def git_commit():
        head = os.path.join(ROOT, ".git", "HEAD")
        if not os.path.isfile(head):
            return None
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        packed = os.path.join(ROOT, ".git", "packed-refs")
        if os.path.isfile(packed):
            with open(packed, encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref[5:]):
                        return line.split()[0]
        return None

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ruinbounds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "python": worker_info.get("python"), "numpy": worker_info.get("numpy"),
            "scipy": worker_info.get("scipy"), "threads": worker_info.get("threads"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "seed": seed}


def run_pass(run_dir, pass_no, trace, end):
    """One worker process; returns its pass record or an error string."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), run_dir, str(pass_no),
           "1" if trace else "0"]
    timeout = max(1.0, min(PASS_TIMEOUT_S, end - time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        return f"pass {pass_no} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return f"pass {pass_no} exited {proc.returncode}: {proc.stderr.decode()[-1500:]}"
    with open(os.path.join(run_dir, f"pass_{pass_no}.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["trace"] = trace
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ruinbounds", "cli.py")):
        print(f"no ruinbounds sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ruinbounds  # compiles the package once, before any timed import
    if os.path.dirname(os.path.abspath(ruinbounds.__file__)) != os.path.join(SRC, "ruinbounds"):
        print(f"imported ruinbounds from {ruinbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir):
    requests = workloads.build(args.workload, args.seed, run_dir, toy=args.toy)
    with open(os.path.join(run_dir, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(requests, fh)
    table_ids = [r["check"]["id"] for r in requests if r["check"]["kind"] == "table"]
    expected_flags = checks.expected_table_counts(table_ids) if table_ids else None

    start = time.monotonic()
    passes, crashes = [], []
    trace_next = False
    while True:
        elapsed = time.monotonic() - start
        have_plain = any(not p["trace"] for p in passes)
        have_traced = any(p["trace"] for p in passes)
        done = elapsed >= args.seconds and have_plain and (have_traced or not args.trace)
        if done or elapsed >= LAST_PASS_START_S or len(crashes) >= 3:
            break
        rec = run_pass(run_dir, len(passes) + len(crashes), trace_next, start + PASSES_END_S)
        if isinstance(rec, str):
            crashes.append(rec)
        else:
            passes.append(rec)
        if args.trace:
            trace_next = not trace_next

    # -- checks: each distinct request once; later passes must repeat it byte for byte
    t_checks = time.monotonic()
    failures = []
    failed = len(crashes) * len(requests)
    verdicts = {}
    for p in passes:
        bad_flags = False
        if expected_flags is not None:
            seen = {}
            for req, res in zip(requests, p["results"]):
                if req["check"]["kind"] == "table" and res["rc"] == 0:
                    for k, v in checks.flag_counts(res["stdout"]).items():
                        seen[k] = seen.get(k, 0) + v
            if seen != expected_flags:
                bad_flags = True
                failures.append(f"table flags {seen} != expected {expected_flags}")
        for i, (req, res) in enumerate(zip(requests, p["results"])):
            if res["exception"] is not None or res["rc"] != 0:
                why = res["exception"] or f"exit code {res['rc']}: {res['stderr'][-300:]}"
                failures.append(f"{' '.join(req['argv'])}: {why}")
                failed += 1
                continue
            if i not in verdicts:
                verdicts[i] = (res["stdout"], checks.check(req, res["stdout"]))
            first_out, problem = verdicts[i]
            if problem is None and res["stdout"] != first_out:
                problem = "output differs from an earlier pass"
            if problem is not None or (bad_flags and req["check"]["kind"] == "table"):
                failures.append(f"{' '.join(req['argv'])}: {problem or 'bad flag counts'}")
                failed += 1
    attempted = max(1, len(requests) * (len(passes) + len(crashes)))
    checks_s = time.monotonic() - t_checks
    failures = crashes + failures

    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    summary = {}
    for p in passes:
        p["setup_s"] = p["import_s"] * host_speed(p)
        p["wall_norm_s"] = p["wall_s"] * host_speed(p)
        p["reference_s_median"] = statistics.median(p["reference_s"])
    if plain:
        for key in (*END_TO_END, "import_s", "wall_s", "reference_s_median"):
            med, q1, q3 = _median_q([p[key] for p in plain])
            summary[key] = {"value": med, "q1": q1, "q3": q3, "n": len(plain)}

    layer, tops = {}, []
    if args.trace and traced:
        per_pass = []
        for p in traced:
            sp = spans.load(p["spans"])
            m, top = spans.layer_metrics(sp, [r["h"] for r in requests])
            per_pass.append(m)
            tops.append(top)
            os.remove(p["spans"]["file"])
        for name in per_pass[0]:
            layer[name] = statistics.median(m[name] for m in per_pass)
        layer["trace.overhead_frac"] = (
            statistics.median(p["wall_norm_s"] for p in traced)
            / summary["wall_norm_s"]["value"] - 1.0 if summary else 0.0)
        layer["fail_frac"] = failed / attempted

    env = environment(args.seed, passes[0] if passes else {})
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "environment": env,
              "passes": len(passes), "requests_per_pass": len(requests),
              "passes_s": t_checks - start, "checks_s": checks_s,
              "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
              "end_to_end": summary, "per_layer": layer, "top_self_time": tops[:1],
              "bound_margin_min": min((r["check"]["margin"] for r in requests
                                       if "margin" in r["check"]), default=None),
              "failures": failures[:50],
              "raw": [{"wall_s": p["wall_s"], "import_s": p["import_s"], "trace": p["trace"],
                       "reference_s": p["reference_s"],
                       "latencies": [res["seconds"] for res in p["results"]]} for p in passes]}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    with open(os.path.join(WORK, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, sys.stderr)

    if args.trace:
        units = per_layer_units(layer)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": summary[k]["value"], "unit": u}
                   for k, u in END_TO_END.items() if k in summary}
    print(json.dumps({"correct": failed == 0 and bool(passes), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_report(r, out):
    env = r["environment"]
    print(f"# workload {r['workload']} seed {r['seed']} trace {r['trace']}: "
          f"{r['passes']} passes x {r['requests_per_pass']} requests in "
          f"{r['passes_s']:.1f} s, checks {r['checks_s']:.1f} s", file=out)
    print(f"# env: commit {env['git_commit']} src {env['src_sha256'][:12]} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']!r} threads {env['threads']}", file=out)
    for k, s in r["end_to_end"].items():
        print(f"{k:<40} {s['value']:.6g} {END_TO_END.get(k, 's')}  (median over passes; "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, {s['n']} passes)", file=out)
    print(f"{'fail_frac':<40} {r['fail_frac']:.6g} ratio  "
          f"({r['failed']} of {r['attempted']} requests)", file=out)
    units = per_layer_units(r["per_layer"])
    for k, v in r["per_layer"].items():
        print(f"{k:<40} {v:.6g} {units[k]}", file=out)
    for top in r["top_self_time"]:
        for label, rows in top.items():
            if rows:
                print(f"# largest self time ({label}): " +
                      ", ".join(f"{n} {t:.3f}s" for n, t in rows[:5]), file=out)
    if r["bound_margin_min"] is not None:
        print(f"# smallest bound / realised distance: {r['bound_margin_min']:.4g}", file=out)
    for f in r["failures"][:10]:
        print(f"FAILED: {f}", file=out)


if __name__ == "__main__":
    sys.exit(main())
