"""clamseg benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload train-smoke --seed 1 --seconds 20 --trace 0

Run from a source checkout (the package is imported from ``src/``).  The
run sets up its inputs from ``--seed`` several times and reports the median
set-up time.  It then runs fixed-size jobs one after another, starting
each only if it is expected to end within ``--seconds`` (at least one job).
Every job checks its outputs.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs untraced jobs for the first half of ``--seconds``, then
installs the span tracer from ``tracing.py`` and runs traced jobs for the
rest.  It reports the per-layer table of the traced jobs and the tracing
overhead (median traced job time against median untraced job time), and
writes the spans out.

The last line of stdout is the result object; the line before it lists the
workload's own named figures.  A full record with machine facts goes to
``.bench_build/clamseg/results/``.  Inputs and checkpoints live in a scratch
directory under ``.bench_build/clamseg/`` that is removed at exit.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "clamseg")

# One BLAS thread: the matrices are small at batch 1, and a second thread
# spinning on a shared core made step times swing by several times.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

sys.path.insert(0, os.path.join(ROOT, "src"))

import clamseg  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, percentiles_ms  # noqa: E402

if os.path.dirname(os.path.abspath(clamseg.__file__)) != os.path.join(ROOT, "src", "clamseg"):
    sys.exit(f"clamseg imported from {clamseg.__file__}, not from this checkout's src/")

# set up at least SETUPS times and for at least MIN_SETUP_S, so that a
# set-up of a few ms still gets a steady median
SETUPS = 3
MIN_SETUP_S = 1.0
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(wl, seconds, start, jobs):
    """Run jobs while the next one is expected to end within `seconds` of
    `start`, at least one.  Returns False when a job crashed."""
    while True:
        try:
            jobs.append(wl.job())
        except Exception:
            traceback.print_exc()
            return False
        if time.perf_counter() - start + jobs[-1].seconds > seconds:
            return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        setup_s = []
        while len(setup_s) < SETUPS or sum(setup_s) < MIN_SETUP_S:
            out = os.path.join(work, f"setup{len(setup_s)}")
            os.makedirs(out)
            t0 = time.perf_counter()
            wl.setup(tracer, out)
            setup_s.append(time.perf_counter() - t0)
        wl.prepare()

        start = time.perf_counter()
        untraced, traced = [], []
        if args.trace:
            ok = run_jobs(wl, args.seconds / 2, start, untraced)
            if ok:
                tracer.install()
                try:
                    ok = run_jobs(wl, args.seconds, start, traced)
                finally:
                    tracer.uninstall()
        else:
            ok = run_jobs(wl, args.seconds, start, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = untraced + traced
    attempted = sum(j.attempted for j in jobs) + (not ok)
    failed = sum(j.failed for j in jobs) + (not ok)
    correct = ok and failed == 0

    named = {"setup_s": (statistics.median(setup_s), "s")}
    if jobs:
        named.update(wl.summary(jobs))
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["failed_frac"] = (failed / attempted, "1")

    if args.trace:
        gc_counts = {k: sum(j.extra.get(k, 0) for j in traced) for k in ("checked", "skipped")}
        values = layer_metrics(tracer, max(len(traced), 1), len(setup_s), gc_counts)
        values["tracing_overhead_frac"] = (
            statistics.median(j.seconds for j in traced)
            / statistics.median(j.seconds for j in untraced) - 1.0 if traced else 0.0)
        tracer.write_spans(os.path.join(results_dir,
                                        f"{args.workload}-seed{args.seed}.spans.tsv"))
    else:
        p50, p90 = percentiles_ms([u for j in jobs for u in j.units] or [0.0])
        values = {"setup_s": named["setup_s"][0], "latency_ms_p50": p50, "latency_ms_p90": p90,
                  "job_s": statistics.median(j.seconds for j in jobs) if jobs else 0.0,
                  "peak_rss_mb": named["peak_rss_mb"][0]}
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "unit_of_work": wl.unit, "jobs": len(jobs),
              "units": sum(len(j.units) for j in jobs), "setup_runs_s": setup_s,
              "machine": machine_facts(),
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in named.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
