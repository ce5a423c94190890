#!/usr/bin/env python3
"""Benchmark of archsurv's user path: simulate -> fit -> predict -> evaluate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they
are the per-layer ones, and the spans go to perfbench/out/.  A readable
summary goes to standard error.  See perfbench/README.md.
"""

import os

# One process, one thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import archsurv; "
    "print(time.perf_counter() - t)"
)
WORKLOAD_NAMES = ("ex3-k7", "cohort", "predict-eval")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument(
        "--tiny", action="store_true", help="self-check sizes (seconds per workload)"
    )
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_archsurv():
    """Import archsurv from this checkout's sources; return the seconds taken."""
    if not (SRC / "archsurv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no archsurv sources at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import archsurv

    took = time.perf_counter() - start
    if Path(archsurv.__file__).resolve().parent != SRC / "archsurv":
        sys.exit(f"perfbench: imported archsurv from {archsurv.__file__}, not {SRC}")
    return took


def fresh_import_seconds():
    """`import archsurv` timed in a fresh interpreter (a user's first cost)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def main(argv=None):
    args = parse_args(argv)
    import_s = [import_archsurv()]
    import_s += [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    warnings.simplefilter("ignore")

    import tracing
    import workloads
    from bench import Run

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, **workloads.TINY[wl.name])
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def phase(name):
        """A timed phase: the tracer records spans only inside one."""
        return tracer.phase(name) if tracer else nullcontext()

    gen_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with phase("bench.setup"):
            train, queries = workloads.generate(wl, args.seed)
        gen_s.append(time.perf_counter() - start)
    setup_s = statistics.median(i + g for i, g in zip(import_s, gen_s))
    run = Run(wl, train.train, train.config, queries, phase)

    # Whole passes; another starts only if it should end within --seconds.
    # Every pass does the same work, so the passes differ only by the
    # machine; the median over passes spreads each figure over the run.
    passes, began, last = 0, time.perf_counter(), 0.0
    while passes == 0 or (time.perf_counter() - began) + last <= args.seconds:
        last = run.one_pass()
        passes += 1

    median = statistics.median
    e2e = {
        "setup_s": (setup_s, "s"),
        "fit_s": (median(run.fit_s), "s"),
        "predict_ms": (median(run.predict_ms), "ms"),
        "evaluate_ms": (median(run.evaluate_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    log = lambda *a: print(*a, file=sys.stderr)
    log(
        f"{wl.name} seed={args.seed} trace={args.trace}: {passes} pass(es), "
        f"{run.attempted} operations, {run.failed} failed"
    )
    for name, (value, unit) in e2e.items():
        log(f"  {name:<12} {value:12.6g} {unit}{'  (traced)' if tracer else ''}")
    log(
        "  per pass: fit_s " + " ".join(f"{v:.4g}" for v in run.fit_s)
        + " | predict_ms " + " ".join(f"{v:.4g}" for v in run.predict_ms)
        + " | evaluate_ms " + " ".join(f"{v:.4g}" for v in run.evaluate_ms)
    )
    log(
        f"  NotIdentified per pass: {run.counts['not_identified']} of "
        f"{len(queries.histories)} queries"
    )
    for err in run.errors:
        log(f"  CHECK FAILED: {err}")

    if tracer:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        metrics = tracing.summarize(tracer.spans, passes, run.counts)
        for name, (value, unit) in metrics.items():
            log(f"  {name:<28} {value:12.6g} {unit}")
        log(f"  spans: {len(tracer.spans)} written to {path}")
    else:
        metrics = e2e

    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
