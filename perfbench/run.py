#!/usr/bin/env python3
"""taulattice benchmark: seeded closed-loop workloads with checked results.

    python3 perfbench/run.py --workload lattice_march --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's tasks back to back, each
task starting after the previous one returned (a closed loop), after one
untimed warm-up round. The number of tasks follows from --seconds alone:
whole rounds of the workload's mix, as many as take about that long on a
shared two-core machine. Every result is checked against a reference that
does not share the timed path.
Times are reported at a reference machine speed, measured by a probe timed
around every task (see speed.py); the record keeps the wall times too.

--trace 0 reports the end-to-end metrics. --trace 1 wraps the calls into
each layer for half of --seconds, repeats the same tasks without the
wrappers to measure the overhead, and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
Provenance, every task's parameters, time and residual, and (traced) the
spans go to .perfbench/ at the root of the checkout.

Runs from a checkout: the package is imported from src/, not installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("lattice_march", "verify_suite", "continuum_march")

# One BLAS thread: the package does small dense algebra, and on a shared
# two-core machine a second thread adds noise, not speed. numpy reads these
# when first imported, so the benchmark's own modules, which import numpy,
# are imported inside functions, after main() has set them.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10    # the tail percentile keeps this many samples above it
# A task's speed factor is the median of the probe factors of this many tasks
# around it. One probe pair sees only the instants before and after its
# task; the median over neighbours follows the machine's load, not its
# jitter. Re-scored on the same ten-seed sets from a shared two-core x86-64
# machine, the quartile spread of check_ms.p50 fell from 0.14 to 0.07 on
# lattice_march and from 0.09 to 0.03 on continuum_march, and stayed at 0.13
# on verify_suite.
SPEED_WINDOW = 21

# Import plus the package's first-call set-up: a quadrature grid and its
# cumulative matrix, a finite-difference stencil, one stepper segment.
SETUP_CODE = """\
import sys
import numpy as np
import taulattice, taulattice.cli
t0 = taulattice.CouplingVector.from_mapping({})
taulattice.tau_orthogonal(t0, 2)
taulattice.tau_coupling_derivative("unitary", 1, t0, {1: 1})
taulattice.evolve_volterra(taulattice.VolterraState(np.arange(1.0, 9.0)), 2, [1e-3])
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup_s(samples: int) -> list:
    """Seconds from starting a fresh interpreter until set-up is done, at
    reference speed.

    One warm-up interpreter runs first so bytecode caches exist, as they do
    for a user's second run.
    """
    import speed

    def probe():   # one set-up sample weighs more than one task: steady it
        return statistics.median(speed.probe() for _ in range(3))

    times = []
    for i in range(samples + 1):
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up interpreter failed: %s" % err.strip()[-500:])
        if i:
            times.append(elapsed * speed.factor(before, probe()))
    return times


# ---------------------------------------------------------------------------
# provenance

def _git_sha():
    """HEAD of a .git directory at the checkout root, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "taulattice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:   # older numpy has no dict form; the name is optional
        blas = None
    return {"git_sha": _git_sha(), "source_sha256_16": _source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)), "machine": platform.machine(),
            "processes": 1, "loop": "closed, one client"}


# ---------------------------------------------------------------------------
# running tasks

def run_task(W, tid, kind_name, params, ctx, exponent, tracer=None) -> dict:
    import speed

    kind = W.KINDS[kind_name]
    error = None
    before = speed.probe()
    if tracer is not None:
        tracer.task_id = tid
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = kind.run(params, ctx)
    except Exception as exc:   # any raise is a failed task, reported by name
        error = "%s: %s" % (type(exc).__name__, exc)
    wall_ms = (time.perf_counter() - t0) * 1e3
    if tracer is not None:
        tracer.active = False
    probe_factor = speed.factor(before, speed.probe(), exponent)
    checks = []
    if error is None:
        try:
            checks = kind.check(params, result, ctx)
        except Exception as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
    bad = [c for c in checks if not c[1] <= c[2]]   # NaN fails
    passed = error is None and not bad
    headroom = None
    if passed:
        scored = [math.log10(tol / max(res, tol * 1e-16)) for _, res, tol in checks if tol > 0]
        headroom = min(scored) if scored else None
    return {"id": tid, "kind": kind_name, "params": params,
            "wall_ms": wall_ms, "probe_factor": probe_factor,
            "passed": passed, "error": error, "checks": [[n, r, t] for n, r, t in checks],
            "failed_checks": [n for n, _, _ in bad], "headroom": headroom,
            "known_bad": None if passed else kind.known_bad(params)}


def run_tasks(W, workload, seed, seconds, ctx, tracer=None):
    """The warm-up round, untimed, then the timed tasks of a run of `seconds`."""
    exponent = W.SPEED_EXPONENT[workload]
    warm, timed = W.plan(workload, seed, W.n_rounds(workload, seconds))
    for kind_name, params in warm:
        run_task(W, -1, kind_name, params, ctx, exponent)
    return at_reference_speed([run_task(W, tid, kind_name, params, ctx, exponent, tracer)
                               for tid, (kind_name, params) in enumerate(timed)])


def at_reference_speed(outcomes):
    """Give each task its speed factor (see SPEED_WINDOW) and its time at
    reference speed, "ms"."""
    factors = [o["probe_factor"] for o in outcomes]
    half = SPEED_WINDOW // 2
    for i, o in enumerate(outcomes):
        o["speed_factor"] = statistics.median(factors[max(i - half, 0):i + half + 1])
        o["ms"] = o["wall_ms"] * o["speed_factor"]
    return outcomes


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, n)."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(outcomes, setup_times) -> dict:
    ms = [o["ms"] for o in outcomes]
    failed = sum(not o["passed"] for o in outcomes)
    by_kind = {}
    for o in outcomes:
        if o["passed"] and o["headroom"] is not None:
            by_kind.setdefault(o["kind"], []).append(o["headroom"])
    kind_means = {k: statistics.fmean(v) for k, v in by_kind.items()}
    tail_ms = tail(ms)[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "checks_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "check_ms.p50": (statistics.median(ms), "ms"),
        "check_ms.tail": (tail_ms, "ms"),
        "pass_ratio": (1.0 - failed / len(ms), "ratio"),
        # 0 only when no task passed at all
        "headroom.worst_kind": (min(kind_means.values(), default=0.0), "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, kind_means


def summarize(outcomes) -> dict:
    fails = {}
    for o in outcomes:
        if not o["passed"]:
            reason = o["error"] or "check " + ",".join(o["failed_checks"])
            key = (o["kind"], o["known_bad"] or "UNEXPECTED", reason[:160])
            fails.setdefault(key, []).append(o["params"])
    return fails


# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    import workloads as W
    import layertrace as T

    warnings.simplefilter("ignore")   # overflow warnings of unstable runs
    os.makedirs(OUT, exist_ok=True)
    extra = {}
    if args.trace:
        import_s = T.measure_import_s(sys.executable, child_env(), ROOT, IMPORT_SAMPLES)
    else:
        setup_times = measure_setup_s(SETUP_SAMPLES)
    W.load()
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        ctx = W.Context(scratch)
        if args.trace:
            tracer = T.Tracer()
            tracer.install()
            try:
                outcomes = run_tasks(W, args.workload, args.seed, args.seconds / 2, ctx,
                                      tracer)
            finally:
                tracer.uninstall()
            # the same tasks again without wrappers: the tracing overhead
            exponent = W.SPEED_EXPONENT[args.workload]
            plain = at_reference_speed([run_task(W, o["id"], o["kind"], o["params"], ctx,
                                                 exponent) for o in outcomes])
            metrics = tracer.metrics({o["id"]: o["speed_factor"] for o in outcomes})
            for layer, secs in import_s.items():
                metrics[layer + ".import_s"] = (secs, "s")
            metrics["trace.overhead_ratio"] = (
                sum(o["ms"] for o in outcomes) / sum(o["ms"] for o in plain), "ratio")
            spans_path = os.path.join(OUT, "%s-seed%d-spans.csv" % (args.workload, args.seed))
            tracer.write_spans(spans_path)
            extra["spans"] = os.path.relpath(spans_path, ROOT)
            extra["spans_recorded"] = len(tracer.spans)
        else:
            outcomes = run_tasks(W, args.workload, args.seed, args.seconds, ctx)
            metrics, kind_means = end_to_end(outcomes, setup_times)
            _, pct, n = tail([o["ms"] for o in outcomes])
            extra.update(setup_samples_s=setup_times, tail_percentile=pct, tail_samples=n,
                         headroom_by_kind=kind_means,
                         headroom_task_min=min((o["headroom"] for o in outcomes
                                                if o["headroom"] is not None), default=None))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not o["passed"] for o in outcomes)
    fails = summarize(outcomes)
    unexpected = sum(len(v) for k, v in fails.items() if k[1] == "UNEXPECTED")
    record = {"provenance": provenance(args), "metrics": metrics, "attempted": len(outcomes),
              "failed": failed, "fail_ratio": failed / len(outcomes),
              "unexpected_failures": unexpected,
              "speed_factor_median": statistics.median(o["speed_factor"] for o in outcomes),
              **extra,
              "failures": [{"kind": k[0], "known_defect": k[1], "reason": k[2],
                            "count": len(v), "params": v} for k, v in fails.items()],
              "tasks": outcomes}
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=float)

    print("perfbench %s seed=%d trace=%d: %d tasks, %d failed, fail_ratio %.4f "
          "(%d outside known defects)" % (args.workload, args.seed, args.trace, len(outcomes),
                                          failed, failed / len(outcomes), unexpected))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    for (kind, defect, reason), params in fails.items():
        print("  FAILED x%d %s [%s] %s; e.g. %s"
              % (len(params), kind, defect, reason, json.dumps(params[0])))
    print("  record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": unexpected == 0, "attempted": len(outcomes),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"]["%s/%s" % (name, k)] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "taulattice", "__init__.py")):
        sys.stderr.write("perfbench: no taulattice sources under %s\n" % SRC)
        return 2
    for var in BLAS_VARS:   # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    # One core for the benchmark and the interpreters it starts, so that the
    # speed probe sees the same contention as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
