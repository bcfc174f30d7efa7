#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  - a tiny run of each workload, traced and untraced, prints every metric
    BENCHMARK.json names, with its unit, and nothing else;
  - a deliberately perturbed reference makes a healthy task fail, and a NaN
    residual never passes;
  - the same seed reproduces the task list exactly, and another seed does not,
    while the cost- and outcome-setting parameters are the same set;
  - without the package sources the benchmark exits non-zero and prints no
    result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES = []


def expect(ok: bool, what: str):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def tiny_runs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[group]}
        for name in run.WORKLOAD_NAMES:
            proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                                   "--workload", name, "--seed", "3", "--seconds", "0.1",
                                   "--trace", str(trace)],
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                expect(False, "%s trace=%d prints a JSON result (%s)"
                       % (name, trace, proc.stderr.strip()[-300:]))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(proc.returncode == 0 and got == want,
                   "%s trace=%d emits exactly the %s metrics with their units"
                   % (name, trace, group))
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["attempted"] >= 1,
                   "%s trace=%d result keys and attempted >= 1" % (name, trace))


def perturbed_reference():
    import reference
    import workloads as W
    W.load()
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT)
    try:
        ctx = W.Context(scratch)
        cases = (("tau_unitary", {"n": 3, "t2": 0.05}, "log_tau_unitary"),
                 ("reduced_scaling", {"K": 5, "t_end": 0.1}, "reduced_scaling"))
        for kind, params, fn_name in cases:
            healthy = run.run_task(W, 0, kind, params, ctx, 1.0)
            expect(healthy["passed"], "%s %s passes against the true reference"
                   % (kind, json.dumps(params)))
            original = getattr(reference, fn_name)
            setattr(reference, fn_name, lambda *a, **k: original(*a, **k) * (1.0 + 1e-6))
            try:
                broken = run.run_task(W, 0, kind, params, ctx, 1.0)
            finally:
                setattr(reference, fn_name, original)
            expect(not broken["passed"] and broken["known_bad"] is None,
                   "%s fails, as unexpected, against a reference perturbed by 1e-6" % kind)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    nan = W._worst([1e-20, math.nan, 0.0])
    expect(not nan <= 1.0, "a NaN among compared values never passes")


def same_seed_same_tasks():
    import workloads as W

    def tasks(seed, rounds=4):
        return [json.dumps(W.plan(name, seed, rounds), sort_keys=True)
                for name in run.WORKLOAD_NAMES]

    expect(tasks(5) == tasks(5), "the same seed reproduces the task list")
    expect(tasks(5) != tasks(6), "another seed gives another task list")
    # tau tasks have only cost- and outcome-setting parameters
    for name in ("tau_unitary", "tau_orthogonal"):
        sets = [sorted(json.dumps(p, sort_keys=True)
                       for k, p in W.plan("verify_suite", seed, 4)[1] if k == name)
                for seed in (5, 6)]
        expect(sets[0] == sets[1], "%s: every seed runs the same set of tasks" % name)


def without_sources():
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "verify_suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ it exits %d and prints no result" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for var in run.BLAS_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, run.SRC)
    same_seed_same_tasks()
    perturbed_reference()
    without_sources()
    tiny_runs()
    print("selftest: %s" % ("all passed" if not FAILURES else "%d failed" % len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
