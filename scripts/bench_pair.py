#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternation and keep every result.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --workload verify_suite \\
        --seeds 611..620 --out BENCH_verify_path.json

For each seed, `perfbench/run.py --trace 0` runs once in each checkout, for
the `run_seconds` of the change's `BENCHMARK.json`, the parent first on
even pair indices and the change first on odd ones, so a drift in machine
load falls on both sides alike.  `--workload all` runs every workload that
the change's `BENCHMARK.json` declares, one `perfbench/run.py --workload
NAME` process per workload, so no workload runs in a process that an
earlier workload has already warmed or grown: paired runs of `run.py
--workload all` moved continuum_march by 11-17% on unchanged continuum
code, while one process per workload read within 1%.  The output file
holds both checkouts' git SHAs, source digests and library versions,
every run's end-to-end metrics and attempted/failed counts per workload,
and for each metric the two sides' median and quartiles, the ratio of the
medians and how many pairs the change won (ties count for neither side).
Beside these it records what a reading of the result turns on: the
parent's quartile spread q3 - q1, whether the medians differ by more than
that spread, and whether the change's median is worse than the parent's by
more than the metric's `bound` in `BENCHMARK.json`, read as a fraction of
the parent's median; whether the parent's spread is itself wider than
that bound, and whether every change run reads better than every parent
run (a metric whose spread is past its bound is unresolved, not
unchanged, unless the change always reads better, and the printed table
says "unresolved" there); and, per workload, the seeds of any pair whose
attempted or failed counts differ.  Each run also records, per workload,
the benchmark process's wall seconds and its CPU seconds (user plus
system, the `getrusage(RUSAGE_CHILDREN)` delta across the process), and
the summary gives each side's median of both.  Each run also keeps, per
workload, the median task time (`ms`) and the task count of each task
kind in the record's `tasks`, and the summary gives each side's median of
these over the pairs, so a move in `check_ms.p50` or `check_ms.tail` can
be traced to the kinds whose times sit there.  A run does a fixed number
of tasks, so wall seconds above CPU seconds are time the process waited
for a core, and CPU seconds that move with the rate on unchanged code are
a slower core, not a change in the work.  Nothing is gated: the exit
status is 0 whenever every run completed.

Both sides start with the same bytecode caches: every `__pycache__`
directory under either checkout is emptied before the first pair, and the
benchmark processes run without `PYTHONDONTWRITEBYTECODE`, so each side's
first interpreter writes the caches its later ones read.  `setup_s` times
fresh interpreters, and it read 22% slower on a checkout without caches
than on one that held them from an earlier run, on identical import paths.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def _seeds(text: str) -> list:
    lo, sep, hi = text.partition("..")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]


def _empty_bytecode_caches(checkout: str) -> None:
    for root, dirs, _ in os.walk(checkout):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(root, "__pycache__"))
            dirs.remove("__pycache__")
        if ".git" in dirs:
            dirs.remove(".git")


def _run(checkout: str, names: list, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`, one process per workload: per
    workload, its record's counts, metric values, per-kind task times and
    provenance, and the process's wall and CPU seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = {}
    for name in names:
        before, start = _children_cpu_s(), time.perf_counter()
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"],
                              cwd=checkout, env=env, capture_output=True, text=True)
        wall_s, cpu_s = time.perf_counter() - start, _children_cpu_s() - before
        if proc.returncode != 0:
            raise RuntimeError("benchmark failed in %s (%s, seed %d):\n%s"
                               % (checkout, name, seed, proc.stderr[-2000:]))
        path = os.path.join(checkout, ".perfbench", "%s-seed%d-trace0.json" % (name, seed))
        with open(path) as f:
            record = json.load(f)
        out[name] = {"attempted": record["attempted"], "failed": record["failed"],
                     "metrics": {k: v[0] for k, v in record["metrics"].items()},
                     "kind_ms": _kind_ms(record["tasks"]), "wall_s": wall_s, "cpu_s": cpu_s, "provenance": record["provenance"]}
    return out


def _kind_ms(tasks: list) -> dict:
    """{kind: its task count and median `ms`} over a run record's tasks."""
    by_kind = {}
    for task in tasks:
        by_kind.setdefault(task["kind"], []).append(task["ms"])
    return {kind: {"tasks": len(ms), "ms": statistics.median(ms)}
            for kind, ms in sorted(by_kind.items())}


def _children_cpu_s() -> float:
    """User plus system CPU seconds of every waited-for child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _quartiles(xs: list) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list, names: list, end_to_end: list) -> dict:
    """Per workload and metric: each side's median and quartiles, the ratio
    change/parent of the medians, the parent's quartile spread and whether
    the medians differ by more than it.  For a metric of `end_to_end`
    (`BENCHMARK.json`'s list, each with `better` and `bound`), also the
    change's wins over the pairs, whether its median is worse than the
    parent's by more than `bound` times the parent's median, whether the
    parent's spread exceeds that much, and whether every change run reads
    better than every parent run."""
    declared = {m["name"]: m for m in end_to_end}
    out = {}
    for name in names:
        per_metric = {}
        for metric in runs[0]["parent"][name]["metrics"]:
            vals = {side: [r[side][name]["metrics"][metric] for r in runs] for side in SIDES}
            entry = {side: _quartiles(vals[side]) for side in SIDES}
            base, med = entry["parent"]["median"], entry["change"]["median"]
            entry["ratio"] = med / base if base else None
            entry["parent_spread"] = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["resolved"] = abs(med - base) > entry["parent_spread"]
            if metric in declared:
                sign = 1.0 if declared[metric]["better"] == "higher" else -1.0
                entry["change_wins"] = sum(sign * (c - p) > 0
                                           for p, c in zip(vals["parent"], vals["change"]))
                entry["pairs"] = len(runs)
                allowed = declared[metric]["bound"] * abs(base)
                entry["past_bound"] = sign * (base - med) > allowed
                entry["spread_past_bound"] = entry["parent_spread"] > allowed
                entry["change_always_better"] = (min(sign * c for c in vals["change"])
                                                 > max(sign * p for p in vals["parent"]))
            per_metric[metric] = entry
        out[name] = per_metric
    return out


def table_row(name: str, metric: str, e: dict) -> str:
    """One metric's line of the printed table, ending in "unresolved" when
    the parent's spread is past the bound and the change does not always
    read better."""
    unresolved = e.get("spread_past_bound") and not e["change_always_better"]
    return ("%-16s %-20s parent %-10.4g change %-10.4g ratio %-7.3f wins %-5s "
            "spread %-9.3g resolved %-3s past bound %-3s%s"
            % (name, metric, e["parent"]["median"], e["change"]["median"],
               e["ratio"] if e["ratio"] is not None else float("nan"),
               "%d/%d" % (e["change_wins"], e["pairs"]) if "change_wins" in e else "-",
               e["parent_spread"], "yes" if e["resolved"] else "no",
               {True: "yes", False: "no"}.get(e.get("past_bound"), "-"),
               "  unresolved" if unresolved else ""))


def process_seconds(runs: list, names: list) -> dict:
    """Per workload and side, the median wall and CPU seconds of the
    benchmark processes."""
    return {name: {side: {key: statistics.median(r[side][name][key] for r in runs)
                          for key in ("wall_s", "cpu_s")}
                   for side in SIDES}
            for name in names}


def kind_ms(runs: list, names: list) -> dict:
    """Per workload, side and task kind, the medians over the pairs of the
    kind's task count and of its median task time in each run."""
    out = {}
    for name in names:
        out[name] = {}
        for side in SIDES:
            kinds = {}
            for r in runs:
                for kind, e in r[side][name]["kind_ms"].items():
                    kinds.setdefault(kind, []).append(e)
            out[name][side] = {kind: {key: statistics.median(e[key] for e in es)
                                      for key in ("tasks", "ms")}
                               for kind, es in sorted(kinds.items())}
    return out


def count_mismatches(runs: list, names: list) -> dict:
    """Per workload, the seeds of the pairs whose two sides differ in
    attempted or failed tasks."""
    return {name: [r["seed"] for r in runs
                   if len({(r[side][name]["attempted"], r[side][name]["failed"])
                           for side in SIDES}) > 1]
            for name in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True, help="a workload name or 'all'")
    p.add_argument("--seeds", required=True, help="one seed or a range A..B")
    p.add_argument("--out", default="BENCH_pair.json")
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent_dir),
            "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in declared:
        p.error("unknown workload %r; declared: %s" % (args.workload, ", ".join(declared)))
    names = declared if args.workload == "all" else [args.workload]
    seconds = spec["run_seconds"]

    for checkout in dirs.values():
        _empty_bytecode_caches(checkout)
    runs = []
    for i, seed in enumerate(_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = _run(dirs[side], names, seed, seconds)
            print("seed %d %-6s %s" % (seed, side, "  ".join(
                "%s %.4g/s %d/%d %.1f s wall %.1f s cpu" % (
                    n, run[side][n]["metrics"]["checks_per_s"], run[side][n]["attempted"],
                    run[side][n]["failed"], run[side][n]["wall_s"], run[side][n]["cpu_s"])
                for n in names)), flush=True)
        runs.append(run)

    machine = {key: runs[0]["parent"][names[0]]["provenance"].get(key)
               for key in ("machine", "nproc", "cpus_used")}
    sides = {}
    for side in SIDES:
        prov = runs[0][side][names[0]]["provenance"]
        sides[side] = {key: prov.get(key) for key in
                       ("git_sha", "source_sha256_16", "python", "numpy", "scipy",
                        "blas", "blas_threads")}
        for run in runs:
            for name in names:
                run[side][name].pop("provenance")
    result = {"command": ["python3", "perfbench/run.py", "--workload", "<one workload>",
                          "--seconds", seconds, "--trace", 0],
              "workloads": names, "seeds": [r["seed"] for r in runs],
              "machine": machine,
              "sides": sides, "summary": summarize(runs, names, spec["end_to_end"]),
              "process_s": process_seconds(runs, names), "kind_ms": kind_ms(runs, names),
              "counts_differ": count_mismatches(runs, names), "runs": runs}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for name in names:
        for metric, e in result["summary"][name].items():
            print(table_row(name, metric, e))
        print("%-16s process seconds, median: %s" % (name, "  ".join(
            "%s %.2f wall %.2f cpu" % (side, times["wall_s"], times["cpu_s"])
            for side, times in result["process_s"][name].items())))
        kinds = result["kind_ms"][name]
        for kind in sorted(set(kinds["parent"]) | set(kinds["change"])):
            print("%-16s task ms of %-20s %s" % (name, kind, "  ".join(
                "%s %.4g (%g tasks)" % (side, kinds[side][kind]["ms"], kinds[side][kind]["tasks"])
                if kind in kinds[side] else "%s -" % side for side in SIDES)))
        seeds = result["counts_differ"][name]
        print("%-16s attempted/failed %s" % (name, "differ at seeds %s" % seeds if seeds
                                             else "equal in every pair"))
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
