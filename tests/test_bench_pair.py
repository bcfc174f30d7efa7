"""`scripts/bench_pair.py`'s summary on synthetic runs: what it records for
each metric and which pairs it flags."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pair.py")
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

END_TO_END = [{"name": "check_ms.p50", "better": "lower", "bound": 0.24},
              {"name": "checks_per_s", "better": "higher", "bound": 0.24},
              {"name": "pass_ratio", "better": "higher", "bound": 0.1}]


def _runs(columns, counts):
    """Pairs from {metric: (parent values, change values)} and, per pair,
    ((attempted, failed) of the parent, of the change)."""
    runs = []
    for p, (parent, change) in enumerate(counts):
        run = {"seed": 100 + p}
        for side, (attempted, failed) in zip(bench_pair.SIDES, (parent, change)):
            metrics = {m: vals[bench_pair.SIDES.index(side)][p] for m, vals in columns.items()}
            run[side] = {"w": {"attempted": attempted, "failed": failed, "metrics": metrics}}
        runs.append(run)
    return runs


def test_summary_records_spread_resolution_and_bound():
    runs = _runs({"check_ms.p50": ([2.0, 2.1, 2.2, 2.3], [1.6, 1.7, 1.8, 1.9]),
                  "checks_per_s": ([10.0, 10.0, 10.0, 10.0], [7.0, 7.0, 7.0, 8.0]),
                  "pass_ratio": ([1.0] * 4, [1.0] * 4),
                  "peak_rss_mb": ([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])},
                 [((121, 0), (121, 0))] * 4)
    s = bench_pair.summarize(runs, ["w"], END_TO_END)["w"]
    p50 = s["check_ms.p50"]
    assert p50["parent"] == pytest.approx({"median": 2.15, "q1": 2.075, "q3": 2.225})
    assert p50["parent_spread"] == pytest.approx(0.15)
    assert p50["resolved"] and not p50["past_bound"]
    assert (p50["change_wins"], p50["pairs"]) == (4, 4)
    # 3/s below a parent median of 10/s is past a bound of 0.24 of it
    rate = s["checks_per_s"]
    assert rate["parent_spread"] == 0.0 and rate["ratio"] == pytest.approx(0.7)
    assert rate["resolved"] and rate["past_bound"] and rate["change_wins"] == 0
    ties = s["pass_ratio"]
    assert not ties["resolved"] and not ties["past_bound"] and ties["change_wins"] == 0
    # a metric without a bound gets the spread but neither wins nor a bound
    rss = s["peak_rss_mb"]
    assert rss["parent_spread"] == pytest.approx(1.5) and not rss["resolved"]
    assert "past_bound" not in rss and "change_wins" not in rss


@pytest.mark.parametrize("change,past", [(7.7, False), (7.5, True)])
def test_bound_is_a_fraction_of_the_parent_median(change, past):
    runs = _runs({"checks_per_s": ([10.0] * 3, [change] * 3)}, [((1, 0), (1, 0))] * 3)
    assert bench_pair.summarize(runs, ["w"], END_TO_END)["w"]["checks_per_s"]["past_bound"] is past


def test_pairs_whose_counts_differ_are_flagged():
    runs = _runs({"check_ms.p50": ([1.0] * 4, [1.0] * 4)},
                 [((76, 18), (76, 18)), ((76, 18), (76, 19)), ((76, 18), (76, 18)),
                  ((75, 18), (76, 18))])
    assert bench_pair.count_mismatches(runs, ["w"]) == {"w": [101, 103]}
    assert bench_pair.count_mismatches(runs[:1], ["w"]) == {"w": []}


def test_process_seconds_are_each_sides_medians():
    runs = _runs({"checks_per_s": ([1.0] * 3, [1.0] * 3)}, [((1, 0), (1, 0))] * 3)
    for run, (wall, cpu) in zip(runs, [(16.0, 15.0), (18.0, 12.0), (17.0, 14.0)]):
        run["parent"]["w"].update(wall_s=wall, cpu_s=cpu)
        run["change"]["w"].update(wall_s=wall - 1.0, cpu_s=cpu / 2)
    assert bench_pair.process_seconds(runs, ["w"]) == {
        "w": {"parent": {"wall_s": 17.0, "cpu_s": 14.0},
              "change": {"wall_s": 16.0, "cpu_s": 7.0}}}


_STUB_RUN = '''
import argparse, json, os, time
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
args = p.parse_args()
end = time.process_time() + 0.2
while time.process_time() < end:
    pass
os.makedirs(".perfbench", exist_ok=True)
with open(".perfbench/%s-seed%s-trace0.json" % (args.workload, args.seed), "w") as f:
    json.dump({"attempted": 3, "failed": 1, "metrics": {"checks_per_s": [2.0, "1/s"]},
               "provenance": {}, "tasks": [{"kind": "b", "ms": 7.0}, {"kind": "a", "ms": 1.0},
                                           {"kind": "a", "ms": 4.0}]}, f)
'''


def test_kind_times_are_medians_over_the_pairs_per_side():
    # a p50 that falls among the many short tasks and a tail the few long ones set
    tasks = [{"kind": "scan", "ms": ms} for ms in (2.0, 2.2, 2.4, 2.6)] + [
        {"kind": "march", "ms": ms} for ms in (70.0, 78.0)]
    per_run = bench_pair._kind_ms(tasks)
    assert per_run == {"march": {"tasks": 2, "ms": 74.0}, "scan": {"tasks": 4, "ms": 2.3}}
    runs = _runs({"checks_per_s": ([1.0] * 3, [1.0] * 3)}, [((6, 0), (6, 0))] * 3)
    for run, scale in zip(runs, (1.0, 3.0, 2.0)):
        run["parent"]["w"]["kind_ms"] = {kind: {"tasks": e["tasks"], "ms": e["ms"] * scale}
                                         for kind, e in per_run.items()}
        run["change"]["w"]["kind_ms"] = {"scan": {"tasks": 4 + scale, "ms": scale}}
    assert bench_pair.kind_ms(runs, ["w"]) == {
        "w": {"parent": {"march": {"tasks": 2, "ms": 148.0}, "scan": {"tasks": 4, "ms": 4.6}},
              "change": {"scan": {"tasks": 6.0, "ms": 2.0}}}}


def test_a_run_records_its_process_wall_and_cpu_seconds(tmp_path):
    # a stub benchmark that spends 0.2 s of CPU time before writing its record
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_STUB_RUN)
    record = bench_pair._run(str(tmp_path), ["w"], 5, 1)["w"]
    assert (record["attempted"], record["failed"]) == (3, 1)
    assert record["metrics"] == {"checks_per_s": 2.0}
    assert record["kind_ms"] == {"a": {"tasks": 2, "ms": 2.5}, "b": {"tasks": 1, "ms": 7.0}}
    assert 0.2 <= record["cpu_s"] <= record["wall_s"] + 0.05


@pytest.mark.parametrize("parent, change, spread_past, always_better, unresolved", [
    # spread 1.875 of a median 10.75: past a bound of 0.1 of it, change not always better
    ([9.0, 10.0, 11.5, 12.0], [9.5, 10.0, 11.0, 12.0], True, False, True),
    # the same spread, but every change run beats every parent run
    ([9.0, 10.0, 11.5, 12.0], [12.5, 13.0, 13.5, 14.0], True, True, False),
    # spread 0.15 of a median 10.15: inside the bound, so resolved or not, not unresolved
    ([10.0, 10.1, 10.2, 10.3], [9.0, 10.0, 11.0, 12.0], False, False, False)])
def test_a_spread_past_the_bound_is_unresolved_unless_the_change_always_wins(
        parent, change, spread_past, always_better, unresolved):
    end_to_end = [{"name": "checks_per_s", "better": "higher", "bound": 0.1}]
    runs = _runs({"checks_per_s": (parent, change)}, [((1, 0), (1, 0))] * 4)
    e = bench_pair.summarize(runs, ["w"], end_to_end)["w"]["checks_per_s"]
    assert (e["spread_past_bound"], e["change_always_better"]) == (spread_past, always_better)
    assert bench_pair.table_row("w", "checks_per_s", e).endswith("unresolved") is unresolved


def test_always_better_reads_the_direction_of_the_metric():
    # lower is better: every change run below every parent run, with a tie not enough
    runs = _runs({"check_ms.p50": ([2.0, 2.2, 2.4], [1.0, 1.5, 1.9])}, [((1, 0), (1, 0))] * 3)
    assert bench_pair.summarize(runs, ["w"], END_TO_END)["w"]["check_ms.p50"][
        "change_always_better"]
    runs = _runs({"check_ms.p50": ([2.0, 2.2, 2.4], [1.0, 1.5, 2.0])}, [((1, 0), (1, 0))] * 3)
    assert not bench_pair.summarize(runs, ["w"], END_TO_END)["w"]["check_ms.p50"][
        "change_always_better"]
    # a metric without a bound gets neither field, and its row no mark
    rss = bench_pair.summarize(_runs({"peak_rss_mb": ([1.0] * 3, [9.0] * 3)},
                                     [((1, 0), (1, 0))] * 3), ["w"], END_TO_END)["w"]["peak_rss_mb"]
    assert "spread_past_bound" not in rss and "change_always_better" not in rss
    assert not bench_pair.table_row("w", "peak_rss_mb", rss).endswith("unresolved")
