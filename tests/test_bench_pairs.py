"""scripts/bench_pairs.py: seed lists and the per-metric summary of paired runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": "ms"} for k, v in values.items()}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1401-1404") == [1401, 1402, 1403, 1404]
    assert bench_pairs.parse_seeds("3,1,2") == [3, 1, 2]


def test_summary_counts_wins_in_each_metric_direction():
    metrics = [{"name": "cmd_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
               {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.001}]
    pairs = [{"parent": _run(cmd_p90_ms=p, ok_frac=1.0), "change": _run(cmd_p90_ms=c, ok_frac=1.0)}
             for p, c in ((100, 80), (110, 85), (90, 95), (105, 82))]
    summary = bench_pairs.summarize(pairs, metrics)
    p90 = summary["cmd_p90_ms"]
    assert p90["change_wins"] == 3 and p90["pairs"] == 4
    assert p90["parent_median"] == 102.5 and p90["change_median"] == 83.5
    # parent quartiles 97.5 and 106.25: a 19 ms gain exceeds their 8.75 ms spread
    assert (p90["parent_q1"], p90["parent_q3"]) == (97.5, 106.25)
    assert p90["median_gain_exceeds_parent_iqr"]
    # ties count for neither side
    assert summary["ok_frac"]["change_wins"] == 0
    assert not summary["ok_frac"]["median_gain_exceeds_parent_iqr"]


def _verdicts(parent, change, better="lower", bound=0.25):
    metrics = [{"name": "x", "unit": "ms", "better": better, "bound": bound}]
    pairs = [{"parent": _run(x=p), "change": _run(x=c)} for p, c in zip(parent, change)]
    entry = bench_pairs.summarize(pairs, metrics)["x"]
    return {v: entry[v] for v in ("claim_met", "worse_than_bound", "unresolved")}


def test_claim_needs_nine_of_ten_pairs_and_a_gain_beyond_the_parent_iqr():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    # 10/10 pairs won, median gain 20 against a parent IQR of 4.5
    assert _verdicts(parent, [p - 20 for p in parent]) == {
        "claim_met": True, "worse_than_bound": False, "unresolved": False}
    # 8/10 won: no claim, whatever the gain
    change = [p - 20 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert not _verdicts(parent, change)["claim_met"]
    # 10/10 won by 1: inside the parent IQR
    assert not _verdicts(parent, [p - 1 for p in parent])["claim_met"]
    # higher is better: the same gains, mirrored
    assert _verdicts(parent, [p + 20 for p in parent], better="higher")["claim_met"]


def test_worse_than_bound_and_unresolved():
    parent = [100] * 10
    assert _verdicts(parent, [126] * 10) == {
        "claim_met": False, "worse_than_bound": True, "unresolved": False}
    assert not _verdicts(parent, [124] * 10)["worse_than_bound"]
    assert _verdicts(parent, [74] * 10, better="higher")["worse_than_bound"]
    # a parent IQR of 40% of the median exceeds a 25% bound
    wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
    assert _verdicts(wide, wide)["unresolved"]
    assert not _verdicts(wide, wide, bound=0.5)["unresolved"]
