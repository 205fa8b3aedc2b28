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
    metrics = [{"name": "cmd_p90_ms", "unit": "ms", "better": "lower"},
               {"name": "ok_frac", "unit": "frac", "better": "higher"}]
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
