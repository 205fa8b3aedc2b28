"""scripts/compare_reports.py: the per-command diff of two revisions' results."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))  # compare_reports imports bench_pairs beside it
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPTS / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)

SECTIONS = [
    {"name": "ranks", "status": "pass", "D": {"0": 1, "1": 3, "2": 5}},
    {"name": "epsilon_degree_3", "status": "pass", "exists": True, "solution_dim": 4},
    {"name": "relations", "status": "pass", "R": 5, "alpha_columns": [[[0.5, 0.0]]]},
    {"name": "catalog", "status": "pass", "n": 3, "expected": {"R": 5, "D": {"2": 5}}},
    {"name": "trace_lemma", "status": "pass", "trace_identity": 1e-15, "bound": 3e-10},
]


def _result(edits=(), exit_code=0):
    """A result of the sections above, with section i's ``key`` set for each ((i, key), value)."""
    sections = json.loads(json.dumps(SECTIONS))
    for (i, key), value in dict(edits).items():
        sections[i][key] = value
    report = {"version": "0.1", "tolerance": 1e-9, "sections": sections}
    return {"exit": exit_code, "stdout": json.dumps(report, indent=2) + "\n"}


def _diff(change):
    return compare_reports.diff_results(_result(), change)


def test_identical_results():
    assert _diff(_result()) == {"identical": True, "differ": [], "largest": 0.0, "where": None}


def test_residual_change_is_measured_not_compared():
    diff = _diff(_result({(4, "trace_identity"): 1.5e-15}))
    assert not diff["identical"] and diff["differ"] == []
    assert abs(diff["largest"] - 5e-16) < 1e-30
    assert diff["where"] == "trace_lemma.trace_identity"
    # a number inside a nested list is found by its path
    diff = _diff(_result({(2, "alpha_columns"): [[[0.25, 0.0]]]}))
    assert diff["largest"] == 0.25 and diff["where"] == "relations.alpha_columns[0][0][0]"


def test_compared_fields_are_named():
    assert _diff(_result(exit_code=3))["differ"] == ["exit"]
    assert _diff(_result({(4, "status"): "fail"}))["differ"] == ["statuses"]
    assert _diff(_result({(2, "R"): 4}))["differ"] == ["R"]
    assert _diff(_result({(0, "D"): {"0": 1, "1": 3, "2": 6}}))["differ"] == ["D_p"]
    assert _diff(_result({(1, "solution_dim"): 3}))["differ"] == ["epsilon"]
    assert _diff(_result({(1, "exists"): False}))["differ"] == ["epsilon"]
    # the catalog's expected ranks are compared by the names of their keys
    assert _diff(_result({(3, "expected"): {"R": 4, "D": {"2": 5}}}))["differ"] == ["R"]
    assert _diff(_result({(3, "expected"): {"R": 5, "D": {"2": 4}}}))["differ"] == ["D_p"]
    # a field only one side reports is a difference, not a number change
    diff = _diff(_result({(4, "note"): "x"}))
    assert diff["differ"] == ["other: trace_lemma.note"] and diff["largest"] == 0.0


def test_output_that_is_not_json():
    error = {"exit": 4, "stdout": ""}
    assert compare_reports.diff_results(error, dict(error))["identical"]
    diff = compare_reports.diff_results(error, _result())
    assert diff["differ"] == ["exit", "output"]
