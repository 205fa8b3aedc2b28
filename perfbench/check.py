"""Correctness gate: reduce a command's report to the fields that must not
change, compare them with ``reference.json``, and collect residuals.

The compared fields are the exit code, every section's (name, status), the
relation rank ``R``, every ``D_p``, each epsilon ``solution_dim`` and
``exists``, and a catalog entry's ``n`` and expected ``R``/``R_used``/``D``.
"""

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Section fields that are residuals of an identity (smaller is better).
RESIDUAL_KEYS = frozenset({
    "residual", "beta_alpha_identity", "P_idempotent", "relation_residual",
    "dtheta_plus_theta_sq", "dtheta_a", "relation_form",
    "trace_identity", "tensor_commutator",
})

RESIDUAL_FLOOR = 1e-16


def parse(stdout):
    """A command's JSON report, or None if its output is not JSON."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def summarize(exit_code, report):
    """The compared fields of one command's result, as a JSON-able dict."""
    summary = {"exit": exit_code}
    if report is None:
        return summary
    sections = report.get("sections", [])
    summary["sections"] = [[s.get("name"), s.get("status")] for s in sections]
    for s in sections:
        if "R" in s:
            summary["R"] = s["R"]
        if "D" in s:
            summary["D"] = s["D"]
        if "solution_dim" in s:
            summary.setdefault("epsilon", {})[s["name"]] = [s.get("exists"), s["solution_dim"]]
        if s.get("name") == "catalog":
            expected = s.get("expected", {})
            summary["catalog"] = {"n": s.get("n"), **{
                k: expected[k] for k in ("R", "R_used", "D") if k in expected}}
    return summary


def residuals(report):
    """Every residual value in a JSON report (empty if it has none)."""
    if report is None:
        return []
    return [float(v) for s in report.get("sections", [])
            for k, v in s.items() if k in RESIDUAL_KEYS]


def accuracy_digits(values):
    """min over residuals of -log10(max(r, 1e-16)).

    With no residuals this is the cap, 16; a non-finite residual gives 0.
    """
    if not all(math.isfinite(v) for v in values):
        return 0.0
    worst = max(values, default=0.0)
    return -math.log10(max(worst, RESIDUAL_FLOOR))


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(summary, expected):
    """Names of the compared fields that differ; ``None`` if the key has no reference."""
    if expected is None:
        return None
    keys = set(summary) | set(expected)
    return sorted(k for k in keys if summary.get(k) != expected.get(k))
