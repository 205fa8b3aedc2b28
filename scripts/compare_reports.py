#!/usr/bin/env python3
"""Compare the reports of two revisions on every command of the benchmark workloads.

Usage (from the repository root):

    python3 scripts/compare_reports.py --parent HEAD~1 --change HEAD --seed 1

Each revision is exported with ``bench_pairs.export`` into its own temporary
directory.  For each side one process, started in that export, imports its
``ncdiff`` and ``perfbench/workloads.py``, writes the inputs of every workload
of ``BENCHMARK.json`` for ``--seed`` and runs each command through
``ncdiff.cli.main``.  Both sides use the same work-directory path, so the
paths and digests in their reports agree.  For each command one line says
whether the two reports are byte-identical and, if not, which compared
fields differ (exit code, section statuses, ``R``, ``D_p``, the epsilon
fields ``exists`` and ``solution_dim``, any other non-numeric field) and the
largest change of any other number, such as a residual.  The exit status is
1 when a compared field differs on some command, else 0.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

# Run in an export: every command of the named workloads, as a JSON list on stdout.
CHILD = """
import contextlib, io, json, shutil, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
from ncdiff import cli
seed, workdir, names = int(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
results = []
for name in names:
    workdir.mkdir()
    for cmd in workloads.build(name, seed, str(workdir)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(cmd.argv))
        results.append({"workload": name, "key": cmd.key, "exit": code, "stdout": out.getvalue()})
    shutil.rmtree(workdir)
json.dump(results, sys.stdout)
"""

# Report fields compared exactly, under the name a difference is reported by; a
# catalog section's ``expected`` holds R, R_used and D too.
COMPARED = {"status": "statuses", "R": "R", "R_used": "R", "D": "D_p",
            "exists": "epsilon", "solution_dim": "epsilon"}


def run_side(tree, seed, workdir, names):
    """The results of every command of the workloads ``names``, run in the export ``tree``."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(seed), str(workdir), *names],
                          cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def _leaves(value, path, kind=None):
    """(path, comparison name, value) for every scalar in a nested JSON value.

    A scalar takes the comparison name of the outermost key above it that
    has one, and None when none has.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}", kind or COMPARED.get(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]", kind)
    else:
        yield path, kind, value


def _fields(stdout):
    """Every scalar of a JSON report by path, with its comparison name; None if not JSON."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    fields = {}
    for i, section in enumerate(report.pop("sections", [])):
        for path, kind, leaf in _leaves(section, str(section.get("name", i))):
            fields[path] = (kind, leaf)
    for path, kind, leaf in _leaves(report, "report"):
        fields[path] = (kind, leaf)
    return fields


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_results(parent, change):
    """How two results of one command differ.

    Returns ``identical`` (same exit code and byte-identical output), the
    sorted names of the compared fields that differ, and the largest change
    of any other number with its path (0.0 and None when none changed).
    """
    differ = set() if parent["exit"] == change["exit"] else {"exit"}
    largest, where = 0.0, None
    a, b = _fields(parent["stdout"]), _fields(change["stdout"])
    if a is None or b is None:
        if parent["stdout"] != change["stdout"]:
            differ.add("output")
    else:
        for path in a.keys() | b.keys():
            (kind, x), (_, y) = a.get(path, (None, None)), b.get(path, (None, None))
            if x == y:
                continue
            if kind is None and _is_number(x) and _is_number(y):
                if abs(x - y) > largest:
                    largest, where = abs(x - y), path
            else:
                differ.add(kind or f"other: {path}")
    identical = parent["exit"] == change["exit"] and parent["stdout"] == change["stdout"]
    return {"identical": identical, "differ": sorted(differ), "largest": largest, "where": where}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    ap.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--seed", type=int, required=True, help="the workloads' seed")
    args = ap.parse_args(argv)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        results = {}
        for side in ("parent", "change"):
            tree = Path(tmp) / side
            export(getattr(args, side), tree)
            results[side] = run_side(tree, args.seed, Path(tmp) / "work", names)

    same, failed, largest = 0, 0, (0.0, None)
    for parent, change in zip(results["parent"], results["change"]):
        diff = diff_results(parent, change)
        line = f"{parent['workload']}: {parent['key']}: "
        if diff["identical"]:
            same += 1
            line += "identical"
        else:
            line += "differs in " + (", ".join(diff["differ"]) or "no compared field")
            if diff["where"]:
                line += f"; largest change {diff['largest']:.3g} at {diff['where']}"
        failed += bool(diff["differ"])
        if diff["largest"] > largest[0]:
            largest = (diff["largest"], f"{parent['key']}: {diff['where']}")
        print(line)
    total = len(results["parent"])
    if len(results["change"]) != total:
        print(f"the sides ran {total} and {len(results['change'])} commands")
        failed += 1
    print(f"{total} commands at seed {args.seed}: {same} byte-identical, "
          f"{failed} with a compared field changed; largest other change "
          f"{largest[0]:.3g}" + (f" ({largest[1]})" if largest[1] else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
