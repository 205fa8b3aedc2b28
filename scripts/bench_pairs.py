#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, written to one BENCH_*.json record.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload verify-catalog --seeds 1401-1410 --seconds 40 --out BENCH_N.json

Each revision is exported with ``git archive`` into its own temporary
directory, so the runs read committed files only and the repository is left
as it was.  For every seed, one pair of ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` runs is made, one in each
export; even pairs run the parent first and odd pairs the change first.  The
last stdout line of each run is its result.  For every end-to-end metric of
``BENCHMARK.json`` the output holds each pair's values, the median and
quartiles of each side, and how many pairs the change won (strictly better
in the metric's direction).  Each metric also states three verdicts:
``claim_met`` (the change won at least 9 of 10 pairs and its median gain
exceeds the parent's interquartile range), ``worse_than_bound`` (the change's
median is worse than the parent's by more than the metric's relative
``BENCHMARK.json`` bound) and ``unresolved`` (the parent's interquartile range
exceeds that bound, relative to its median); the metrics claimed or failing
are printed to stderr.  Each revision is recorded by its commit id and
by the id of its ``src`` tree (``git rev-parse REV:src``).  The harness is
run as a program only: nothing under ``perfbench/`` is imported or written.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text):
    """'1401-1410' or '1,2,5' as a list of ints."""
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def rev_parse(name):
    return subprocess.run(["git", "rev-parse", "--verify", name], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the files of ``rev`` into ``dest``.

    Returns the full commit id and the id of its ``src`` tree, which names
    the code that was run whatever commit later carries the same files.
    """
    commit = rev_parse(f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    tar = dest.parent / f"{dest.name}.tar"
    tar.write_bytes(archive)
    with tarfile.open(tar) as fh:
        fh.extractall(dest)
    tar.unlink()
    return {"commit": commit, "src_tree": rev_parse(f"{commit}:src")}


def run_once(tree, workload, seed, seconds):
    """One run of the harness in ``tree``; returns its result JSON (the last stdout line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, and the change's wins, over ``pairs``."""
    summary = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        entry = {"unit": spec["unit"]}
        for side, values in sides.items():
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["change_wins"] = sum((c < p) if lower else (c > p)
                                   for p, c in zip(sides["parent"], sides["change"]))
        entry["pairs"] = len(pairs)
        gain = entry["parent_median"] - entry["change_median"]
        gain = gain if lower else -gain
        iqr = entry["parent_q3"] - entry["parent_q1"]
        entry["median_gain_exceeds_parent_iqr"] = bool(gain > iqr)
        entry["claim_met"] = bool(10 * entry["change_wins"] >= 9 * len(pairs) and gain > iqr)
        scale = abs(entry["parent_median"])
        entry["worse_than_bound"] = bool(-gain > spec["bound"] * scale)
        entry["unresolved"] = bool(iqr > spec["bound"] * scale)
        summary[name] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    ap.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; may be given more than once")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed: 'A-B' or 'A,B,...'")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_*.json file to write")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['cmd_p90_ms']['value']:.1f} ms p90"
                    for side in order), file=sys.stderr)
            summary = summarize(pairs, metrics)
            for name, entry in summary.items():
                if entry["claim_met"] or entry["worse_than_bound"]:
                    verdicts = [v for v in ("claim_met", "worse_than_bound", "unresolved")
                                if entry[v]]
                    print(f"{workload} {name}: " + ", ".join(verdicts), file=sys.stderr)
            workloads[workload] = {
                "summary": summary,
                "correct": all(p[side]["correct"] for p in pairs for side in trees),
                "pairs": pairs,
            }

    import numpy
    out = {
        "revisions": commits,
        "environment": {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "numpy": numpy.__version__, "machine": platform.machine()},
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0 in a git-archive export of each revision, one pair per seed, "
                   "alternating which side runs first (even pairs: parent first)"),
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
