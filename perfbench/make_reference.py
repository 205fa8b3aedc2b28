#!/usr/bin/env python3
"""Regenerate reference.json, the expected report summaries the benchmark checks.

Usage (from the repository root):

    python3 perfbench/make_reference.py

Runs one pass of every workload for seeds 0..SEEDS-1 and keeps, per command key,
the compared fields of ``check.summarize``.  Keys are seed-independent, so
every seed must give the same summary; closed forms (``CLOSED_FORMS``) must
agree with it too.  Either disagreement aborts without writing the file.
Only regenerate when the program's answers are meant to change.
"""

import json
import os
import shutil
import signal
import sys

import check
import run

SEEDS = 10


def _a0(m):
    n = m * m - 1
    return n, n * n, {str(p): n ** p for p in range(4)}


_A0_N, _A0_R, _A0_D = _a0(2)
# Fields fixed by theory, checked against the program's output before writing.
CLOSED_FORMS = {
    "catalog a0(m=2) alpha=auto": {"catalog": {
        "n": _A0_N, "R": _A0_R, "D": {k: v for k, v in _A0_D.items() if k != "0"}}},
    "analyze a0(m=2) alpha=auto": {"R": _A0_R},
    "forms a0(m=2) alpha=auto": {"D": _A0_D},
    "catalog su2(m=3) alpha=embedded": {"catalog": {
        "n": 3, "R_used": 3, "D": {"1": 3, "2": 3, "3": 1, "4": 0}}},
    "analyze su2(m=3) alpha=embedded": {"R": 3},
    "forms su2(m=3) alpha=embedded": {"D": {"0": 1, "1": 3, "2": 3, "3": 1}},
    "analyze clock-shift(m=5) alpha=auto": {"R": 1},
    "forms clock-shift(m=5) alpha=auto": {"D": {"0": 1, "1": 2, "2": 1}},
    "analyze ellipsoid(m=4) alpha=embedded": {"R": 1},
    "forms ellipsoid(m=4) alpha=embedded": {"D": {"0": 1, "1": 3, "2": 1}},
}


def _agrees(expected, actual):
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            _agrees(v, actual.get(k)) for k, v in expected.items())
    return expected == actual


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    signal.signal(signal.SIGALRM, run._on_alarm)

    reference, errors = {}, []
    for workload in run.WORKLOADS:
        for seed in range(SEEDS):
            workdir = run.WORK_ROOT / f"reference-{workload}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                _, commands, cli = run.setup(workload, seed, workdir)
                for cmd in commands:
                    code, failure, _, stdout = run.run_command(cli, cmd)
                    if failure is not None:
                        errors.append(f"{cmd.key} seed {seed}: {failure}")
                        continue
                    summary = check.summarize(code, check.parse(stdout))
                    previous = reference.setdefault(cmd.key, summary)
                    if previous != summary:
                        errors.append(f"{cmd.key} seed {seed}: {summary} != {previous}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload} seed {seed}: {len(reference)} keys", flush=True)
    for key, expected in CLOSED_FORMS.items():
        if not _agrees(expected, reference.get(key)):
            errors.append(f"{key}: {reference.get(key)} disagrees with closed form {expected}")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                    for k, v in sorted(reference.items())) + "\n}\n")
    print(f"wrote {len(reference)} references to {check.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
