#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ncdiff CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 40 --trace 0

One process runs one workload.  It imports ``ncdiff`` from ``src/`` next to
this directory, writes the seeded inputs, then calls ``ncdiff.cli.main(argv)``
in-process in a closed loop with one client: passes over the workload's
command list repeat until ``--seconds`` is used up.  Every command runs under
a time budget (interval timer) and the process under an address-space budget,
and every report is checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics.  The last line of stdout
is the result JSON.  See README.md in this directory.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

WORKLOADS = ("verify-catalog", "forms-generic", "cli-small-batch")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = min(2, NPROC)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# Address-space cap on the workload process while commands run.  A dense
# n^p x n^p projector that does not fit raises MemoryError, which is recorded
# as an over-budget failure instead of exhausting the machine's memory.
MEMORY_BUDGET_BYTES = 3 << 30

# Functions whose calls and self time are reported, by layer (module).
REPORTED = {
    "cli": ("main", "cmd_analyze", "cmd_forms", "cmd_verify", "cmd_equiv", "cmd_catalog"),
    "formats": ("load_algebra", "save_algebra"),
    "algebra": ("validate_subspace", "dual_data"),
    "genalg": ("structure_constants", "detect_structure", "use_relations", "verify_ga"),
    "linalg": ("span_projector", "rank_nullspace"),
    "calculus": ("canonicalize", "build_tower", "epsilon_check", "wedge", "chi",
                 "exterior_d", "random_form", "check_structure_equations",
                 "coframe_from_formula"),
    "universal": ("verify_trace_lemma", "theta_u"),
    "maps": ("check_equivalence",),
    "catalog": ("build_entry",),
}
# Work counts recorded by the tracer, with their units.
WORK_COUNTS = {
    "calculus.canonicalize": (("identity_frac", "frac"), ("gflop_computed", "GFLOP")),
    "calculus.build_tower": (("proj_mb_computed", "MB"),),
    "calculus.epsilon_check": (("unknowns", "count"),),
    "linalg.rank_nullspace": (("elems", "count"),),
}
# Functions that must be called on a workload for its per-layer metrics to mean
# anything; the traced run reports the ones that were not.
EXPECTED_CALLS = {
    "verify-catalog": (
        "calculus.canonicalize", "calculus.build_tower", "linalg.span_projector",
        "calculus.wedge", "calculus.chi", "calculus.exterior_d", "calculus.random_form",
        "calculus.check_structure_equations", "calculus.coframe_from_formula"),
    "forms-generic": (
        "calculus.build_tower", "linalg.span_projector", "calculus.epsilon_check",
        "linalg.rank_nullspace"),
    "cli-small-batch": (
        "calculus.wedge", "calculus.chi", "calculus.exterior_d", "calculus.random_form",
        "calculus.check_structure_equations", "calculus.coframe_from_formula",
        "algebra.validate_subspace", "algebra.dual_data", "genalg.structure_constants",
        "genalg.detect_structure", "genalg.use_relations", "genalg.verify_ga",
        "formats.load_algebra", "formats.save_algebra", "maps.check_equivalence",
        "universal.verify_trace_lemma", "universal.theta_u", "cli.cmd_analyze",
        "cli.cmd_forms", "cli.cmd_verify", "cli.cmd_equiv", "cli.cmd_catalog"),
}


class BudgetExceeded(BaseException):
    """Raised by SIGALRM when a command outlives its time budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="LAUNCHED",
                    help="do the set-up, print the seconds elapsed since LAUNCHED "
                         "(a time.monotonic() reading taken before this process "
                         "was started) and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def setup(workload, seed, workdir):
    """Import ncdiff and write the workload's inputs.

    Returns (seconds spent importing ncdiff, commands, cli module).
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ncdiff
    import_s = time.perf_counter() - t0
    if Path(ncdiff.__file__).resolve().parent != SRC / "ncdiff":
        raise RuntimeError(f"imported ncdiff from {ncdiff.__file__}, not from {SRC}")
    from ncdiff import cli
    import workloads

    workdir.mkdir(parents=True)
    commands = workloads.build(workload, seed, str(workdir))
    return import_s, commands, cli


def warm_up(cli, workdir):
    """Run one small command of each compute path once, outside all timings."""
    warm = str(workdir / "warmup.json")
    for argv in (["catalog", "su2", "--m", "3", "--emit", warm, "--format", "json"],
                 ["verify", warm, "--alpha", "embedded", "--trials", "1", "--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up command failed: {argv}")


def time_setup(args):
    """Set-up times of SETUP_PROBES fresh processes that only do the set-up.

    Each probe measures from just before it was spawned to the end of its
    set-up (time.monotonic() is system-wide), so neither its exit nor the
    parent's wait is counted.  Returns (median, samples).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(argv + [repr(time.monotonic())], cwd=ROOT, check=True,
                               stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_command(cli, cmd):
    """Run one command in-process; returns (exit code or None, failure or None, seconds, stdout)."""
    out = io.StringIO()
    code, failure = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cmd.budget_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(cmd.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        failure = f"over time budget ({cmd.budget_s:g} s)"
    except MemoryError:
        failure = f"over memory budget ({MEMORY_BUDGET_BYTES >> 20} MiB address space)"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback from the CLI is a failed command
        failure = f"raised {type(exc).__name__}: {exc}"
    return code, failure, time.perf_counter() - t0, out.getvalue()


def run_pass(cli, commands):
    t0 = time.perf_counter()
    results = [run_command(cli, cmd) for cmd in commands]
    return time.perf_counter() - t0, results


class Outcome:
    """Correctness tally over every command attempted in the run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.residuals = []

    def add(self, commands, results):
        for cmd, (code, failure, _, stdout) in zip(commands, results):
            self.attempted += 1
            report = check.parse(stdout)
            if failure is None:
                diff = check.mismatch(check.summarize(code, report), self.reference.get(cmd.key))
                if diff is None:
                    failure = "no reference for this command"
                elif diff:
                    failure = "report differs from reference in " + ", ".join(diff)
            if failure is not None:
                self.failures.append(f"{cmd.key}: {failure}")
            self.residuals.extend(check.residuals(report))


def measure(cli, commands, seconds, tracer=None):
    """Closed-loop passes until ``seconds`` would be exceeded by one more pass.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced, traced, untraced, ... and at least one of each is made.
    Returns (untraced pass walls, untraced command latencies, traced pass
    walls, traced pass aggregates, outcome, spans of the last traced pass).
    """
    outcome = Outcome(check.load_reference())
    walls, latencies, traced_walls, aggregates, spans = [], [], [], [], []
    min_passes = 2 if tracer else 1
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, results = run_pass(cli, commands)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            aggregates.append(tracer.aggregate())
            spans = tracer.spans()
        else:
            wall, results = run_pass(cli, commands)
            walls.append(wall)
            latencies.extend(r[2] for r in results)
        outcome.add(commands, results)
        n += 1
        elapsed = time.perf_counter() - start
        if n >= min_passes and elapsed + statistics.median(walls + traced_walls) > seconds:
            break
    return walls, latencies, traced_walls, aggregates, outcome, spans


def env_info(args):
    import numpy
    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": BLAS_THREADS, "nproc": NPROC,
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def end_to_end_metrics(setup_s, walls, latencies, outcome):
    q = statistics.quantiles([x * 1e3 for x in latencies], n=10, method="inclusive")
    failed_frac = len(outcome.failures) / outcome.attempted
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_ms": (q[4], "ms"),
        "cmd_p90_ms": (q[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # 1 - failed_frac: the end-to-end metrics must never read 0
        "ok_frac": (1.0 - failed_frac, "frac"),
        "accuracy_digits": (check.accuracy_digits(outcome.residuals), "digits"),
    }, failed_frac


def per_layer_metrics(workload, import_s, walls, traced_walls, aggregates):
    def med(qualname, key):
        return statistics.median(a[qualname].get(key, 0) for a in aggregates)

    metrics = {}
    for layer, functions in REPORTED.items():
        for fn in functions:
            qualname = f"{layer}.{fn}"
            metrics[f"{qualname}.calls"] = (med(qualname, "calls"), "count")
            metrics[f"{qualname}.self_s"] = (med(qualname, "self_s"), "s")
            metrics[f"{qualname}.total_s"] = (med(qualname, "total_s"), "s")
            for key, unit in WORK_COUNTS.get(qualname, ()):
                if key == "identity_frac":
                    calls = med(qualname, "calls")
                    value = med(qualname, "identity") / calls if calls else 0.0
                else:
                    value = med(qualname, key)
                metrics[f"{qualname}.{key}"] = (value, unit)
    for layer in REPORTED:
        total = statistics.median(
            sum(v["self_s"] for k, v in a.items() if k.split(".")[0] == layer)
            for a in aggregates)
        metrics[f"{layer}.self_s"] = (total, "s")
    missing = [q for q in EXPECTED_CALLS[workload] if med(q, "calls") == 0]
    metrics["import.ncdiff_s"] = (import_s, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1.0, "frac")
    metrics["trace.expected_missing"] = (len(missing), "count")
    return metrics, missing


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ncdiff" / "__init__.py").is_file():
        print(f"error: ncdiff sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    workdir = WORK_ROOT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only is not None:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic() - args.setup_only)
            return 0
        setup_s, setup_samples = (None, []) if args.trace else time_setup(args)
        import_s, commands, cli = setup(args.workload, args.seed, workdir)
        warm_up(cli, workdir)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        signal.signal(signal.SIGALRM, _on_alarm)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = MEMORY_BUDGET_BYTES if hard == resource.RLIM_INFINITY else min(hard, MEMORY_BUDGET_BYTES)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            walls, latencies, traced_walls, aggregates, outcome, spans = measure(
                cli, commands, args.seconds, tracer)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = env_info(args)
    info.update(passes=len(walls) + len(traced_walls), commands_per_pass=len(commands),
                cmd_samples=len(latencies), pass_walls_s=[round(w, 4) for w in walls],
                setup_probes_s=[round(s, 4) for s in setup_samples])
    if args.trace:
        metrics, missing = per_layer_metrics(args.workload, import_s, walls,
                                             traced_walls, aggregates)
        info.update(traced_passes=len(traced_walls), spans_per_pass=len(spans),
                    expected_calls_missing=missing)
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": spans}, fh)
        info["spans_file"] = str(trace_path.relative_to(ROOT))
        ranked = sorted(((k, v) for k, v in metrics.items() if k.endswith(".self_s")
                         and k.count(".") == 2), key=lambda kv: -kv[1][0])
        print_table("self time per pass, largest first:", dict(ranked[:12]))
    else:
        metrics, failed_frac = end_to_end_metrics(setup_s, walls, latencies, outcome)
        shown = dict(metrics)
        shown["failed_frac"] = (failed_frac, "frac")
        print_table(f"end-to-end metrics, workload {args.workload}:", shown)
    info.update(attempted=outcome.attempted, failed=len(outcome.failures),
                failures=outcome.failures[:10])
    print(json.dumps({"bench_env": info}, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
