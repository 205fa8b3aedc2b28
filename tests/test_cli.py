import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (WORKLOAD_CATALOG, generator_engine_residuals, generic_subspace,
                      random_identity_residuals)

from ncdiff import calculus, cli, formats, genalg, maps, universal
from ncdiff.algebra import matrix_basis_duals
from ncdiff.catalog import build_entry, clock_shift, gell_mann_basis, su2, universal_A0
from ncdiff.errors import DegreeError
from ncdiff.linalg import DEFAULT_TOL, _at_slot, _pair_products


@pytest.fixture
def clock_file(tmp_path):
    e = clock_shift(3)
    path = tmp_path / "clock3.json"
    formats.save_algebra(path, 3, e.subspace.label, e.subspace.lambdas,
                         alpha=e.suggested_alpha)
    return str(path)


@pytest.fixture
def pauli_file(tmp_path):
    e = universal_A0(2)
    path = tmp_path / "pauli.json"
    formats.save_algebra(path, 2, e.subspace.label, e.subspace.lambdas)
    return str(path)


def _run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_algebra_json_roundtrip(tmp_path):
    e = clock_shift(4)
    path = tmp_path / "c.json"
    formats.save_algebra(path, 4, "c4", e.subspace.lambdas)
    m, label, basis, alpha = formats.load_algebra(path)
    assert m == 4 and label == "c4" and alpha is None
    assert np.allclose(basis, e.subspace.lambdas)


def test_analyze_clock(capsys, clock_file):
    code, rep = _run_json(capsys, ["analyze", clock_file])
    assert code == 0
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["relations"]["R"] == 1
    assert sec["dimension_inequality"]["span_dim"] == 6


def test_analyze_pauli(capsys, pauli_file):
    code, rep = _run_json(capsys, ["analyze", pauli_file])
    assert code == 0
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["relations"]["R"] == 9


@pytest.mark.parametrize("mode, R", [("embedded", 3), ("auto", 4)])
def test_analyze_omits_alpha_above_the_cap(monkeypatch, capsys, tmp_path, mode, R):
    """analyze prints alpha's n^2 R entries up to ``ALPHA_ENTRIES_SHOWN``; one above it, the
    relations section gives their count and k in their place, and nothing else changes."""
    path = _su2_file(tmp_path, 3)
    argv = ["analyze", path, "--alpha", mode]
    entries = 9 * R
    reports = {}
    for cap in (entries, entries - 1):
        monkeypatch.setattr(cli, "ALPHA_ENTRIES_SHOWN", cap)
        code, reports[cap] = _run_json(capsys, argv)
        assert code == cli.EXIT_OK
    shown, omitted = (reports[c]["sections"][2] for c in (entries, entries - 1))
    assert np.array(shown.pop("alpha_columns")).shape == (R, 9, 2)
    assert omitted.pop("alpha_columns_omitted") == entries and omitted.pop("k") == 9 - R
    assert shown == omitted and shown["R"] == R
    assert reports[entries]["sections"][3:] == reports[entries - 1]["sections"][3:]


def _in_process_peak(capsys, argv):
    """Exit code, JSON report and peak traced bytes of one in-process CLI command."""
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, json.loads(capsys.readouterr().out), peak


@pytest.mark.large
def test_analyze_a0_m8_in_process(monkeypatch, capsys, tmp_path):
    """analyze on a0(8), n = 63, exits 0 under 64 MiB traced: its 3969^2 alpha entries are
    counted, not formed (the full report ran out of memory under a 3 GiB cap)."""
    e = universal_A0(8)
    path = str(tmp_path / "a0.json")
    formats.save_algebra(path, 8, e.subspace.label, e.subspace.lambdas)
    structures = []
    verify_ga = genalg.verify_ga
    monkeypatch.setattr(cli.genalg, "verify_ga",
                        lambda G, tol: structures.append(G) or verify_ga(G, tol=tol))
    code, rep, peak = _in_process_peak(capsys, ["analyze", path])
    assert code == cli.EXIT_OK, rep
    assert peak < 64 * 2 ** 20, peak / 2 ** 20
    sec = {s["name"]: s for s in rep["sections"]}["relations"]
    assert sec["R"] == 63 ** 2 and sec["k"] == 0 and "alpha_columns" not in sec
    assert sec["alpha_columns_omitted"] == 63 ** 4 > cli.ALPHA_ENTRIES_SHOWN
    assert "alpha" not in structures[0].__dict__


@pytest.mark.large
@pytest.mark.parametrize("command", ["verify", "forms", "analyze", "equiv"])
def test_a0_m7_command_in_process(capsys, tmp_path, command):
    """Each command on a0(7), n = 48, exits 0 under 32 MiB traced, below one float64 array of
    n^4 entries (40.5 MiB): no whole path forms one.  equiv reads delta and pi_2(F' - F),
    with no (n, n, n, m, m) table (262 MiB when it stacked exterior_d on the generators)."""
    e = universal_A0(7)
    path, upath = str(tmp_path / "a0.json"), tmp_path / "u.json"
    formats.save_algebra(path, 7, e.subspace.label, e.subspace.lambdas)
    argv = [command, path]
    if command == "equiv":
        with open(upath, "w") as fh:
            json.dump(formats.matrix_to_json(
                np.random.default_rng(0).standard_normal((7, 7)) + 2 * np.eye(7)), fh)
        argv.append(str(upath))
    code, rep, peak = _in_process_peak(capsys, argv)
    assert code == cli.EXIT_OK, rep
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


def test_analyze_and_verify_judge_relation_residual_alike(tmp_path, capsys):
    """|pi_2 rho| is quadratic in lambda, so both commands judge it against tol |lambda|^2.

    On su2(4) scaled by kappa = 1e4 with detected relations the residual,
    rounding in a rho of size 1e8, is about 3e-7: above the bare tol, below
    the scaled bound 1.5.
    """
    e = su2(4, kappa=1e4)
    path = tmp_path / "su2-kappa.json"
    formats.save_algebra(path, 4, e.subspace.label, e.subspace.lambdas)
    code, rep = _run_json(capsys, ["analyze", str(path)])
    sec = {s["name"]: s for s in rep["sections"]}["relation_residual"]
    assert code == 0 and sec["status"] == "pass"
    assert DEFAULT_TOL < sec["residual"] < sec["bound"]
    _, rep = _run_json(capsys, ["verify", str(path)])
    ga = {s["name"]: s for s in rep["sections"]}["generalised_algebra"]
    assert ga["status"] == "pass"
    assert (ga["relation_residual"], ga["relation_bound"]) == (sec["residual"], sec["bound"])


def _relations_report(capsys, path, alpha=None):
    """Exit codes, statuses, R, the projector alpha alpha^dag and relation_residual of
    analyze and verify on ``path``, with its own alpha or, if given, ``alpha``."""
    argv = [path] + (["--alpha", "embedded"] if alpha is not None else [])
    out = {}
    for command in ("analyze", "verify"):
        code, rep = _run_json(capsys, [command] + argv)
        sec = {s["name"]: s for s in rep["sections"]}
        out[command] = (code, [(s["name"], s["status"]) for s in rep["sections"]])
        if command == "analyze":
            cols = np.array(sec["relations"]["alpha_columns"])
            a = (cols[..., 0] + 1j * cols[..., 1]).T
            out["R"], out["P"] = sec["relations"]["R"], a @ a.conj().T
            out["analyze_residual"] = sec["relation_residual"]["residual"]
        else:
            out["verify_residual"] = sec["generalised_algebra"]["relation_residual"]
    return out


@pytest.mark.parametrize("name, m", [("su2", 3), ("ellipsoid", 4)])
def test_relations_report_depends_only_on_their_span(capsys, tmp_path, name, m):
    """analyze and verify report the same on an embedded alpha and on alpha A, A invertible.

    A is a seeded unitary with one column scaled by 1e3 (cond A = 1e3).  Exit
    codes, statuses, R and alpha alpha^dag (from alpha_columns, an orthonormal
    basis of the span) agree, and relation_residual = |pi_2 rho| agrees to
    1e-14 |lambda|^2: max_r |alpha_r^T rho| would grow with the scaled column.
    """
    e = build_entry(name, m)
    alpha = e.suggested_alpha
    rng = np.random.default_rng(7)
    R = alpha.shape[1]
    A = np.linalg.qr(rng.standard_normal((R, R)) + 1j * rng.standard_normal((R, R)))[0]
    A[:, 0] *= 1e3
    assert np.linalg.cond(A) <= 1e3 * (1 + 1e-12)
    reports = []
    for a in (alpha, alpha @ A):
        path = str(tmp_path / f"{name}-{len(reports)}.json")
        formats.save_algebra(path, m, e.subspace.label, e.subspace.lambdas, alpha=a)
        reports.append(_relations_report(capsys, path, alpha=a))
    first, second = reports
    assert first["analyze"] == second["analyze"] and first["verify"] == second["verify"]
    assert first["analyze"][0] == first["verify"][0] == cli.EXIT_OK
    assert first["R"] == second["R"] == R
    assert np.max(np.abs(first["P"] - second["P"])) < 1e-10
    lam2 = np.linalg.norm(e.subspace.lambdas) ** 2
    for key in ("analyze_residual", "verify_residual"):
        assert abs(first[key] - second[key]) < 1e-14 * lam2


@pytest.mark.parametrize("name, m", WORKLOAD_CATALOG)
def test_verify_relation_residual_is_the_towers_relation_form(capsys, tmp_path, name, m):
    """generalised_algebra.relation_residual, |alpha^T rho|, is the relation form |pi_2 rho| that
    the tower's projection gives: they agree to 1e-15 |lambda|^2 in both alpha modes, and its
    bound is structure_equations' bound, tol |lambda|^2."""
    e = build_entry(name, m)
    path = str(tmp_path / f"{name}.json")
    formats.save_algebra(path, m, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    lam2 = np.linalg.norm(e.subspace.lambdas) ** 2
    for mode in ("auto", "embedded") if e.suggested_alpha is not None else ("auto",):
        code, rep = _run_json(capsys, ["verify", path, "--alpha", mode])
        assert code == cli.EXIT_OK
        sec = {s["name"]: s for s in rep["sections"]}
        ga, se = sec["generalised_algebra"], sec["structure_equations"]
        G = (genalg.use_relations(e.subspace, e.suggested_alpha) if mode == "embedded"
             else genalg.detect_structure(e.subspace))
        tower = calculus.build_tower(G, 2)
        form = calculus.form_norm(calculus.Form(tower, 2, calculus.canonicalize(tower, 2, G.rho)))
        assert abs(ga["relation_residual"] - form) <= 1e-15 * lam2, mode
        assert ga["relation_bound"] == se["bound"]


def test_analyze_traceless_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    basis = np.array([np.eye(2, dtype=complex)])
    formats.save_algebra(path, 2, "bad", basis)
    assert cli.main(["analyze", str(path)]) == cli.EXIT_VALIDATION


def test_missing_file_exit():
    assert cli.main(["analyze", "/nonexistent/x.json"]) == cli.EXIT_IO


def test_forms_ranks(capsys, clock_file):
    code, rep = _run_json(capsys, ["forms", clock_file, "--max-degree", "2",
                                   "--alpha", "embedded"])
    assert code == 0
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["ranks"]["D"] == {"0": 1, "1": 2, "2": 1}


def test_forms_r_zero(tmp_path, capsys):
    # A basis whose squares leave B + C.1: lam = E12 + E23, lam^2 = E13.
    lam = np.zeros((3, 3), dtype=complex)
    lam[0, 1] = lam[1, 2] = 1.0
    path = tmp_path / "nil.json"
    formats.save_algebra(path, 3, "nil", np.array([lam]))
    code, rep = _run_json(capsys, ["forms", str(path)])
    assert code == 0
    assert rep["sections"][0]["name"] == "omega2_trivial"


def test_forms_memory(tmp_path, capsys):
    """forms on generic (m, n) = (3, 4) to degree 6 keeps only the D-sized factors N_p."""
    rng = np.random.default_rng(0)
    lam = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    lam -= np.trace(lam, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
    path = tmp_path / "generic.json"
    formats.save_algebra(path, 3, "generic", lam)
    tracemalloc.start()
    try:
        code, rep = _run_json(capsys, ["forms", str(path), "--max-degree", "6"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # n = 2(m-1): D_p = (p+1)(n/2)^p
    D = {p: (p + 1) * 2 ** p for p in range(7)}
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["ranks"]["D"] == {str(p): d for p, d in D.items()}
    assert all(sec[f"epsilon_degree_{p}"]["solution_dim"] == D[p] for p in range(3, 7))
    assert peak < 200e6


# One CLI command in a fresh interpreter under a 3 GiB address-space cap, so an
# n^p-row intermediate that does not fit fails the run instead of the machine.
_CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from ncdiff import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _su3_commutator_file(path):
    """a0(3), the traceless M_3, with the 28 commutator relations e_ab - e_ba."""
    e = universal_A0(3)
    n = e.subspace.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    alpha = np.zeros((n * n, len(pairs)), dtype=complex)
    for r, (a, b) in enumerate(pairs):
        alpha[a * n + b, r], alpha[b * n + a, r] = 1, -1
    formats.save_algebra(path, 3, "su3-commutator", e.subspace.lambdas, alpha=alpha)
    return ["--alpha", "embedded"]


def _generic_file(m, n):
    def write(path):
        formats.save_algebra(path, m, f"generic-{m}-{n}", generic_subspace(m, n, 0).lambdas)
        return []
    return write


@pytest.mark.large
@pytest.mark.parametrize("write, top, D", [
    # Omega is the exterior algebra on 8 generators
    pytest.param(_su3_commutator_file, 8, [math.comb(8, p) for p in range(9)],
                 id="su3-commutator-p8"),
    # certified full-rank K_p: a QR below the top, a Cholesky alone at it
    pytest.param(_generic_file(3, 4), 6, [1, 4, 12, 32, 80, 192, 448], id="generic-m3-n4-p6"),
    pytest.param(_generic_file(4, 6), 5, [1, 6, 27, 108, 405, 1458], id="generic-m4-n6-p5"),
    pytest.param(_generic_file(5, 8), 4, [1, 8, 48, 256, 1280], id="generic-m5-n8-p4"),
])
def test_forms_large_regime_in_a_capped_process(tmp_path, write, top, D):
    """forms to a high degree in a fresh process under a 3 GiB cap exits 0 with every D_p."""
    path = tmp_path / "algebra.json"
    extra = write(path)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["forms", str(path), *extra, "--max-degree", str(top), "--format", "json"]
    run = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    ranks = json.loads(run.stdout)["sections"][0]["D"]
    assert ranks == {str(p): d for p, d in enumerate(D)}


@pytest.mark.large
def test_verify_large_projection_in_a_capped_process(tmp_path):
    """verify on generic (4, 6) at --max-degree 4 passes, capped.

    It builds the tower to degree 3 only; the identity checks project onto
    W_3 (216 x 108) at most.
    """
    path = tmp_path / "algebra.json"
    _generic_file(4, 6)(path)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["verify", str(path), "--max-degree", "4", "--trials", "5", "--format", "json"]
    run = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    sec = {s["name"]: s for s in json.loads(run.stdout)["sections"]}
    assert all(s["status"] == "pass" for s in sec.values())


@pytest.mark.large
def test_verify_su3_commutator_degree8_in_a_capped_process(tmp_path):
    """verify on su(3) with commutator relations at --max-degree 8: exact sections, capped, exit 0."""
    path = tmp_path / "algebra.json"
    extra = _su3_commutator_file(path)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["verify", str(path), *extra, "--max-degree", "8", "--format", "json"]
    run = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    sec = {s["name"]: s for s in json.loads(run.stdout)["sections"]}
    assert all(s["status"] == "pass" for s in sec.values())
    for name in ("d_squared_zero", "graded_leibniz"):
        assert sec[name]["method"] == "exact on generators"


@pytest.mark.large
def test_equiv_a0_m10_in_a_capped_process(tmp_path):
    """equiv on a0(10), n = 99, passes all four sections, capped (it ran out of memory
    allocating a (99, 990, 990) table when d_commutation stacked exterior_d)."""
    e = universal_A0(10)
    path, upath = tmp_path / "a0.json", tmp_path / "u.json"
    formats.save_algebra(path, 10, e.subspace.label, e.subspace.lambdas)
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(
            np.random.default_rng(0).standard_normal((10, 10)) + 2 * np.eye(10)), fh)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["equiv", str(path), str(upath), "--format", "json"]
    run = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    sec = {s["name"]: s["status"] for s in json.loads(run.stdout)["sections"]}
    assert sec == dict.fromkeys(("coframe", "theta", "products", "d_commutation"), "pass")


@pytest.mark.parametrize("command", ["forms", "verify"])
def test_memory_error_exit_2(monkeypatch, capsys, clock_file, command):
    def build_tower(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.00 GiB")
    monkeypatch.setattr(calculus, "build_tower", build_tower)
    assert cli.main([command, clock_file, "--max-degree", "3"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1
    hint = cli.MEMORY_HINTS[command]
    assert lines[0] == f"error: MemoryError: Unable to allocate 3.00 GiB; {hint}"


@pytest.mark.parametrize("command, hint", [
    ("forms", "try a lower --max-degree"),
    # verify's tower stops at degree 3 whatever --max-degree says, so that flag is no remedy
    ("verify", "whatever --max-degree says; try a smaller algebra"),
])
def test_memory_error_hint_names_the_commands_limit(monkeypatch, capsys, clock_file, command, hint):
    """A MemoryError raised anywhere in a command is answered with that command's own remedy."""
    def out_of_memory(args):
        raise MemoryError()
    monkeypatch.setattr(cli, f"cmd_{command}", out_of_memory)
    assert cli.main([command, clock_file]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: MemoryError: out of memory; ") and err.endswith(hint)
    if command == "verify":
        assert "try a lower --max-degree" not in err


def test_verify_pass_and_determinism(capsys, clock_file):
    argv = ["verify", clock_file, "--trials", "3"]
    code, rep1 = _run_json(capsys, argv)
    assert code == 0
    assert all(s["status"] == "pass" for s in rep1["sections"])
    _, rep2 = _run_json(capsys, argv)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_verify_corrupted_alpha(tmp_path, capsys):
    e = clock_shift(3)
    bad = e.suggested_alpha.copy()
    bad[0, 0] = 1.0  # no longer a kernel column
    path = tmp_path / "corrupt.json"
    formats.save_algebra(path, 3, "corrupt", e.subspace.lambdas, alpha=bad)
    code = cli.main(["verify", str(path), "--alpha", "embedded"])
    assert code == cli.EXIT_VALIDATION


def test_equiv(tmp_path, capsys, clock_file):
    rng = np.random.default_rng(9)
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    upath = tmp_path / "u.json"
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(u), fh)
    code, rep = _run_json(capsys, ["equiv", clock_file, str(upath),
                                   "--trials", "3"])
    assert code == 0
    assert all(s["status"] == "pass" for s in rep["sections"])


JUDGED = {
    "verify": ("d_squared_zero", "graded_leibniz", "trace_lemma", "universal_identity"),
    "equiv": ("coframe", "theta", "products", "d_commutation"),
}


def _judged_sections(rep, command):
    """Each section judged against a literal: (status, largest residual, bound)."""
    sec = {s["name"]: s for s in rep["sections"]}
    out = []
    for name in JUDGED[command]:
        residuals = [v for k, v in sec[name].items()
                     if k not in ("name", "status", "bound", "method")]
        out.append((sec[name]["status"], max(residuals), sec[name]["bound"]))
    return out


@pytest.mark.parametrize("break_theta_u", [False, True])
def test_sections_report_bound(monkeypatch, capsys, tmp_path, clock_file, break_theta_u):
    """With theta_u off by 1e-3 the two universal-calculus sections fail, and nothing else."""
    if break_theta_u:
        theta_u = universal.theta_u
        monkeypatch.setattr(universal, "theta_u", lambda g, d: theta_u(g, d) * (1 + 1e-3))
    upath = tmp_path / "u.json"
    u = np.random.default_rng(9).standard_normal((3, 3))
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(u), fh)
    judged = []
    for argv in (["verify", clock_file], ["equiv", clock_file, str(upath)]):
        code, rep = _run_json(capsys, argv + ["--trials", "3"])
        judged += _judged_sections(rep, argv[0])
        assert code == (cli.EXIT_VERIFY if break_theta_u and argv[0] == "verify"
                        else cli.EXIT_OK)
    for status, residual, bound in judged:
        assert status == ("pass" if residual < bound else "fail")
    assert [b for *_, b in judged] == [1e-8, 1e-8, 3e-10, 1e-10] + [1e-8] * 4
    assert [s for s, *_ in judged] == ["pass"] * 2 + [
        "fail" if break_theta_u else "pass"] * 2 + ["pass"] * 4


def test_equiv_singular(tmp_path, clock_file):
    upath = tmp_path / "u0.json"
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(np.zeros((3, 3))), fh)
    assert cli.main(["equiv", clock_file, str(upath)]) == cli.EXIT_VALIDATION


def test_equiv_refuses_ill_conditioned_conjugate(tmp_path, capsys):
    """equiv builds the conjugated structure at tol max(tol, 1e-7).

    On su2(3) with u = diag(1, 1, 1e4) the conjugated basis has Gram condition
    1e8: validation at 1e-9 admits it, and the structure, judging the stored
    condition number at its own tol, refuses it.
    """
    e = su2(3)
    path, upath = tmp_path / "su2.json", tmp_path / "u.json"
    formats.save_algebra(path, 3, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(np.diag([1.0, 1.0, 1e4])), fh)
    code = cli.main(["equiv", str(path), str(upath), "--alpha", "embedded"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ConditioningError" in err and "1.000e+08 exceeds 1/tol" in err


# np.linalg.cond and np.linalg.inv calls per command: each matrix basis (B; for
# verify also the gamma basis; for equiv also B's conjugate, whose third inv is
# u^-1) is conditioned and inverted once
LINALG_CALLS = {
    "catalog": {"cond": 1, "inv": 1},
    "analyze": {"cond": 1, "inv": 1},
    "forms": {"cond": 1, "inv": 1},
    "verify": {"cond": 2, "inv": 2},
    "equiv": {"cond": 2, "inv": 3},
}


def test_each_basis_conditioned_and_inverted_once(monkeypatch, tmp_path, capsys):
    """cond and inv calls through cli.main, on the input kinds of the cli-small-batch
    workload: a catalog algebra with its embedded alpha, and a generic subspace."""
    path, gen, upath = (str(tmp_path / f) for f in ("su2.json", "gen.json", "u.json"))
    formats.save_algebra(gen, 3, "generic", generic_subspace(3, 4, 5).lambdas)
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(q @ np.diag([1.0, 1.5, 2.0])), fh)
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("cond", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    runs = [["catalog", "su2", "--m", "3", "--emit", path]]
    for inp, flags in ((path, ["--alpha", "embedded"]), (gen, [])):
        runs += [["analyze", inp, *flags], ["forms", inp, "--max-degree", "3", *flags],
                 ["verify", inp, "--trials", "5", *flags],
                 ["equiv", inp, upath, "--trials", "5", *flags]]
    for argv in runs:
        counts.update(cond=0, inv=0)
        assert cli.main(argv + ["--format", "json"]) == cli.EXIT_OK, argv
        capsys.readouterr()
        assert counts == LINALG_CALLS[argv[0]], (argv, counts)


def test_catalog_emit(tmp_path, capsys):
    out = tmp_path / "su2.json"
    code, rep = _run_json(capsys, ["catalog", "su2", "--m", "2",
                                   "--emit", str(out)])
    assert code == 0
    m, _, basis, alpha = formats.load_algebra(out)
    assert m == 2 and len(basis) == 3 and alpha is not None


def test_text_format_lines(capsys, clock_file):
    code = cli.main(["analyze", clock_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert "input sha256" in out


def test_ncg_tol_env(monkeypatch):
    monkeypatch.setenv("NCG_TOL", "1e-6")
    args = cli.build_parser().parse_args(["analyze", "x.json"])
    assert args.tol == 1e-6


@pytest.fixture
def bad_inputs(tmp_path, clock_file, pauli_file):
    """Input paths by the placeholder that names them in an argv row."""
    e = clock_shift(3)
    nan_basis = e.subspace.lambdas.copy()
    nan_basis[0, 0, 1] = np.nan
    nan_alpha = e.suggested_alpha.copy()
    nan_alpha[0, 0] = np.nan
    nan_u = np.eye(3)
    nan_u[0, 0] = np.nan
    paths = {"FILE": clock_file, "PAULI": pauli_file}
    for key, alpha, basis in (("NAN_BASIS", None, nan_basis),
                              ("SHORT_ALPHA", e.suggested_alpha[:-1], e.subspace.lambdas),
                              ("NAN_ALPHA", nan_alpha, e.subspace.lambdas)):
        paths[key] = str(tmp_path / f"{key}.json")
        formats.save_algebra(paths[key], 3, key, basis, alpha=alpha)
    paths["ZERO_BASIS"] = str(tmp_path / "ZERO_BASIS.json")
    formats.save_algebra(paths["ZERO_BASIS"], 2, "ZERO_BASIS",
                         [np.zeros((2, 2)), np.diag([1.0, -1.0])])
    for key, u in (("WIDE_U", np.eye(3, 4)), ("SMALL_U", np.eye(2)), ("NAN_U", nan_u),
                   ("NEAR_SINGULAR_U", np.diag([1.0, 1.0, 1e-4]))):
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(formats.matrix_to_json(u), fh)
    return paths


@pytest.mark.parametrize("argv, ncg_tol, message", [
    (["forms", "FILE", "--max-degree", "0"], None, None),
    (["verify", "FILE", "--max-degree", "1"], None, None),
    (["verify", "FILE", "--trials", "0"], None, None),
    (["equiv", "FILE", "FILE", "--trials", "0"], None, None),
    (["catalog", "su2", "--m", "1"], None, None),
    (["catalog", "ellipsoid", "--m", "2"], None, None),
    (["analyze", "NAN_BASIS"], None, None),
    (["forms", "SHORT_ALPHA", "--alpha", "embedded"], None, None),
    (["forms", "NAN_ALPHA", "--alpha", "embedded"], None, None),
    (["equiv", "FILE", "WIDE_U"], None, None),
    (["equiv", "FILE", "SMALL_U"], None, None),
    (["equiv", "FILE", "NAN_U"], None, None),
    (["analyze", "PAULI", "--tol", "0"], None, None),
    (["analyze", "FILE"], "abc", None),
    (["verify", "FILE", "--seed", "-1"], None, None),
    (["equiv", "FILE", "FILE", "--seed", "-5"], None, None),
    (["analyze", "ZERO_BASIS"], None, "DependentBasis: basis element 0 is zero"),
], ids=["forms-max-degree-0", "verify-max-degree-1", "verify-trials-0", "equiv-trials-0",
        "catalog-su2-m1", "catalog-ellipsoid-m2", "nan-basis-entry", "alpha-row-count",
        "nan-alpha-entry", "equiv-non-square-u", "equiv-u-wrong-size", "equiv-nan-u", "tol-0",
        "ncg-tol-not-a-number", "verify-negative-seed", "equiv-negative-seed",
        "zero-basis-element"])
def test_bad_arguments_exit_2(monkeypatch, capsys, bad_inputs, argv, ncg_tol, message):
    if ncg_tol is not None:
        monkeypatch.setenv("NCG_TOL", ncg_tol)
    try:
        code = cli.main([bad_inputs.get(a, a) for a in argv])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert message is None or message in err


@pytest.fixture
def malformed_inputs(tmp_path, clock_file):
    """Valid JSON that is not an algebra or a matrix, by the placeholder that names it."""
    edits = {
        "RE_IM_SHAPES": lambda d: d["basis"][0]["im"].pop(),
        "RAGGED_RE": lambda d: d["basis"][0]["re"][0].pop(),
        "M_TEXT": lambda d: d.update(m="two"),
        "M_FLOAT": lambda d: d.update(m=3.0),
        "ALPHA_PARTS": lambda d: d["alpha"][0]["im"].pop(),
    }
    paths = {"FILE": clock_file, "NO_DIR": str(tmp_path / "missing" / "x.json")}
    for key, edit in edits.items():
        with open(clock_file) as fh:
            data = json.load(fh)
        edit(data)
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(data, fh)
    paths["U_PARTS"] = str(tmp_path / "U_PARTS.json")
    with open(paths["U_PARTS"], "w") as fh:
        json.dump({"re": np.eye(3).tolist(), "im": np.zeros((2, 3)).tolist()}, fh)
    return paths


@pytest.mark.parametrize("argv", [
    ["analyze", "RE_IM_SHAPES"],
    ["analyze", "RAGGED_RE"],
    ["analyze", "M_TEXT"],
    ["analyze", "M_FLOAT"],
    ["analyze", "ALPHA_PARTS"],
    ["equiv", "FILE", "U_PARTS"],
    ["catalog", "su2", "--m", "3", "--emit", "NO_DIR"],
], ids=["re-im-shapes", "ragged-re-rows", "m-text", "m-float", "alpha-parts",
        "equiv-u-parts", "emit-missing-dir"])
def test_malformed_input_exit_4(capsys, malformed_inputs, argv):
    assert cli.main([malformed_inputs.get(a, a) for a in argv]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_equiv_singular_at_tol(capsys, bad_inputs):
    """--tol reaches the singularity check of the conjugating matrix."""
    argv = ["equiv", bad_inputs["FILE"], bad_inputs["NEAR_SINGULAR_U"], "--tol", "1e-3"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "SingularTransform" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["ncdiff", "ncdiff.cli"])
def test_python_dash_m_runs_cli(tmp_path, clock_file, module):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    ok = run("catalog", "su2", "--m", "2", "--format", "json")
    assert ok.returncode == 0, ok.stderr
    rep = json.loads(ok.stdout)
    assert rep["sections"][0]["entry"] == "su2"
    bad = run("forms", clock_file, "--max-degree", "0")
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr


def _entry_structure(name, m):
    e = build_entry(name, m)
    return (genalg.use_relations(e.subspace, e.suggested_alpha) if e.suggested_alpha is not None
            else genalg.detect_structure(e.subspace))


@pytest.mark.parametrize("batch", [None, 3, 12])
@pytest.mark.parametrize("name, m, top", [
    ("su2", 3, 3), ("clock-shift", 3, 2), ("a0", 2, 4),
    # a0(3) has no basis at any degree; generic (3, 4) projects at degree 3;
    # su2 takes its embedded commutator relations; clock-shift(3) at
    # --max-degree 2 is checked on a degree-3 tower, as verify builds it
    ("a0", 3, 3), ("generic", 3, 4), ("su2", 4, 3),
])
def test_stacked_verify_matches_trial_loop(name, m, top, batch):
    """verify's closed-form checks, the generator engine and the random-trial loop agree.

    All pass below 1e-12, and the closed form bounds the generator engine's
    residuals (``generator_engine_residuals``).  With ``batch`` the engine's
    byte cap holds that many tables of degree 3, so it takes each theta^a
    alone at 3 while the E_ij share batches; its residuals do not depend on
    the batching, and the closed form reads no batch size.
    """
    G = (genalg.detect_structure(generic_subspace(m, 2 * (m - 1), 0)) if name == "generic"
         else _entry_structure(name, m))
    if top < 3:
        with pytest.raises(DegreeError):
            calculus.generator_residuals(calculus.build_tower(G, top))
    tower = calculus.build_tower(G, max(top, 3))
    closed = calculus.generator_residuals(tower)
    unbatched = generator_engine_residuals(tower, batch_bytes=1 << 40)
    budget = batch * 16 * tower.n ** 3 * m * m if batch else 1 << 20
    engine = generator_engine_residuals(tower, budget)
    assert np.allclose(engine, unbatched, rtol=0, atol=1e-16)
    args = argparse.Namespace(tol=DEFAULT_TOL, trials=7, seed=5)
    sec = {s["name"]: s for s in cli._verify_sections(G, tower, args)}
    random = random_identity_residuals(tower, args.trials, np.random.default_rng(5))
    for key, exact, gen, trial in zip(("d_squared_zero", "graded_leibniz"), closed, engine,
                                      random):
        assert sec[key]["status"] == "pass" and sec[key]["method"] == "exact on generators"
        assert abs(sec[key]["residual"] - exact) < 1e-16
        assert max(exact, gen, trial) < 1e-12
        assert gen <= exact + 1e-14


def _traced_peak(argv):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    return peak


def test_verify_memory_does_not_grow_with_trials(tmp_path):
    """verify runs no random trials, so 20x the --trials keep the peak within 25%."""
    e = universal_A0(3)
    path = str(tmp_path / "a0.json")
    formats.save_algebra(path, 3, e.subspace.label, e.subspace.lambdas)
    argv = ["verify", path, "--max-degree", "3", "--format", "json", "--trials"]
    _traced_peak(argv + ["20"])  # the first run in a process also makes one-time allocations
    few, many = _traced_peak(argv + ["20"]), _traced_peak(argv + ["400"])
    assert many <= 1.25 * few, (few, many)


def test_verify_a0_m4_memory(tmp_path):
    """verify on a0(m=4): the traced peak stays within 1.4 MiB.

    The peak reads 1.13 MiB; the bound leaves a margin of 0.27 MiB, about 24%.
    It is set by ``generator_residuals``' batches of the scalar u_a, five of
    the 15 at a time under ``calculus.GENERATOR_BYTES``.  No verify table has
    an (n,)*3 + (m, m) or n^4 shape: the stack of all 15 u_a alone is 810 KB.
    """
    e = universal_A0(4)
    path = str(tmp_path / "a0.json")
    formats.save_algebra(path, 4, e.subspace.label, e.subspace.lambdas)
    argv = ["verify", path, "--max-degree", "3", "--format", "json", "--trials", "20"]
    _traced_peak(argv)  # the first run in a process also makes one-time allocations
    assert _traced_peak(argv) <= 1.4 * 2 ** 20


def test_verify_fails_on_broken_chi(monkeypatch, capsys, tmp_path):
    """Negative control: d with the chi term's sign flipped breaks d o d = 0 (su2 has F != 0)."""
    e = build_entry("su2", 3)
    path = str(tmp_path / "su2.json")
    formats.save_algebra(path, 3, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    raw_chi = calculus._raw_chi

    def flipped_chi(*args):
        table = raw_chi(*args)
        return np.negative(table, out=table)

    monkeypatch.setattr(calculus, "_raw_chi", flipped_chi)
    code, rep = _run_json(capsys, ["verify", path, "--alpha", "embedded", "--trials", "3"])
    assert code == cli.EXIT_VERIFY
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["d_squared_zero"]["status"] == "fail"


def _su2_file(tmp_path, m, kappa=1.0):
    e = su2(m, kappa=kappa)
    path = str(tmp_path / f"su2-{m}.json")
    formats.save_algebra(path, m, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    return path


def _chi_with_later_slots_flipped(F, coeffs, p):
    """``calculus._raw_chi`` with the sign of every slot q >= 2 flipped."""
    n = F.shape[0]
    s = len(calculus._stack(coeffs, p))
    shape = coeffs.shape[:s] + (n,) * (p + 1) + coeffs.shape[-2:]
    Fm = F.reshape(n, n * n).T
    table = _at_slot(-Fm, coeffs, s).reshape(shape)
    for q in range(2, p + 1):
        table -= _at_slot((-1) ** q * Fm, coeffs, s + q - 1).reshape(shape)
    return table


# verify's closed-form d o d residual under the flipped chi, on su2(m) auto
_FLIPPED_CHI_CLOSED_DD = {3: 0.12598815767, 4: 0.0503952630679}


@pytest.mark.parametrize("m, mode, caught_by, residual", [
    # the auto relations stay an ideal under the broken d, but d o d fails on generators
    (3, "auto", "d_squared_zero", 0.255452014912),
    (4, "auto", "d_squared_zero", 0.131736469341),
    # the commutator relations do not: d leaves their ideal
    (3, "embedded", "graded_leibniz", 1 / 3),
    (4, "embedded", "graded_leibniz", 0.210818510678),
])
def test_verify_fails_on_chi_with_later_slots_flipped(monkeypatch, capsys, tmp_path, m, mode,
                                                      caught_by, residual):
    """Negative control: chi with the sign of its slots q >= 2 flipped fails verify.

    Each case records the section that catches it and the residual that d
    applied to each generator reads (``generator_engine_residuals``); the
    other of the two sections stays at rounding level.  The closed-form
    Leibniz residual is that generator residual for any chi.  The closed-form
    d o d rests on chi being a derivation, which this chi is not, so on the
    auto relations it reads another value (``_FLIPPED_CHI_CLOSED_DD``).
    """
    path = _su2_file(tmp_path, m)
    monkeypatch.setattr(calculus, "_raw_chi", _chi_with_later_slots_flipped)
    code, rep = _run_json(capsys, ["verify", path, "--alpha", mode, "--trials", "3"])
    assert code == cli.EXIT_VERIFY
    sec = {s["name"]: s for s in rep["sections"]}
    other = ({"d_squared_zero", "graded_leibniz"} - {caught_by}).pop()
    assert sec[caught_by]["status"] == "fail"
    closed = _FLIPPED_CHI_CLOSED_DD[m] if mode == "auto" else residual
    assert sec[caught_by]["residual"] == pytest.approx(closed, rel=1e-6)
    assert sec[other]["status"] == "pass" and sec[other]["residual"] < 1e-14
    e = su2(m)
    G = (genalg.detect_structure(e.subspace) if mode == "auto"
         else genalg.use_relations(e.subspace, e.suggested_alpha))
    engine = dict(zip(("d_squared_zero", "graded_leibniz"),
                      generator_engine_residuals(calculus.build_tower(G, 3))))
    assert engine[caught_by] == pytest.approx(residual, rel=1e-6)
    assert engine[other] < 1e-14


@pytest.mark.parametrize("kappa", [1e2, 3e3, 1e4, 1e-6])
def test_verify_scale_covariant_on_scaled_su2(monkeypatch, capsys, tmp_path, kappa):
    """su2(m=4) times kappa passes verify, with d o d judged relative to |lambda|^2.

    With chi negated, d_squared_zero still fails at every kappa; at 1e-6 a floor
    of 1 under |lambda|^2 would pass it.  The relations are detected at every
    kappa: significance in rho is judged against |Gram| with no floor at 1.
    """
    path = _su2_file(tmp_path, 4, kappa)
    argv = ["verify", path, "--max-degree", "3", "--seed", "1"]
    code, rep = _run_json(capsys, argv)
    assert code == cli.EXIT_OK
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["d_squared_zero"]["residual"] < 1e-14
    assert sec["graded_leibniz"]["residual"] < 1e-14
    raw_chi = calculus._raw_chi

    def negated_chi(*args):
        table = raw_chi(*args)
        return np.negative(table, out=table)

    monkeypatch.setattr(calculus, "_raw_chi", negated_chi)
    code, rep = _run_json(capsys, argv)
    assert code == cli.EXIT_VERIFY
    assert {s["name"]: s for s in rep["sections"]}["d_squared_zero"]["status"] == "fail"


@pytest.mark.parametrize("mode", ["auto", "embedded"])
def test_verify_max_degree_2_checks_exactly(monkeypatch, capsys, tmp_path, mode):
    """At --max-degree 2 both generator sections still run exactly, through degree 3.

    They report what --max-degree 3 reports, and the flipped-chi control that
    only a degree-3 check catches (graded_leibniz on the commutator relations)
    still fails.
    """
    path = _su2_file(tmp_path, 3)
    reports = {}
    for top in ("2", "3"):
        code, rep = _run_json(capsys, ["verify", path, "--alpha", mode, "--max-degree", top])
        assert code == cli.EXIT_OK
        reports[top] = [s for s in rep["sections"]
                        if s["name"] in ("d_squared_zero", "graded_leibniz")]
    assert [s["method"] for s in reports["2"]] == ["exact on generators"] * 2
    assert reports["2"] == reports["3"]
    monkeypatch.setattr(calculus, "_raw_chi", _chi_with_later_slots_flipped)
    code, rep = _run_json(capsys, ["verify", path, "--alpha", mode, "--max-degree", "2"])
    assert code == cli.EXIT_VERIFY
    failed = {s["name"] for s in rep["sections"] if s["status"] == "fail"}
    assert failed == {"d_squared_zero" if mode == "auto" else "graded_leibniz"}


def test_verify_builds_to_degree_3_whatever_max_degree(monkeypatch, capsys, tmp_path):
    """verify reads nothing above degree 3, so it builds the tower to degree 3 at any --max-degree.

    On su(3) with commutator relations the JSON report at --max-degree 8 is
    byte-identical to the one at 3, and every ``build_tower`` call asks for
    degree 3.
    """
    path = tmp_path / "su3.json"
    extra = _su3_commutator_file(path)
    tops = []
    build_tower = calculus.build_tower

    def spy(G, max_degree, tol=DEFAULT_TOL):
        tops.append(max_degree)
        return build_tower(G, max_degree, tol=tol)

    monkeypatch.setattr(calculus, "build_tower", spy)
    outs = []
    for top in ("8", "3"):
        assert cli.main(["verify", str(path), *extra, "--max-degree", top,
                         "--format", "json"]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert tops == [3, 3]


def test_verify_report_ignores_seed_and_trials(capsys, clock_file, tmp_path):
    """verify and equiv draw no random numbers: each report is byte-identical whatever
    --seed and --trials say, and names no seed or generator."""
    upath = tmp_path / "u.json"
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(np.diag([1.0, 2.0, 3.0]) + 0.3), fh)
    for argv in (["verify", clock_file], ["equiv", clock_file, str(upath)]):
        outs = []
        for flags in (["--seed", "1", "--trials", "1"], ["--seed", "7", "--trials", "400"]):
            assert cli.main(argv + ["--format", "json"] + flags) == cli.EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        rep = json.loads(outs[0])
        assert "seed" not in rep and "generator" not in rep
        assert cli.main(argv + ["--seed", "7"]) == cli.EXIT_OK
        assert "seed" not in capsys.readouterr().out


@pytest.mark.parametrize("kappa", [1e8, 1e-6])
@pytest.mark.parametrize("mode", ["auto", "embedded"])
def test_equiv_scale_covariant_on_scaled_su2(capsys, tmp_path, kappa, mode):
    """Bugfix: equiv judges theta relative to |lambda| and d relative to |g| |lambda|.

    su2(m=3) times kappa with its commutator alpha, u = diag(1, 2, 3) + 0.3.
    With theta absolute, kappa = 1e8 failed theta at 2.6e-8 in both modes.
    At 1e-6 auto mode detects R = 4, as at kappa = 1.
    """
    path = _su2_file(tmp_path, 3, kappa)
    upath = tmp_path / "u.json"
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(np.diag([1.0, 2.0, 3.0]) + 0.3), fh)
    code, rep = _run_json(capsys, ["equiv", str(path), str(upath), "--alpha", mode])
    assert code == cli.EXIT_OK, rep
    for sec in rep["sections"]:
        assert sec["residual"] < 1e-14, sec
    code, rep = _run_json(capsys, ["analyze", str(path), "--alpha", mode])
    assert code == cli.EXIT_OK and rep["sections"][2]["R"] == (4 if mode == "auto" else 3)


def test_equiv_negative_controls_exit_3(monkeypatch, capsys, clock_file, tmp_path):
    """u where u^-1 belongs fails products and d_commutation (and, since U^star then maps
    theta'^a to u^2 theta^a, coframe and theta); F negated in the conjugated structure
    fails d_commutation alone."""
    path = _su2_file(tmp_path, 3)
    upath = tmp_path / "u.json"
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(np.diag([2.0, -2.0, -2.0])), fh)
    argv = ["equiv", str(path), str(upath), "--alpha", "embedded"]
    assert _run_json(capsys, argv)[0] == cli.EXIT_OK

    def failing():
        code, rep = _run_json(capsys, argv)
        assert code == cli.EXIT_VERIFY
        return {s["name"] for s in rep["sections"] if s["status"] == "fail"}

    with monkeypatch.context() as mp:
        mp.setattr(maps.Conjugation, "from_matrix",
                   classmethod(lambda cls, u, tol=None: cls(u=u, u_inv=u)))
        assert failing() == {"coframe", "theta", "products", "d_commutation"}
    structure_F = genalg._structure_F
    monkeypatch.setattr(maps, "_structure_F", lambda B: -structure_F(B))
    assert failing() == {"d_commutation"}


def test_verify_calls_the_traced_universal_functions(monkeypatch, capsys, clock_file):
    """verify reaches universal.verify_trace_lemma and universal.theta_u, the two universal
    names that perfbench's tracer reports and expects to be called."""
    called = []
    for name in ("verify_trace_lemma", "theta_u"):
        def spy(*args, _real=getattr(universal, name), _name=name):
            called.append(_name)
            return _real(*args)
        monkeypatch.setattr(universal, name, spy)
    code, _ = _run_json(capsys, ["verify", clock_file])
    assert code == cli.EXIT_OK
    assert called == ["verify_trace_lemma", "theta_u"]


@pytest.mark.parametrize("m", range(2, 9))
def test_verify_fails_on_one_scaled_dual(monkeypatch, capsys, tmp_path, m):
    """Negative control: one gamma dual scaled by 1 + 1e-3 fails trace_lemma and
    universal_identity, each residual of the order of 1e-3."""
    e = clock_shift(m)
    path = str(tmp_path / "clock.json")
    formats.save_algebra(path, m, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    duals = matrix_basis_duals

    def scaled(gammas, tol):
        out = duals(gammas, tol=tol)
        out[-1] *= 1 + 1e-3
        return out

    monkeypatch.setattr(cli.algebra, "matrix_basis_duals", scaled)
    code, rep = _run_json(capsys, ["verify", path, "--alpha", "embedded"])
    assert code == cli.EXIT_VERIFY
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["trace_lemma"]["status"] == sec["universal_identity"]["status"] == "fail"
    for value in (sec["trace_lemma"]["trace_identity"], sec["trace_lemma"]["tensor_commutator"],
                  sec["universal_identity"]["residual"]):
        assert 1e-4 < value < 1e-2


def test_verify_fails_on_broken_degree0_d(monkeypatch, capsys, tmp_path):
    """Negative control: d on degree 0 as -[lambda_a, f] breaks the co-frame formula."""
    e = build_entry("su2", 3)
    path = str(tmp_path / "su2.json")
    formats.save_algebra(path, 3, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    exterior_d = calculus.exterior_d
    monkeypatch.setattr(calculus, "exterior_d",
                        lambda xi: -exterior_d(xi) if xi.degree == 0 else exterior_d(xi))
    tower = calculus.build_tower(genalg.use_relations(e.subspace, e.suggested_alpha), 3)
    gammas = np.concatenate([np.eye(3, dtype=complex)[None], gell_mann_basis(3)])
    assert not calculus.coframe_from_formula(tower, gammas,
                                             matrix_basis_duals(gammas))[2]["passed"]
    code, rep = _run_json(capsys, ["verify", path, "--alpha", "embedded", "--trials", "3"])
    assert code == cli.EXIT_VERIFY
    sec = {s["name"]: s for s in rep["sections"]}
    assert sec["coframe_formula"]["status"] == "fail"


def _raw_d_with_right_theta_flipped(raw_d):
    """``calculus._raw_d`` with the sign of its right theta term flipped at degree p >= 1."""

    def flipped(tower, coeffs, p):
        table = raw_d(tower, coeffs, p)
        if p >= 1:
            lam, n, m = tower.ga.subspace.lambdas, tower.n, tower.m
            a = coeffs.reshape(calculus._stack(coeffs, p) + (n ** p, m, m))
            table -= 2 * _pair_products(a, (-1) ** (p + 1) * lam).reshape(table.shape)
        return table

    return flipped


@pytest.mark.parametrize("name, m, mode, residual", [
    ("su2", 4, "embedded", 5.5), ("a0", 3, "auto", 18.5), ("ellipsoid", 6, "embedded", 20.3),
])
def test_verify_fails_on_degree1_d_with_right_theta_flipped(monkeypatch, capsys, tmp_path, name,
                                                            m, mode, residual):
    """Negative control: d on degree >= 1 with its right theta term's sign flipped fails verify.

    Only structure_equations catches it, through dtheta_plus_theta_sq, which
    applies the public exterior_d to theta: the closed-form d o d and Leibniz
    checks read the curvature and chi, not the degree-1 d.
    """
    e = build_entry(name, m)
    path = str(tmp_path / f"{name}.json")
    formats.save_algebra(path, m, e.subspace.label, e.subspace.lambdas, alpha=e.suggested_alpha)
    argv = ["verify", path, "--alpha", mode]
    code, rep = _run_json(capsys, argv)
    assert code == cli.EXIT_OK
    monkeypatch.setattr(calculus, "_raw_d", _raw_d_with_right_theta_flipped(calculus._raw_d))
    code, rep = _run_json(capsys, argv)
    assert code == cli.EXIT_VERIFY
    assert {s["name"] for s in rep["sections"] if s["status"] == "fail"} == {"structure_equations"}
    sec = {s["name"]: s for s in rep["sections"]}["structure_equations"]
    assert sec["dtheta_plus_theta_sq"] == pytest.approx(residual, abs=0.05)
    assert sec["dtheta_a"] < sec["dtheta_a_bound"]


def test_verify_judges_structure_equations_relative_to_lambda(capsys, tmp_path):
    """Bugfix: su2(m=4) times 1e-3, its commutator alpha perturbed by 1e-6 of its norm, is
    refused with InvalidRelation (exit 2): each column is judged against tol |Gram| |alpha_r|,
    where a floor at 1 under the size of rho let it through to verify."""
    e = su2(4, kappa=1e-3)
    alpha = e.suggested_alpha
    alpha = alpha + 1e-6 * np.linalg.norm(alpha) * np.random.default_rng(0).standard_normal(
        alpha.shape)
    path = str(tmp_path / "su2.json")
    formats.save_algebra(path, 4, e.subspace.label, e.subspace.lambdas, alpha=alpha)
    assert cli.main(["verify", path, "--alpha", "embedded"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidRelation: relation column") and "Traceback" not in err


def test_ncg_tol_read_per_parse(monkeypatch, capsys, clock_file):
    """The parser is kept between calls, but each call reads NCG_TOL afresh."""
    tols = []
    for value in ("1e-6", "1e-7", None):
        if value is None:
            monkeypatch.delenv("NCG_TOL")
        else:
            monkeypatch.setenv("NCG_TOL", value)
        code, rep = _run_json(capsys, ["analyze", clock_file])
        assert code == cli.EXIT_OK
        tols.append(rep["tolerance"])
    assert tols == [1e-6, 1e-7, DEFAULT_TOL]


@pytest.mark.parametrize("change", ["delete", "rewrite"])
def test_digest_is_of_the_bytes_analysed(monkeypatch, capsys, clock_file, pauli_file, change):
    """A file deleted or rewritten during the run: the report hashes the bytes analysed."""
    with open(clock_file, "rb") as fh:
        data = fh.read()
    verify_ga = genalg.verify_ga

    def verify_ga_then_change(*args, **kwargs):
        if change == "delete":
            os.remove(clock_file)
        else:
            shutil.copyfile(pauli_file, clock_file)
        return verify_ga(*args, **kwargs)

    monkeypatch.setattr(genalg, "verify_ga", verify_ga_then_change)
    code, rep = _run_json(capsys, ["analyze", clock_file])
    assert code == cli.EXIT_OK
    assert rep["input_digest"] == hashlib.sha256(data).hexdigest()
