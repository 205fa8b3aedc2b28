import json

import numpy as np
import pytest

from ncdiff import cli, formats
from ncdiff.catalog import clock_shift, universal_A0


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


def test_equiv_singular(tmp_path, clock_file):
    upath = tmp_path / "u0.json"
    with open(upath, "w") as fh:
        json.dump(formats.matrix_to_json(np.zeros((3, 3))), fh)
    assert cli.main(["equiv", clock_file, str(upath)]) == cli.EXIT_VALIDATION


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
    for key, u in (("WIDE_U", np.eye(3, 4)), ("SMALL_U", np.eye(2)), ("NAN_U", nan_u),
                   ("NEAR_SINGULAR_U", np.diag([1.0, 1.0, 1e-4]))):
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(formats.matrix_to_json(u), fh)
    return paths


@pytest.mark.parametrize("argv, ncg_tol", [
    (["forms", "FILE", "--max-degree", "0"], None),
    (["verify", "FILE", "--max-degree", "1"], None),
    (["verify", "FILE", "--trials", "0"], None),
    (["equiv", "FILE", "FILE", "--trials", "0"], None),
    (["catalog", "su2", "--m", "1"], None),
    (["catalog", "ellipsoid", "--m", "2"], None),
    (["analyze", "NAN_BASIS"], None),
    (["forms", "SHORT_ALPHA", "--alpha", "embedded"], None),
    (["forms", "NAN_ALPHA", "--alpha", "embedded"], None),
    (["equiv", "FILE", "WIDE_U"], None),
    (["equiv", "FILE", "SMALL_U"], None),
    (["equiv", "FILE", "NAN_U"], None),
    (["analyze", "PAULI", "--tol", "0"], None),
    (["analyze", "FILE"], "abc"),
], ids=["forms-max-degree-0", "verify-max-degree-1", "verify-trials-0", "equiv-trials-0",
        "catalog-su2-m1", "catalog-ellipsoid-m2", "nan-basis-entry", "alpha-row-count",
        "nan-alpha-entry", "equiv-non-square-u", "equiv-u-wrong-size", "equiv-nan-u", "tol-0",
        "ncg-tol-not-a-number"])
def test_bad_arguments_exit_2(monkeypatch, capsys, bad_inputs, argv, ncg_tol):
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


def test_equiv_singular_at_tol(capsys, bad_inputs):
    """--tol reaches the singularity check of the conjugating matrix."""
    argv = ["equiv", bad_inputs["FILE"], bad_inputs["NEAR_SINGULAR_U"], "--tol", "1e-3"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "SingularTransform" in capsys.readouterr().err
