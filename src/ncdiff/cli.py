"""Command-line front end: analyze algebras, build form towers, run verification suites."""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import algebra, calculus, catalog, formats, genalg, maps, universal
from .errors import CalculusError, ValidationError, ShapeError, ConfigError
from .linalg import DEFAULT_TOL

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_IO = 4


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _section(name, status, **extra):
    sec = {"name": name, "status": "pass" if status else "fail"}
    sec.update(extra)
    return sec


def _round(x):
    """Round floats for byte-stable report output."""
    if isinstance(x, complex):
        return [_round(x.real), _round(x.imag)]
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    return x


def _report(args, digest, sections, seed=None):
    rep = {
        "version": __version__,
        "input_digest": digest,
        "tolerance": args.tol,
        "sections": [_round(s) for s in sections],
    }
    if seed is not None:
        rep["seed"] = seed
        rep["generator"] = "numpy.random.default_rng"
    return rep


def _render(rep, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        return
    out.write(f"ncdiff {rep['version']}  tol={rep['tolerance']}")
    if "seed" in rep:
        out.write(f"  seed={rep['seed']}")
    out.write("\n")
    if rep["input_digest"]:
        out.write(f"input sha256: {rep['input_digest']}\n")
    for sec in rep["sections"]:
        line = f"[{sec['status']:>4}] {sec['name']}"
        detail = {k: v for k, v in sec.items() if k not in ("name", "status")}
        if detail:
            line += "  " + json.dumps(detail, sort_keys=True)
        out.write(line + "\n")


def _load(path, tol):
    try:
        m, label, basis, alpha = formats.load_algebra(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _IOFail(f"cannot read algebra file {path!r}: {exc}")
    B = algebra.validate_subspace(m, basis, tol=tol, label=label)
    return B, alpha


class _IOFail(Exception):
    pass


def _structure(args):
    """Load and validate ``args.file`` and build its generalised-algebra structure."""
    B, alpha = _load(args.file, args.tol)
    if args.alpha == "embedded":
        if alpha is None:
            raise ConfigError("--alpha embedded requested but file has no alpha")
        return genalg.use_relations(B, alpha, tol=args.tol)
    return genalg.detect_structure(B, tol=args.tol)


def _finish(args, sections, seed=None):
    """Render the report on ``args.file``; exit code from the section statuses."""
    _render(_report(args, _digest(args.file), sections, seed=seed), args.format)
    return EXIT_OK if all(s["status"] == "pass" for s in sections) else EXIT_VERIFY


def cmd_analyze(args):
    G = _structure(args)
    B = G.subspace
    rep_ga = genalg.verify_ga(G, tol=args.tol)
    rho_norm = float(np.linalg.norm(G.rho))
    sections = [
        _section("validate", True, m=B.m, n=B.n, label=B.label),
        _section("gram", True,
                 condition=float(np.linalg.cond(G.dual.gram)),
                 gram=[[_round(complex(v)) for v in row] for row in G.dual.gram]),
        _section("relations", True, R=G.R, mode=G.mode,
                 alpha_columns=[[_round(complex(v)) for v in G.alpha[:, r]]
                                for r in range(G.R)]),
        _section("projector", rep_ga["beta_alpha_identity"] < args.tol
                 and rep_ga["P_idempotent"] < args.tol,
                 beta_alpha_identity=rep_ga["beta_alpha_identity"],
                 P_idempotent=rep_ga["P_idempotent"]),
        _section("relation_residual", rep_ga["relation_residual"] < args.tol,
                 residual=rep_ga["relation_residual"]),
        _section("structure_tensors", True,
                 f_norm=float(np.linalg.norm(G.F)),
                 t_norm=float(np.linalg.norm(G.t)),
                 rho_norm=rho_norm),
        _section("dimension_inequality",
                 rep_ga["span_dim"] <= rep_ga["span_dim_bound"],
                 span_dim=rep_ga["span_dim"],
                 span_dim_bound=rep_ga["span_dim_bound"]),
    ]
    return _finish(args, sections)


def cmd_forms(args):
    G = _structure(args)
    if G.R == 0:
        return _finish(args, [_section("omega2_trivial", True, R=0,
                                       note="no relations detected; dim(Omega^2) = 0")])
    tower = calculus.build_tower(G, args.max_degree, tol=args.tol)
    sections = [_section("ranks", True,
                         D={str(p): tower.ranks[p] for p in sorted(tower.ranks)})]
    for p in range(3, args.max_degree + 1):
        exists, _, dim = calculus.epsilon_check(G, p, tol=args.tol)
        sections.append(_section(f"epsilon_degree_{p}", True,
                                 exists=bool(exists), solution_dim=dim))
    return _finish(args, sections)


def _verify_sections(G, tower, args, rng):
    sections = []
    rep_ga = genalg.verify_ga(G, tol=args.tol)
    sections.append(_section("generalised_algebra", rep_ga["passed"],
                             beta_alpha_identity=rep_ga["beta_alpha_identity"],
                             P_idempotent=rep_ga["P_idempotent"],
                             relation_residual=rep_ga["relation_residual"]))
    se = calculus.check_structure_equations(tower, tol=args.tol)
    sections.append(_section("structure_equations", se["passed"],
                             dtheta_plus_theta_sq=se["dtheta_plus_theta_sq"],
                             dtheta_a=se["dtheta_a"],
                             relation_form=se["relation_form"]))

    # d o d = 0 and graded Leibniz on seeded random forms.
    worst_dd, worst_leib = 0.0, 0.0
    top = min(args.max_degree, max(tower.ranks))
    for _ in range(args.trials):
        for deg in range(min(2, top - 1) + 1):
            om = calculus.random_form(tower, deg, rng)
            if deg + 2 > top:
                continue
            res = calculus.form_norm(calculus.exterior_d(calculus.exterior_d(om)))
            scale = max(calculus.form_norm(om), 1.0)
            worst_dd = max(worst_dd, res / scale)
        for dz in range(0, 2):
            for dx in range(0, 2):
                if dz + dx + 1 > top:
                    continue
                z = calculus.random_form(tower, dz, rng)
                x = calculus.random_form(tower, dx, rng)
                sgn = (-1.0) ** dz
                lhs = calculus.exterior_d(calculus.wedge(z, x))
                rhs = calculus.wedge(calculus.exterior_d(z), x) + \
                    sgn * calculus.wedge(z, calculus.exterior_d(x))
                scale = max(calculus.form_norm(z) * calculus.form_norm(x), 1.0)
                worst_leib = max(worst_leib, calculus.form_norm(lhs - rhs) / scale)
    sections.append(_section("d_squared_zero", worst_dd < 1e-8, residual=worst_dd))
    sections.append(_section("graded_leibniz", worst_leib < 1e-8, residual=worst_leib))

    # Universal-calculus identities on a full matrix basis.
    m = G.subspace.m
    gammas = np.concatenate([np.eye(m, dtype=complex)[None],
                             catalog.gell_mann_basis(m)])
    tl = universal.verify_trace_lemma(gammas, trials=args.trials,
                                      seed=args.seed, tol=1e-10)
    sections.append(_section("trace_lemma", tl["passed"],
                             trace_identity=tl["trace_identity"],
                             tensor_commutator=tl["tensor_commutator"]))
    th = universal.theta_u(gammas)
    worst_u = 0.0
    for _ in range(args.trials):
        f = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        lhs = th.commutator(f).flatten()
        rhs = universal.du(f).flatten()
        worst_u = max(worst_u, float(np.linalg.norm(lhs - rhs)))
    sections.append(_section("universal_identity", worst_u < 1e-10, residual=worst_u))

    # Co-frame reconstruction from the universal formula.
    _, _, cf = calculus.coframe_from_formula(tower, gammas, tol=args.tol)
    sections.append(_section("coframe_formula", cf["passed"],
                             residual=max(v for k, v in cf.items() if k != "passed")))
    return sections


def cmd_verify(args):
    G = _structure(args)
    if G.R == 0:
        return _finish(args, [_section("omega2_trivial", True, R=0)], seed=args.seed)
    tower = calculus.build_tower(G, args.max_degree, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    return _finish(args, _verify_sections(G, tower, args, rng), seed=args.seed)


def cmd_equiv(args):
    G = _structure(args)
    tower = calculus.build_tower(G, 2, tol=args.tol)
    try:
        with open(args.transform) as fh:
            u = formats.matrix_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _IOFail(f"cannot read transform file {args.transform!r}: {exc}")
    U = maps.Conjugation.from_matrix(u, tol=args.tol)
    rep_eq = maps.check_equivalence(U, G.subspace, tower, trials=args.trials,
                                    seed=args.seed, tol=args.tol)
    sections = [_section(k, rep_eq[k] < 1e-8, residual=float(rep_eq[k]))
                for k in ("coframe", "theta", "products", "d_commutation")]
    return _finish(args, sections, seed=args.seed)


def cmd_catalog(args):
    try:
        entry = catalog.build_entry(args.name, args.m)
    except ValueError as exc:  # m below the entry's minimum
        raise ConfigError(str(exc)) from None
    sections = [_section("catalog", True, entry=entry.name,
                         m=args.m, n=entry.subspace.n,
                         expected=entry.expected)]
    if args.emit:
        alpha = entry.suggested_alpha
        formats.save_algebra(args.emit, entry.subspace.m, entry.subspace.label,
                             entry.subspace.lambdas, alpha=alpha)
        sections.append(_section("emit", True, path=args.emit))
    rep = _report(args, "", sections)
    _render(rep, args.format)
    return EXIT_OK


def _at_least(low):
    """argparse type: an int no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _positive_float(text):
    """argparse type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _add_common(p, need_file=True):
    if need_file:
        p.add_argument("file", help="algebra definition JSON")
    # argparse runs ``type`` on a string default, so a bad NCG_TOL is a usage error
    p.add_argument("--tol", type=_positive_float,
                   default=os.environ.get("NCG_TOL", DEFAULT_TOL))
    p.add_argument("--format", choices=("json", "text"), default="text")


def build_parser():
    ap = argparse.ArgumentParser(prog="ncdiff",
                                 description="Noncommutative differential calculus "
                                             "over finite matrix algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect relations and build the projector")
    _add_common(p)
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("forms", help="build the form tower and report ranks")
    _add_common(p)
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.add_argument("--max-degree", type=_at_least(1), default=3)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("verify", help="run every identity suite")
    _add_common(p)
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.add_argument("--max-degree", type=_at_least(2), default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("equiv", help="check conjugation equivalence")
    _add_common(p)
    p.add_argument("transform", help="matrix JSON for the conjugating u")
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("catalog", help="emit a built-in example algebra")
    _add_common(p, need_file=False)
    p.add_argument("name", choices=catalog.NAMES)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--emit", metavar="FILE", default=None)
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IOFail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, ShapeError, ConfigError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CalculusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run():
    sys.exit(main())
