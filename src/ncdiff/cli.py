"""Command-line front end: analyze algebras, build form towers, run verification suites."""

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import algebra, calculus, catalog, formats, genalg, maps, universal
from .errors import CalculusError, ConfigError
from .linalg import DEFAULT_TOL

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_IO = 4


def _section(name, status, **extra):
    sec = {"name": name, "status": "pass" if status else "fail"}
    sec.update(extra)
    return sec


def _judged(name, residual, bound, **extra):
    """A section that passes iff ``residual`` is below ``bound``; reports both."""
    return _section(name, residual < bound, residual=residual, bound=bound, **extra)


def _round(x):
    """Round floats for byte-stable report output; a complex becomes [re, im]."""
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
    """Read the algebra file once: its validated subspace, alpha and the sha256 of its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        m, label, basis, alpha = formats.load_algebra(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _IOFail(f"cannot read algebra file {path!r}: {exc}")
    B = algebra.validate_subspace(m, basis, tol=tol, label=label)
    return B, alpha, hashlib.sha256(data).hexdigest()


class _IOFail(Exception):
    pass


def _structure(args):
    """Load and validate ``args.file`` and build its generalised-algebra structure.

    Returns the structure and the digest of the bytes it was built from.
    """
    B, alpha, digest = _load(args.file, args.tol)
    if args.alpha == "embedded":
        if alpha is None:
            raise ConfigError("--alpha embedded requested but file has no alpha")
        return genalg.use_relations(B, alpha, tol=args.tol), digest
    return genalg.detect_structure(B, tol=args.tol), digest


def _finish(args, digest, sections, seed=None):
    """Render the report on the input of ``digest``; exit code from the section statuses."""
    _render(_report(args, digest, sections, seed=seed), args.format)
    return EXIT_OK if all(s["status"] == "pass" for s in sections) else EXIT_VERIFY


def cmd_analyze(args):
    G, digest = _structure(args)
    B = G.subspace
    rep_ga = genalg.verify_ga(G, tol=args.tol)
    rho_norm = float(np.linalg.norm(G.rho))
    sections = [
        _section("validate", True, m=B.m, n=B.n, label=B.label),
        _section("gram", True, condition=B.dual.condition, gram=B.dual.gram.tolist()),
        _section("relations", True, R=G.R, mode=G.mode,
                 alpha_columns=G.alpha.T.tolist()),
        _section("projector", rep_ga["beta_alpha_identity"] < args.tol
                 and rep_ga["P_idempotent"] < args.tol,
                 beta_alpha_identity=rep_ga["beta_alpha_identity"],
                 P_idempotent=rep_ga["P_idempotent"]),
        _judged("relation_residual", rep_ga["relation_residual"], rep_ga["relation_bound"]),
        _section("structure_tensors", True,
                 f_norm=float(np.linalg.norm(G.F)),
                 t_norm=float(np.linalg.norm(G.t)),
                 rho_norm=rho_norm),
        _section("dimension_inequality",
                 rep_ga["span_dim"] <= rep_ga["span_dim_bound"],
                 span_dim=rep_ga["span_dim"],
                 span_dim_bound=rep_ga["span_dim_bound"]),
    ]
    return _finish(args, digest, sections)


def cmd_forms(args):
    G, digest = _structure(args)
    if G.R == 0:
        return _finish(args, digest, [_section("omega2_trivial", True, R=0,
                                       note="no relations detected; dim(Omega^2) = 0")])
    tower = calculus.build_tower(G, args.max_degree, tol=args.tol)
    sections = [_section("ranks", True,
                         D={str(p): tower.ranks[p] for p in sorted(tower.ranks)})]
    # the chain's solution space at degree p is conj(W_p) (see calculus.epsilon_check)
    for p in range(3, args.max_degree + 1):
        dim = tower.ranks[p]
        sections.append(_section(f"epsilon_degree_{p}", True, exists=dim > 0, solution_dim=dim))
    return _finish(args, digest, sections)


def _verify_sections(G, tower, args):
    sections = []
    rep_ga = genalg.verify_ga(G, tol=args.tol)
    sections.append(_section("generalised_algebra", rep_ga["passed"],
                             beta_alpha_identity=rep_ga["beta_alpha_identity"],
                             P_idempotent=rep_ga["P_idempotent"],
                             relation_residual=rep_ga["relation_residual"],
                             relation_bound=rep_ga["relation_bound"]))
    se = calculus.check_structure_equations(tower, tol=args.tol)
    sections.append(_section("structure_equations", se["passed"],
                             dtheta_plus_theta_sq=se["dtheta_plus_theta_sq"],
                             dtheta_a=se["dtheta_a"],
                             relation_form=se["relation_form"]))

    # d o d = 0 and graded Leibniz, decided exactly in closed form, relative to d's scale
    dd, leibniz = calculus.generator_residuals(tower)
    sections.append(_judged("d_squared_zero", dd, 1e-8, method="exact on generators"))
    sections.append(_judged("graded_leibniz", leibniz, 1e-8, method="exact on generators"))

    # Universal-calculus identities, decided exactly on a full matrix basis dualised once
    m = G.subspace.m
    gammas = np.concatenate([np.eye(m, dtype=complex)[None],
                             catalog.gell_mann_basis(m)])
    gduals = algebra.matrix_basis_duals(gammas, tol=args.tol)
    tl = universal.verify_trace_lemma(gammas, gduals)
    sections.append(_section("trace_lemma", tl["passed"],
                             trace_identity=tl["trace_identity"],
                             tensor_commutator=tl["tensor_commutator"],
                             bound=tl["bound"]))
    sections.append(_judged("universal_identity", tl["universal_identity"], 1e-10))

    # Co-frame reconstruction from the universal formula.
    _, _, cf = calculus.coframe_from_formula(tower, gammas, gduals, tol=args.tol)
    sections.append(_section("coframe_formula", cf["passed"],
                             residual=max(v for k, v in cf.items() if k != "passed")))
    return sections


def cmd_verify(args):
    G, digest = _structure(args)
    if G.R == 0:
        return _finish(args, digest, [_section("omega2_trivial", True, R=0)])
    # no section reads above degree 3, whatever --max-degree says
    tower = calculus.build_tower(G, 3, tol=args.tol)
    return _finish(args, digest, _verify_sections(G, tower, args))


def cmd_equiv(args):
    G, digest = _structure(args)
    tower = calculus.build_tower(G, 2, tol=args.tol)
    try:
        with open(args.transform) as fh:
            u = formats.matrix_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _IOFail(f"cannot read transform file {args.transform!r}: {exc}")
    U = maps.Conjugation.from_matrix(u, tol=args.tol)
    rep_eq = maps.check_equivalence(U, G.subspace, tower, trials=args.trials,
                                    seed=args.seed, tol=args.tol)
    sections = [_judged(k, float(rep_eq[k]), maps.EQUIVALENCE_BOUND)
                for k in ("coframe", "theta", "products", "d_commutation")]
    return _finish(args, digest, sections, seed=args.seed)


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
        try:
            formats.save_algebra(args.emit, entry.subspace.m, entry.subspace.label,
                                 entry.subspace.lambdas, alpha=alpha)
        except OSError as exc:
            raise _IOFail(f"cannot write algebra file {args.emit!r}: {exc}")
        sections.append(_section("emit", True, path=args.emit))
    return _finish(args, "", sections)


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


# --tol's default.  argparse runs ``type`` on a string default at parse time,
# so each parse reads NCG_TOL afresh and a bad value is a usage error.
_TOL_FROM_ENV = "$NCG_TOL"


def _tolerance(text):
    """argparse type of --tol: ``_positive_float``, with NCG_TOL (or DEFAULT_TOL) as the default."""
    if text == _TOL_FROM_ENV:
        text = os.environ.get("NCG_TOL", str(DEFAULT_TOL))
    return _positive_float(text)


def _add_common(p, need_file=True):
    if need_file:
        p.add_argument("file", help="algebra definition JSON")
    p.add_argument("--tol", type=_tolerance, default=_TOL_FROM_ENV)
    p.add_argument("--format", choices=("json", "text"), default="text")


def build_parser():
    ap = argparse.ArgumentParser(prog="ncdiff",
                                 description="Noncommutative differential calculus "
                                             "over finite matrix algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect relations and build the projector")
    _add_common(p)
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")

    p = sub.add_parser("forms", help="build the form tower and report ranks")
    _add_common(p)
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.add_argument("--max-degree", type=_at_least(1), default=3)

    p = sub.add_parser("verify", help="run every identity suite")
    _add_common(p)
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.add_argument("--max-degree", type=_at_least(2), default=3,
                   help="accepted for compatibility; verify builds the tower to degree 3, "
                        "the highest degree any of its checks reads")
    # kept so that existing command lines still parse; every verify section is exact
    p.add_argument("--seed", type=_at_least(0), default=42,
                   help="accepted for compatibility; verify draws no random numbers")
    p.add_argument("--trials", type=_at_least(1), default=20,
                   help="accepted for compatibility; verify runs no random trials")

    p = sub.add_parser("equiv", help="check conjugation equivalence")
    _add_common(p)
    p.add_argument("transform", help="matrix JSON for the conjugating u")
    p.add_argument("--alpha", choices=("auto", "embedded"), default="auto")
    p.add_argument("--seed", type=_at_least(0), default=42)
    p.add_argument("--trials", type=_at_least(1), default=20)

    p = sub.add_parser("catalog", help="emit a built-in example algebra")
    _add_common(p, need_file=False)
    p.add_argument("name", choices=catalog.NAMES)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--emit", metavar="FILE", default=None)
    return ap


@functools.cache
def _parser():
    """The parser, built on first use and kept for the life of the process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up per call: the kept parser must not pin a command rebound since (a test, a tracer)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except _IOFail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CalculusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: MemoryError: {str(exc) or 'out of memory'}; try a lower --max-degree",
              file=sys.stderr)
        return EXIT_VALIDATION


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
