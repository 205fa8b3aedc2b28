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


def _judged(name, residual, bound):
    """A section that passes iff ``residual`` is below ``bound``; reports both."""
    return _section(name, residual < bound, residual=residual, bound=bound)


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
        _section("gram", True,
                 condition=float(np.linalg.cond(G.dual.gram)),
                 gram=G.dual.gram.tolist()),
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


def _dd_table(tower, om, bufs):
    """The raw table of d applied to the form d(om), for a stack ``om``, built in bufs[0].

    bufs[1] is scratch.  d(om) is canonical, as d o d = 0 asks of forms;
    projecting it is cheap, since it is n times smaller than the result.
    """
    return calculus._raw_d(tower, calculus.exterior_d(om).coeffs, om.degree + 1, *bufs)


def _leibniz_table(tower, z, x, bufs):
    """The raw table of d(z x) - d(z) x - (-1)^deg(z) z d(x) for stacks z, x, built in bufs[0].

    bufs[1] and bufs[2] are scratch.  A derivative has the residual's size
    only when the other factor has degree 0; it is then formed in bufs[1],
    and every other table, n times smaller at least, is fresh.
    """
    d, wedge = calculus._raw_d, calculus._raw_wedge
    p, q = z.degree, x.degree
    zx = np.ascontiguousarray(wedge(tower, z.coeffs, p, x.coeffs, q))
    res = d(tower, zx, p + q, bufs[0], bufs[1])
    if q == 0:
        res -= wedge(tower, d(tower, z.coeffs, p, bufs[1], bufs[2]), p + 1, x.coeffs, q, bufs[2])
    else:
        res -= wedge(tower, d(tower, z.coeffs, p), p + 1, x.coeffs, q, bufs[1])
    sz = (-1.0) ** p * z.coeffs
    if p == 0:  # d(x) in bufs[1] is copied to bufs[2] before the product overwrites it
        res -= wedge(tower, sz, p, d(tower, x.coeffs, q, bufs[1], bufs[2]), q + 1,
                     bufs[1], bufs[2])
    else:
        res -= wedge(tower, sz, p, d(tower, x.coeffs, q), q + 1, bufs[1])
    return res


def _identity_residuals(tower, trials, rng):
    """Worst d o d = 0 and graded Leibniz residuals over ``trials`` seeded random trials.

    Each trial draws forms of degree 0..min(2, top - 2) for d o d, then one
    (z, x) pair per Leibniz degree pair; ``TrialDraws`` draws a chunk of
    trials at once, so the generator stream is a per-trial loop's.  Each
    check takes the chunk's trials in batches of its own size: as many as
    keep the buffers it needs, each one table of its residual's degree per
    trial, and the chunk's draws within STACK_BYTES; the chunk is the
    largest such batch.  The buffers are carved from one workspace,
    made once and reused by every batch and degree; each residual is built
    there as one raw table and projected once.  d o d is relative to
    max(|om|, 1), Leibniz to max(|z| |x|, 1).
    """
    top, n, m = tower.max_degree, tower.n, tower.m
    dd_degrees = range(min(2, top - 2) + 1)
    pairs = [(dz, dx) for dz in range(2) for dx in range(2) if dz + dx + 1 <= top]
    degrees = [*dd_degrees, *(d for pair in pairs for d in pair)]
    # (table builder, draw indices, residual degree, buffers per trial) of each
    # check; a residual in a zero-rank space is exactly zero, so it is left out
    dd = [(_dd_table, (k,), p + 2, 2) for k, p in enumerate(dd_degrees)]
    leibniz = [(_leibniz_table, (len(dd) + 2 * i, len(dd) + 2 * i + 1), dz + dx + 1,
                3 if 0 in (dz, dx) else 2) for i, (dz, dx) in enumerate(pairs)]
    checks = [c for c in dd + leibniz if tower.ranks[c[2]] > 0]
    need = [bufs * n ** p * m * m for *_, p, bufs in checks]
    draw_size = sum(n ** p for p in degrees) * m * m
    budget = calculus.STACK_BYTES // np.dtype(complex).itemsize
    chunks = calculus._split(trials, draw_size + min(need), budget)
    # the chunk's draws stay alive through every batch of every check
    room = budget - chunks[0] * draw_size
    workspace = np.empty(max(calculus._split(chunks[0], k, room)[0] * k for k in need),
                         dtype=complex)
    worst = {build: 0.0 for build, *_ in dd + leibniz}
    for chunk in chunks:
        draws = calculus.TrialDraws(tower, degrees, rng, chunk)
        for (build, indices, p, bufs), k in zip(checks, need):
            start = 0
            for count in calculus._split(chunk, k, room):
                forms = [draws.form(i, slice(start, start + count)) for i in indices]
                start += count
                size = count * k // bufs
                table = build(tower, *forms, [workspace[j * size:(j + 1) * size]
                                              for j in range(bufs)])
                table = calculus._project(tower, p, table)
                res = calculus.form_norm(calculus.Form(tower, p, table))
                scale = np.prod([calculus.form_norm(f) for f in forms], axis=0)
                worst[build] = max(worst[build], float((res / np.maximum(scale, 1.0)).max()))
        del draws  # before the next chunk draws its own
    return worst[_dd_table], worst[_leibniz_table]


def _verify_sections(G, tower, args, rng):
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

    # d o d = 0 and graded Leibniz on seeded random forms, in stacked batches
    worst_dd, worst_leib = _identity_residuals(tower, args.trials, rng)
    m = G.subspace.m
    sections.append(_judged("d_squared_zero", worst_dd, 1e-8))
    sections.append(_judged("graded_leibniz", worst_leib, 1e-8))

    # Universal-calculus identities on a full matrix basis.
    gammas = np.concatenate([np.eye(m, dtype=complex)[None],
                             catalog.gell_mann_basis(m)])
    tl = universal.verify_trace_lemma(gammas, trials=args.trials, seed=args.seed)
    sections.append(_section("trace_lemma", tl["passed"],
                             trace_identity=tl["trace_identity"],
                             tensor_commutator=tl["tensor_commutator"],
                             bound=tl["bound"]))
    th = universal.theta_u(gammas)
    worst_u = 0.0
    # a batch keeps up to four stacked m^2 x m^2 tables: [f, theta_u] and du(f)'s three
    for count in calculus.trial_batches(args.trials, 4 * m ** 4):
        # per trial: re f, then im f
        z = rng.standard_normal((count, 2, m, m))
        f = z[:, 0] + 1j * z[:, 1]
        # f.theta_u - theta_u.f = -[theta_u, f] = du(f)
        diff = universal.commutator(f, th) - universal.du(f)
        worst_u = max(worst_u, float(np.linalg.norm(diff.reshape(count, -1), axis=1).max()))
    sections.append(_judged("universal_identity", worst_u, 1e-10))

    # Co-frame reconstruction from the universal formula.
    _, _, cf = calculus.coframe_from_formula(tower, gammas, tol=args.tol)
    sections.append(_section("coframe_formula", cf["passed"],
                             residual=max(v for k, v in cf.items() if k != "passed")))
    return sections


def cmd_verify(args):
    G, digest = _structure(args)
    if G.R == 0:
        return _finish(args, digest, [_section("omega2_trivial", True, R=0)], seed=args.seed)
    tower = calculus.build_tower(G, args.max_degree, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    return _finish(args, digest, _verify_sections(G, tower, args, rng), seed=args.seed)


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
                   help="tower top degree (default 3); the random-form checks project only "
                        "up to degree min(MAX_DEGREE, 4): a higher value adds only ranks")
    p.add_argument("--seed", type=_at_least(0), default=42)
    p.add_argument("--trials", type=_at_least(1), default=20)

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
