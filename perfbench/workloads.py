"""Seeded inputs and command lists for the three benchmark workloads.

Each workload is a list of ``Command``s: the ``ncdiff`` argv, the key under
which its expected report summary is stored in ``reference.json``, and the
time budget of the command.  ``build`` writes every input file the commands
read (algebra JSON through ``catalog``/``formats``, conjugator matrices) into
a work directory; the same seed always gives the same files and argv.
"""

import json
from dataclasses import dataclass

import numpy as np

from ncdiff import catalog, formats

@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    budget_s: float


def _rng(seed, workload):
    return np.random.default_rng([seed, list(_WORKLOADS).index(workload)])


def _cli_seed(rng):
    return str(int(rng.integers(0, 2 ** 31 - 1)))


def generic_subspace(m, n, rng):
    """n random complex traceless m x m matrices (independent with probability 1)."""
    mats = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    trace = np.trace(mats, axis1=1, axis2=2)
    return mats - trace[:, None, None] / m * np.eye(m)


def conjugator(m, rng):
    """u = Q diag(1..2) with Q unitary: invertible, condition number 2."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, _ = np.linalg.qr(z)
    return q @ np.diag(np.linspace(1.0, 2.0, m))


def _write_catalog(path, name, m):
    entry = catalog.build_entry(name, m)
    B = entry.subspace
    formats.save_algebra(path, B.m, B.label, B.lambdas, alpha=entry.suggested_alpha)


def _write_generic(path, m, n, rng):
    formats.save_algebra(path, m, f"generic(m={m},n={n})", generic_subspace(m, n, rng))


def _write_matrix(path, u):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(formats.matrix_to_json(u), fh)


def _alpha_flags(mode):
    return ("--alpha", "embedded") if mode == "embedded" else ()


# (catalog name, m, --alpha mode)
VERIFY_CATALOG = (
    ("a0", 3, "auto"),
    ("a0", 4, "auto"),
    ("su2", 4, "embedded"),
    ("clock-shift", 8, "auto"),
    ("ellipsoid", 6, "embedded"),
)

# (m, n, max_degree); (4, 5, 4) appears twice and gets two sub-seeds
FORMS_GENERIC = ((3, 4, 4), (4, 5, 4), (4, 5, 4), (5, 8, 3), (4, 6, 3))

SMALL_CATALOG = (
    ("su2", 3, "embedded"),
    ("clock-shift", 5, "auto"),
    ("ellipsoid", 4, "embedded"),
    ("a0", 2, "auto"),
)
SMALL_GENERIC = ((3, 3), (3, 4), (2, 2), (4, 3))
SMALL_CYCLES = 12
SMALL_TRIALS = "5"


def _verify_catalog(seed, workdir):
    rng = _rng(seed, "verify-catalog")
    cmds = []
    for name, m, mode in VERIFY_CATALOG:
        path = f"{workdir}/{name}-m{m}.json"
        _write_catalog(path, name, m)
        argv = ("verify", path, "--max-degree", "3", "--seed", _cli_seed(rng),
                "--format", "json") + _alpha_flags(mode)
        cmds.append(Command(f"verify {name}(m={m}) alpha={mode}", argv, 60.0))
    return cmds


def _forms_generic(seed, workdir):
    rng = _rng(seed, "forms-generic")
    cmds = []
    for i, (m, n, d) in enumerate(FORMS_GENERIC):
        path = f"{workdir}/generic-{i}-m{m}n{n}.json"
        _write_generic(path, m, n, rng)
        argv = ("forms", path, "--max-degree", str(d), "--format", "json")
        cmds.append(Command(f"forms generic(m={m},n={n}) max_degree={d}", argv, 60.0))
    return cmds


def _cli_small_batch(seed, workdir):
    rng = _rng(seed, "cli-small-batch")
    budget = 5.0
    cmds = []
    for name, m, _ in SMALL_CATALOG:
        _write_catalog(f"{workdir}/cat-{name}-m{m}.json", name, m)
    for c in range(SMALL_CYCLES):
        u_paths = {}
        for m in sorted({m for _, m, _ in SMALL_CATALOG} | {m for m, _ in SMALL_GENERIC}):
            u_paths[m] = f"{workdir}/u-{c}-m{m}.json"
            _write_matrix(u_paths[m], conjugator(m, rng))
        items = []
        for name, m, mode in SMALL_CATALOG:
            path = f"{workdir}/cat-{name}-m{m}.json"
            label = f"{name}(m={m}) alpha={mode}"
            emit = ("catalog", name, "--m", str(m), "--emit", path, "--format", "json")
            cmds.append(Command(f"catalog {label}", emit, budget))
            items.append((path, label, m, _alpha_flags(mode)))
        for m, n in SMALL_GENERIC:
            path = f"{workdir}/small-{c}-m{m}n{n}.json"
            _write_generic(path, m, n, rng)
            items.append((path, f"generic(m={m},n={n})", m, ()))
        for path, label, m, flags in items:
            j = ("--format", "json")
            seed_flags = ("--trials", SMALL_TRIALS, "--seed", _cli_seed(rng))
            cmds.append(Command(f"analyze {label}", ("analyze", path) + j + flags, budget))
            cmds.append(Command(f"forms {label}",
                                ("forms", path, "--max-degree", "3") + j + flags, budget))
            cmds.append(Command(f"verify {label}",
                                ("verify", path) + seed_flags + j + flags, budget))
            cmds.append(Command(f"equiv {label}",
                                ("equiv", path, u_paths[m]) + seed_flags + j + flags,
                                budget))
    return cmds


_WORKLOADS = {
    "verify-catalog": _verify_catalog,
    "forms-generic": _forms_generic,
    "cli-small-batch": _cli_small_batch,
}


def build(workload, seed, workdir):
    """Write the workload's inputs under ``workdir`` and return its commands."""
    return _WORKLOADS[workload](seed, workdir)
