"""Every public top-level function and class of the package is reached from the CLI, or kept
for a stated reason, and every private one is reached from the CLI or from such a reason.

The call graph is read from the source with the standard library's ``ast``, by
name.  A definition reaches each top-level definition it names: bare, as one of
its own module or one it imports (``from .calculus import wedge``), or as an
attribute of an imported package module (``calculus.build_tower``).  A class
reaches everything its body names, methods included.  A module-level
assignment is seen through: naming it names what its value names, so a
dispatch table reaches its functions once something names the table.  The roots are
``cli.main``, every ``cli.cmd_*`` (``main`` dispatches through ``globals()``),
and the module-level code of ``cli`` and ``__main__``, which calls ``run``, the
console script.  A local variable that shares a definition's name counts as a
use, so the check can miss dead code; code that is called only through
``getattr`` or ``globals()`` must be a root.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncdiff"

# Public definitions that no CLI path reaches, by group, each with its reason.
ALLOWED = {
    # named by perfbench's tracer (REPORTED, EXPECTED_CALLS), which tests/test_bench_names.py pins
    "calculus.chi": "traced by perfbench; the public chi beside exterior_d's private kernel",
    "calculus.epsilon_check": "traced by perfbench; the epsilon chain solved from the tower's W_p",
    "calculus.random_form": "traced by perfbench; random forms from the generator a caller passes",
    "linalg.span_projector": "traced by perfbench; the dense projector the tower tests compare to",
    # the paper's structure-preserving maps (ROADMAP item 7 wires them into verify)
    "maps.LinearMap": "a linear map between subspaces, which pushforward and pullback act by",
    "maps.pushforward": "the image of a basis element under a LinearMap",
    "maps.pullback": "the pullback of forms along a LinearMap",
    "maps.lie_derivative": "the Lie derivative along an inner derivation; [L_h, d] = 0 is pinned",
    "algebra.ad_operator": "the matrix of ad(h), for the normaliser of B",
    # references of the tests
    "linalg.inner": "the trace inner product that tests check linalg.gram against",
    "algebra.eta": "the projection onto B, the tests' reference for the rho decomposition",
    "algebra.eta_perp": "the projection off B and 1, the tests' reference for rho",
}


def package_sources():
    """The source of every module of the package, by module name."""
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _imports(tree, modules):
    """Local names of relative imports: (module, name) of ``from .x import name``, and the
    package module of ``from . import x``."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None and alias.name in modules:
                    aliases[local] = alias.name
                elif node.module is not None:
                    names[local] = (node.module, alias.name)
    return names, aliases


def call_graph(sources):
    """The definitions of ``sources`` ({module: text}), what each names, and the roots."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    imports = {mod: _imports(tree, trees) for mod, tree in trees.items()}
    tables = {mod: {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
              for mod, tree in trees.items()}

    def named(mod, nodes):
        names, aliases = imports[mod]
        out = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                local = node.id in defs[mod] or node.id in tables[mod]
                target = (mod, node.id) if local else names.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                target = (aliases[node.value.id], node.attr)
            else:
                continue
            if target is None:
                continue
            if target[1] in defs.get(target[0], {}):
                out.add(target)
            elif target[1] in tables.get(target[0], {}):
                out |= named(target[0], [tables[target[0]][target[1]]])
        return out

    edges = {(mod, name): named(mod, [node]) for mod in defs for name, node in defs[mod].items()}
    roots = {("cli", name) for name in defs["cli"] if name == "main" or name.startswith("cmd_")}
    for mod in ("cli", "__main__"):
        body = [n for n in trees[mod].body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        roots |= named(mod, body)
    return edges, roots


def _reached(edges, roots):
    """Every definition that some key of ``roots`` reaches, the roots included."""
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
    return seen


def unreached(sources):
    """The public top-level definitions that no root reaches, as 'module.name'."""
    edges, roots = call_graph(sources)
    seen = _reached(edges, roots)
    return {f"{mod}.{name}" for mod, name in edges
            if (mod, name) not in seen and not name.startswith("_")}


def orphans(sources):
    """The private top-level definitions that no root and no ALLOWED name reaches."""
    edges, roots = call_graph(sources)
    seen = _reached(edges, roots | {tuple(q.split(".")) for q in ALLOWED})
    return {f"{mod}.{name}" for mod, name in edges
            if (mod, name) not in seen and name.startswith("_")}


def test_every_public_definition_is_reached_or_allowed():
    """Also, a name that a CLI path reaches, or that no longer exists, leaves ALLOWED."""
    dead = unreached(package_sources())
    assert dead - set(ALLOWED) == set(), "reached by no CLI path and not in ALLOWED"
    assert set(ALLOWED) - dead == set(), "in ALLOWED but reached, or not defined"


def test_package_exports_only_reached_or_allowed_names():
    sources = package_sources()
    dead = unreached(sources)
    names, _ = _imports(ast.parse(sources["__init__"]), sources)
    exported = {f"{mod}.{name}" for mod, name in names.values()}
    bad = {q for q in exported if q in dead and q not in ALLOWED}
    assert not bad, f"ncdiff/__init__ exports unreached names: {sorted(bad)}"


def test_unreached_definition_is_flagged():
    """Negative control: a definition that nothing calls is flagged until a command calls it."""
    sources = package_sources()
    sources["calculus"] += "\n\ndef synthetic_orphan():\n    return 0\n"
    assert "calculus.synthetic_orphan" in unreached(sources)
    sources["cli"] = sources["cli"].replace(
        "def cmd_forms(args):\n", "def cmd_forms(args):\n    calculus.synthetic_orphan()\n")
    assert "calculus.synthetic_orphan" not in unreached(sources)


def test_dispatch_table_reaches_its_functions_only_when_named():
    """Negative control: a function in a module-level table is flagged until a command names
    the table."""
    sources = package_sources()
    sources["calculus"] += ("\n\ndef synthetic_orphan():\n    return 0\n"
                            "\n\n_SYNTHETIC = {\"x\": synthetic_orphan}\n")
    assert "calculus.synthetic_orphan" in unreached(sources)
    sources["cli"] = sources["cli"].replace(
        "def cmd_forms(args):\n", "def cmd_forms(args):\n    calculus._SYNTHETIC\n")
    assert "calculus.synthetic_orphan" not in unreached(sources)


def test_every_private_definition_is_reached():
    """A private helper that no CLI path and no ALLOWED name calls is dead code."""
    assert orphans(package_sources()) == set()


def test_orphaned_private_definition_is_flagged():
    """Negative control: a private helper that nothing calls is flagged until an ALLOWED name
    calls it."""
    sources = package_sources()
    sources["maps"] += "\n\ndef _synthetic_orphan():\n    return 0\n"
    assert orphans(sources) == {"maps._synthetic_orphan"}
    sources["maps"] = sources["maps"].replace(
        "def pushforward(phi, b):\n", "def pushforward(phi, b):\n    _synthetic_orphan()\n")
    assert orphans(sources) == set()


def random_number_uses(sources):
    """'module:line' of every node that names ``numpy.random`` or ``default_rng``.

    An import of ``numpy.random`` or of a name from it, an attribute ``random``
    of ``np``/``numpy``, and any name or attribute ``default_rng`` count.
    """
    found = set()
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                hit = any(a.name.startswith("numpy.random") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names))
            elif isinstance(node, ast.Attribute):
                hit = node.attr == "default_rng" or node.attr == "random" and isinstance(
                    node.value, ast.Name) and node.value.id in ("np", "numpy")
            else:
                hit = isinstance(node, ast.Name) and node.id == "default_rng"
            if hit:
                found.add(f"{mod}:{node.lineno}")
    return found


def test_package_draws_only_from_a_passed_generator():
    """No module of the package makes or names a random generator: every check is exact,
    and ``random_form`` draws from the generator its caller passes."""
    assert random_number_uses(package_sources()) == set()


def test_random_number_use_is_flagged():
    """Negative control: each way of reaching numpy's random module is flagged."""
    for line in ("rng = np.random.default_rng(0)", "from numpy.random import default_rng",
                 "import numpy.random", "from numpy import random", "x = numpy.random.rand()"):
        sources = package_sources()
        sources["maps"] += f"\n\ndef synthetic():\n    {line}\n"
        assert {u.split(":")[0] for u in random_number_uses(sources)} == {"maps"}, line
