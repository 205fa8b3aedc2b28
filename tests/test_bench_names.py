"""The functions perfbench traces by name must exist in the library.

``perfbench/run.py`` names them as ``layer.fn`` in ``REPORTED`` and
``EXPECTED_CALLS``; a missing one surfaces only as a ``KeyError`` in a traced
run.  The script is parsed, not imported, so nothing there runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _bench_names():
    tables = {}
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("REPORTED", "EXPECTED_CALLS"):
                tables[name] = ast.literal_eval(node.value)
    names = {f"{layer}.{fn}" for layer, fns in tables["REPORTED"].items() for fn in fns}
    names.update(q for calls in tables["EXPECTED_CALLS"].values() for q in calls)
    return sorted(names)


BENCH_NAMES = _bench_names()


def test_bench_names_found():
    assert len(BENCH_NAMES) >= 20


@pytest.mark.parametrize("qualname", BENCH_NAMES)
def test_bench_name_is_public_function(qualname):
    layer, fn = qualname.split(".")
    module = importlib.import_module(f"ncdiff.{layer}")
    obj = getattr(module, fn, None)
    assert not fn.startswith("_")
    assert inspect.isfunction(obj), f"{qualname} is not a function"
    assert obj.__module__ == module.__name__, f"{qualname} is defined in {obj.__module__}"
