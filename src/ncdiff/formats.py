"""JSON codecs for algebra definitions.

Algebra file schema: {"m": int, "label": str, "basis": [Matrix, ...],
"alpha": [Column, ...] (optional)} where Matrix = {"re": [[...]],
"im": [[...]]} row-major and Column = {"re": [...], "im": [...]} of length
n^2 in the row-major pair order (a, b) -> n*a + b.
"""

import json

import numpy as np

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "load_algebra",
    "save_algebra",
]


def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def matrix_from_json(obj):
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    return re + 1j * im


def load_algebra(source):
    """Read an algebra definition; returns (m, label, basis, alpha).

    ``source`` is a file path, or the file's bytes (UTF-8 JSON).
    """
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    data = json.loads(source.decode("utf-8"))
    m = data["m"]
    if type(m) is not int:  # not isinstance: JSON true would pass as 1
        raise ValueError(f"m must be a JSON integer, got {m!r}")
    label = data.get("label", "")
    basis = [matrix_from_json(b) for b in data["basis"]]
    alpha = None
    if data.get("alpha") is not None:
        cols = [matrix_from_json(c) for c in data["alpha"]]
        alpha = np.column_stack(cols)
    return m, label, basis, alpha


def save_algebra(path, m, label, basis, alpha=None):
    data = {
        "m": int(m),
        "label": label,
        "basis": [matrix_to_json(b) for b in basis],
    }
    if alpha is not None:
        alpha = np.asarray(alpha, dtype=complex)
        data["alpha"] = [matrix_to_json(alpha[:, r]) for r in range(alpha.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")

