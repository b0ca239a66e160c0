"""JSON documents and CSV point clouds for the command-line surface.

Matrices travel as {"n": n, "entries": [[[re, im], ...], ...]}; frames as
{"n": n, "columns": [[[re, im], ...], ...]} with one list per spanning
vector; algebras as a tagged document.  A malformed document raises
ValueError; the library call that takes a decoded matrix validates it.
Floats are emitted with repr, which round-trips exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import (
    SubalgebraBasis,
    build_block,
    build_diagonal,
    build_pauli_diagonal,
    orthonormalize,
)
from .hermitian import as_hermitian
from .minimality import Certificate, MinimalityReport
from .moment import Subspace


def matrix_to_doc(m) -> dict[str, Any]:
    arr = np.ascontiguousarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return {"n": arr.shape[0], "entries": arr.view(float).reshape(*arr.shape, 2).tolist()}


def _integer(value: Any, what: str) -> int:
    """An integer, an integral float or an integer string (the command
    line's ``pauli:3``) as an int; a bool, a fraction or anything else
    raises ValueError naming ``what``."""
    if not isinstance(value, bool):
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or number == value:
                return number
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _require_size(n: int, n_hint: int | None, what: str) -> None:
    """Refuse an algebra of size ``n`` for an input of size ``n_hint``
    before anything is built."""
    if n_hint is not None and n != n_hint:
        raise ValueError(f"{what} size {n} does not match the input size {n_hint}")


def _pairs(values: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Nested [re, im] number pairs as a complex array of ``shape``: the
    complex view of one float array, so signed zeros survive.  Null or NaN
    entries, objects and other shapes raise ValueError naming ``what``."""
    try:
        arr = np.ascontiguousarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (*shape, 2) or np.isnan(arr).any():
        raise ValueError(f"{what} must be {' x '.join(map(str, shape))} [re, im] number pairs")
    return arr.view(complex)[..., 0]


def matrix_from_doc(doc: dict[str, Any]) -> np.ndarray:
    """The matrix of a document; the library call that takes it validates it."""
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("matrix document needs keys 'n' and 'entries'")
    n = _integer(doc["n"], "matrix document 'n'")
    return _pairs(doc["entries"], (n, n), "matrix document entries")


# No package code calls this; it stays while perfbench/spans.py TRACED names it.
def hermitian_from_doc(doc: dict[str, Any]) -> np.ndarray:
    return as_hermitian(matrix_from_doc(doc))


def frame_to_doc(s: Subspace) -> dict[str, Any]:
    cols = np.ascontiguousarray(s.frame.T, dtype=complex)
    return {"n": s.n, "columns": cols.view(float).reshape(s.r, s.n, 2).tolist()}


def frame_from_doc(doc: dict[str, Any]) -> Subspace:
    """Read spanning columns and orthonormalize them into a subspace."""
    if not isinstance(doc, dict) or "n" not in doc or "columns" not in doc:
        raise ValueError("frame document needs keys 'n' and 'columns'")
    n = _integer(doc["n"], "frame document 'n'")
    cols = doc["columns"]
    if not isinstance(cols, list) or not cols:
        raise ValueError("frame document needs a nonempty list of 'columns'")
    return Subspace.from_span(_pairs(cols, (len(cols), n), "frame document columns").T)


def algebra_to_doc(basis: SubalgebraBasis) -> dict[str, Any]:
    return {
        "kind": "custom",
        "n": basis.n,
        "elements": [matrix_to_doc(e) for e in basis.elements],
    }


def algebra_from_doc(doc: dict[str, Any], n_hint: int | None = None) -> SubalgebraBasis:
    """The basis an algebra document names, the one dispatch onto the
    ``build_*`` functions.  ``n_hint``, the size of the input the basis is
    for, fills a missing diag or block 'n', and a document whose size
    differs from it is refused before its basis is built."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("algebra document needs a 'kind'")
    kind = doc["kind"]
    if kind == "diag":
        n = _integer(doc.get("n", n_hint), "diag algebra 'n'")
        _require_size(n, n_hint, "diag algebra")
        return build_diagonal(n)
    if kind == "pauli-diag":
        q = _integer(doc.get("q"), "pauli-diag algebra 'q'")
        # n = 2**q, compared through the log2 of n_hint so q never forms 2**q
        if n_hint is not None and (n_hint.bit_length() - 1 != q or n_hint != 1 << q):
            raise ValueError(f"pauli-diag algebra on q = {q} qubits (size 2**{q}) "
                             f"does not match the input size {n_hint}")
        return build_pauli_diagonal(q)
    if kind == "block":
        try:
            pattern = [(_integer(size, "block size"), str(kind_)) for size, kind_ in doc["pattern"]]
        except (KeyError, TypeError, ValueError):
            raise ValueError("block algebra 'pattern' must be [size, kind] pairs") from None
        n = doc.get("n", n_hint)
        if n is not None:
            n = _integer(n, "block algebra 'n'")
            _require_size(n, n_hint, "block algebra")
        return build_block(pattern, n=n)
    if kind == "custom":
        elems = doc.get("elements")
        if not isinstance(elems, list):
            raise ValueError("custom algebra document needs a list of 'elements'")
        mats = [matrix_from_doc(e) for e in elems]
        for m in mats:
            _require_size(m.shape[0], n_hint, "custom algebra element")
        return orthonormalize(mats)
    raise ValueError(f"unknown algebra kind {kind!r}")


def certificate_to_doc(cert: Certificate) -> dict[str, Any]:
    return {
        "x": matrix_to_doc(cert.x),
        "residual_eq": float(cert.residual_eq),
        "residual_perp": float(cert.residual_perp),
    }


def report_to_doc(
    report: MinimalityReport, timings: dict[str, float] | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "verdict": report.verdict,
        "reason": report.reason,
        "norm": float(report.norm),
        "distance": None if report.distance is None else float(report.distance),
        "gap": None if report.gap is None else float(report.gap),
        "certificate": None
        if report.certificate is None
        else certificate_to_doc(report.certificate),
    }
    if timings is not None:
        doc["timings"] = timings
    return doc


def dumps(doc: dict[str, Any]) -> str:
    """Serialize with stable key order and lossless float repr."""
    return json.dumps(doc, indent=2, sort_keys=True)


def points_to_csv(points: np.ndarray) -> str:
    """CSV with header B_1..B_t and one sampled moment point per row."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a (count, t) array of points")
    header = ",".join(f"B_{k + 1}" for k in range(pts.shape[1]))
    lines = [header]
    for row in pts:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
