"""JSON encodings for operators, measurement sets, and parent POVMs.

Complex matrices serialize as row-major interleaved [re, im, re, im, ...]
with an explicit dimension, which round-trips bit-exactly through Python's
shortest-repr float formatting.
"""

from __future__ import annotations

import numpy as np

from .compat import TOL
from .measurements import MeasurementSet, ParentPovm, Povm, _psd_residual


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    rows, cols = M.shape
    data = np.empty(2 * rows * cols)
    data[0::2] = M.real.ravel()
    data[1::2] = M.imag.ravel()
    return {"rows": rows, "cols": cols, "data": data.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != 2 * rows * cols:
        raise ValueError("matrix payload length does not match its shape")
    return (data[0::2] + 1j * data[1::2]).reshape(rows, cols)


def povm_to_json(p: Povm) -> dict:
    return {"dim": p.dim, "elements": [matrix_to_json(E) for E in p.elements]}


def povm_from_json(obj: dict) -> Povm:
    """The POVM of a payload whose elements are Hermitian and PSD and sum to
    the identity, each to within ``compat.TOL``; else ValueError."""
    d = int(obj["dim"])
    p = Povm(tuple(matrix_from_json(e) for e in obj["elements"]))
    if p.dim != d:
        raise ValueError(f"POVM elements must be {d} x {d} matrices")
    E = np.stack(p.elements)
    if not _psd_residual(E) <= TOL:  # the gap to Hermitian counts; NaN fails too
        raise ValueError("POVM elements must be Hermitian and positive semidefinite")
    if not np.abs(E.sum(axis=0) - np.eye(d)).max() <= TOL:
        raise ValueError("POVM elements must sum to the identity")
    return p


def measurement_set_to_json(mset: MeasurementSet) -> dict:
    return {"dim": mset.dim, "povms": [povm_to_json(p) for p in mset]}


def measurement_set_from_json(obj: dict) -> MeasurementSet:
    d = int(obj["dim"])
    mset = MeasurementSet(tuple(povm_from_json(p) for p in obj["povms"]))
    if mset.dim != d:
        raise ValueError(f"set POVMs must have dimension {d}")
    return mset


def parent_to_json(parent: ParentPovm) -> dict:
    tuples = np.ndindex(*parent.outcome_counts)
    elements = {",".join(map(str, t)): matrix_to_json(B) for t, B in zip(tuples, parent.blocks)}
    return {
        "dim": parent.dim,
        "outcome_counts": list(parent.outcome_counts),
        "elements": elements,
    }


def parent_from_json(obj: dict) -> ParentPovm:
    counts = tuple(int(o) for o in obj["outcome_counts"])
    d = int(obj["dim"])
    keys = [",".join(map(str, t)) for t in np.ndindex(*counts)]
    if obj["elements"].keys() != set(keys):
        raise ValueError("parent elements must be keyed by exactly the outcome tuples")
    blocks = [matrix_from_json(obj["elements"][key]) for key in keys]
    if any(B.shape != (d, d) for B in blocks):
        raise ValueError(f"parent elements must be {d} x {d} matrices")
    return ParentPovm(counts, np.array(blocks))
