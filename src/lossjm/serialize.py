"""JSON encodings for operators, measurement sets, and parent POVMs.

Complex matrices serialize as row-major interleaved [re, im, re, im, ...]
with an explicit dimension, which round-trips bit-exactly through Python's
shortest-repr float formatting.
"""

from __future__ import annotations

import numpy as np

from .measurements import MeasurementSet, ParentPovm, _integer, _stack


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.ascontiguousarray(M, dtype=complex)
    rows, cols = M.shape
    return {"rows": rows, "cols": cols, "data": M.view(float).ravel().tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _integer("rows", obj["rows"]), _integer("cols", obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.shape != (2 * rows * cols,):
        raise ValueError("matrix payload length does not match its shape")
    return data.view(complex).reshape(rows, cols)  # keeps the sign of a zero imaginary part


def _povm(obj: dict) -> np.ndarray:
    """The element stack of a POVM payload, checked for shape against its
    ``dim`` only (``MeasurementSet`` checks the rest)."""
    d = _integer("dim", obj["dim"])
    p = _stack([matrix_from_json(e) for e in obj["elements"]])
    if p.shape[1] != d:
        raise ValueError(f"POVM elements must be {d} x {d} matrices")
    return p


def measurement_set_to_json(mset: MeasurementSet) -> dict:
    povms = [{"dim": mset.dim, "elements": [matrix_to_json(E) for E in p]} for p in mset]
    return {"dim": mset.dim, "povms": povms}


def measurement_set_from_json(obj: dict) -> MeasurementSet:
    d = _integer("dim", obj["dim"])
    mset = MeasurementSet(tuple(_povm(p) for p in obj["povms"]))
    if mset.dim != d:
        raise ValueError(f"set POVMs must have dimension {d}")
    return mset


def parent_to_json(parent: ParentPovm) -> dict:
    """The blocks in ``ParentPovm`` tuple order: first measurement most significant."""
    return {
        "dim": parent.dim,
        "outcome_counts": list(parent.outcome_counts),
        "blocks": [matrix_to_json(B) for B in parent.blocks],
    }


def parent_from_json(obj: dict) -> ParentPovm:
    d = _integer("dim", obj["dim"])
    blocks = [matrix_from_json(B) for B in obj["blocks"]]
    if any(B.shape != (d, d) for B in blocks):
        raise ValueError(f"parent blocks must be {d} x {d} matrices")
    return ParentPovm(tuple(obj["outcome_counts"]), np.array(blocks))
