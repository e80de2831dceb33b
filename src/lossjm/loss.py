"""The pure-loss channel and its dual action on measurement operators.

The channel with transmissivity tau sends a coherent state |a> to
|sqrt(tau) a>.  Its dual (Heisenberg) action on measurement operators is a
Kraus sum over photon-loss operators (:func:`apply_dual`).  Because every
loss operator lowers photon number, entry (n, n') of the dual output depends
only on entries (n-k, n'-k) of the input, so truncation at any cutoff
commutes with the dual channel and the computed blocks are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import require_hermitian


def _check_tau(tau: float) -> float:
    if not 0.0 <= tau <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    return float(tau)


def kraus_ops(tau: float, d: int) -> list[np.ndarray]:
    """Photon-loss Kraus operators A_k on a d-dimensional space.

    <m|A_k|n> = delta_{m,n-k} sqrt(C(n,k)) tau^{(n-k)/2} (1-tau)^{k/2}.
    Operators that vanish identically (k >= 1 at tau = 1) are dropped, so a
    lossless channel is represented by the identity alone.
    """
    tau = _check_tau(tau)
    if d < 1:
        raise ValueError("dimension must be positive")
    ops = []
    for k in range(d):
        A = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            A[n - k, n] = (
                math.sqrt(math.comb(n, k)) * tau ** ((n - k) / 2) * (1.0 - tau) ** (k / 2)
            )
        if np.any(A):
            ops.append(A)
    return ops


def apply_dual(tau: float, M: np.ndarray) -> np.ndarray:
    """Dual (Heisenberg) action on a Hermitian operator: sum_k A_k^dag M A_k.

    Unital, positive, and exact under truncation.
    """
    M = require_hermitian(M)
    out = np.zeros_like(M)
    for A in kraus_ops(tau, M.shape[0]):
        out += A.conj().T @ M @ A
    return out
