"""The pure-loss channel as a beam splitter, and the photon-number split.

The channel with transmissivity tau sends a coherent state |a> to
|sqrt(tau) a>.  It is a beam splitter whose second arm is thrown away: r
photons split as k into the kept arm and r - k into the leak with amplitude
B[r, k] = sqrt(C(r, k) tau^k (1 - tau)^(r - k)).  The dual (Heisenberg)
action on M (:func:`apply_dual`) measures M on the kept arm and nothing on
the leak; the network parent of :mod:`lossjm.parent` repeats the split over
n arms (:func:`_chain_step`).  The split only lowers photon number, so entry
(r, r') of the output depends only on entries (k, k') with k <= r and
k' <= r' of the input: truncation at any cutoff commutes with it and the
computed blocks are exact.
"""

from __future__ import annotations

import numpy as np

from .fock import _hermitian_lower, require_hermitian


def _check_tau(tau: float) -> float:
    if not 0.0 <= tau <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    return float(tau)


def _split_amplitudes(s: float, d: int) -> np.ndarray:
    """B[r, k] = sqrt(C(r, k) s^k (1 - s)^(r - k)), zero for k > r.

    The binomial probabilities come from Pascal's rule, so every entry stays
    in [0, 1] and nothing overflows at large d.
    """
    P = np.zeros((d, d))
    P[0, 0] = 1.0
    for r in range(1, d):
        P[r, 1:] = s * P[r - 1, :-1]
        P[r] += (1.0 - s) * P[r - 1]
    return np.sqrt(P)


def _chain_step(elements: np.ndarray, B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Contract one arm into R: shape (U, d, d) -> (outcomes * U, d, d), t-major."""
    o, d = elements.shape[0], elements.shape[1]
    U = R.shape[0]
    # Rs[u, q, r', k'] = B[r', k'] R[u, q, r' - k']; B is zero where k' > r'
    shift = np.maximum(np.subtract.outer(np.arange(d), np.arange(d)), 0)
    Rs = (R[:, :, shift] * B).reshape(U * d * d, d)
    out = np.zeros((o, U, d, d), dtype=complex)
    for k in range(d):
        # inner[t, u, q, r'] = sum_k' M_t[k, k'] Rs[u, q, r', k'], then q = r - k
        inner = (Rs @ elements[:, k, :].T).T.reshape(o, U, d, d)
        out[:, :, k:, :] += B[k:, k, None] * inner[:, :, : d - k, :]
    return out.reshape(o * U, d, d)


def apply_dual(tau: float, M: np.ndarray) -> np.ndarray:
    """Dual (Heisenberg) action on a Hermitian operator, or on each of a
    stack (o, d, d) of them in one contraction: the beam-splitter split with
    M on the kept arm and the identity on the leak arm.

    Unital, positive, and exact under truncation.
    """
    tau = _check_tau(tau)
    M = require_hermitian(M)
    stack = M.reshape((-1,) + M.shape[-2:])
    d = stack.shape[-1]
    out = _chain_step(stack, _split_amplitudes(tau, d), np.eye(d, dtype=complex)[None])
    return _hermitian_lower(out).reshape(M.shape)
