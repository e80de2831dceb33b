"""Fock-space primitives: truncated coherent states, the Hermiticity check
and rule, and the threshold ``TOL`` of every Hermiticity and parent check.

All operators are dense complex matrices in the number basis |0>, ..., |d-1>.
"""

from __future__ import annotations

import math

import numpy as np

# The threshold of "Hermitian" in the set check and the loss channel's input
# check, and of the three parent checks (the network, SDP and eta_star
# parents; see ``compat``).  It is not a setting: a looser value certifies
# parents that are not PSD.
TOL = 1e-8


def coherent_ket(mu: complex, d: int) -> np.ndarray:
    """Truncated coherent state |mu> with amplitudes e^{-|mu|^2/2} mu^m / sqrt(m!).

    The result is not renormalized, so its norm is <= 1 and approaches 1 as
    d grows; it is zero once e^{-|mu|^2/2} underflows, past |mu| = 38.6
    (a * a is inf past 1.34e154, and exp(-inf) is 0.0: nothing raises).
    """
    if d < 1:
        raise ValueError("cutoff must be a positive integer")
    amps = np.empty(d, dtype=complex)
    a = abs(mu)
    amps[0] = math.exp(-a * a / 2)
    for m in range(1, d):
        amps[m] = amps[m - 1] * mu / math.sqrt(m)
    return amps


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of the stack M."""
    return np.conj(np.swapaxes(M, -1, -2))


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """M as a complex array, checked to be a Hermitian matrix or a stack
    (..., d, d) of them to within TOL in the max norm."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("expected a square matrix")
    res = float(np.abs(M - _ct(M)).max(initial=0.0))
    if res > TOL:
        raise ValueError(f"matrix is not Hermitian (residual {res:.3e} > {TOL:.1e})")
    return M


def _hermitian_lower(M: np.ndarray) -> np.ndarray:
    """Each matrix of the stack M with its upper triangle the mirror of its
    lower one, which eigh reads, and a real diagonal: exactly Hermitian, for
    operators whose two triangles agree only to rounding."""
    r = np.arange(M.shape[-1])
    out = np.where(r[:, None] >= r, M, _ct(M))
    out.imag[..., r, r] = 0.0
    return out
