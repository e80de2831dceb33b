"""Fock-space primitives: truncated coherent states and the Hermiticity check
and rule.

All operators are dense complex matrices in the number basis |0>, ..., |d-1>.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12


def coherent_ket(mu: complex, d: int) -> np.ndarray:
    """Truncated coherent state |mu> with amplitudes e^{-|mu|^2/2} mu^m / sqrt(m!).

    The result is not renormalized, so its norm is <= 1 and approaches 1 as
    d grows; it is zero once e^{-|mu|^2/2} underflows.
    """
    if d < 1:
        raise ValueError("cutoff must be a positive integer")
    amps = np.empty(d, dtype=complex)
    a = abs(mu)
    # e^{-a^2/2} underflows to 0 past a = 38.61; a^2 overflows past 1.34e154
    amps[0] = math.exp(-a**2 / 2) if a < 40.0 else 0.0
    for m in range(1, d):
        amps[m] = amps[m - 1] * mu / math.sqrt(m)
    return amps


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of the stack M."""
    return np.conj(np.swapaxes(M, -1, -2))


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """M as a complex array, checked to be a Hermitian matrix or a stack
    (..., d, d) of them to within HERMITIAN_TOL in the max norm."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("expected a square matrix")
    res = float(np.abs(M - _ct(M)).max(initial=0.0))
    if res > HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian (residual {res:.3e} > {HERMITIAN_TOL:.1e})"
        )
    return M


def _hermitian_lower(M: np.ndarray) -> np.ndarray:
    """Each matrix of the stack M with its upper triangle the mirror of its
    lower one, which eigh reads, and a real diagonal: exactly Hermitian, for
    operators whose two triangles agree only to rounding."""
    r = np.arange(M.shape[-1])
    out = np.where(r[:, None] >= r, M, _ct(M))
    out.imag[..., r, r] = 0.0
    return out
