"""Fock-space primitives: coherent states, beam-splitter and linear-optical
network unitaries in the photon-number basis, unitary completion, and
positivity checks.

All operators are dense complex matrices in the number basis |0>, ..., |d-1>.
Multimode spaces use one cutoff d per mode and index basis states
lexicographically by photon-number tuples, mode 1 being the most significant
axis (row-major).
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10


def coherent_ket(mu: complex, d: int) -> np.ndarray:
    """Truncated coherent state |mu> with amplitudes e^{-|mu|^2/2} mu^m / sqrt(m!).

    The result is not renormalized, so its norm is <= 1 and approaches 1 as
    d grows.
    """
    if d < 1:
        raise ValueError("cutoff must be a positive integer")
    amps = np.empty(d, dtype=complex)
    amps[0] = math.exp(-abs(mu) ** 2 / 2)
    for m in range(1, d):
        amps[m] = amps[m - 1] * mu / math.sqrt(m)
    return amps


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hermiticity_residual(M: np.ndarray) -> float:
    """Max-norm distance between M and its conjugate transpose."""
    M = np.asarray(M)
    return float(np.abs(M - M.conj().T).max())


def require_hermitian(M: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    res = hermiticity_residual(M)
    if res > tol:
        raise ValueError(f"matrix is not Hermitian (residual {res:.3e} > {tol:.1e})")
    return M


def psd_residual(M: np.ndarray, hermitian_tol: float = HERMITIAN_TOL) -> float:
    """max(0, -lambda_min(M)) for Hermitian M; zero means positive semidefinite."""
    M = require_hermitian(M, hermitian_tol)
    lam_min = float(np.linalg.eigvalsh(M)[0])
    return max(0.0, -lam_min)


def bs_transfer(eta: float) -> np.ndarray:
    """All-real beam-splitter transfer matrix with transmissivity eta.

    Convention: positive transmission amplitude, [[t, r], [r, -t]] with
    t = sqrt(eta), r = sqrt(1 - eta).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    return np.array([[t, r], [r, -t]])


def _fact(n: int) -> float:
    return float(math.factorial(n))


def bs_unitary(eta: float, d: int) -> np.ndarray:
    """Two-mode beam-splitter unitary on the d x d photon-number grid.

    Built from the closed-form binomial expansion of the transformed creation
    operators, independently of :func:`lon_unitary`.  The matrix is block
    diagonal in total photon number.  Sectors with more than d-1 total photons
    do not fit the per-mode grid; they are filled with the identity so the
    matrix stays exactly unitary.  Only the complete sectors (total <= d-1)
    represent the physical beam splitter, which is all consumers of this
    module ever touch (ancilla ports start in vacuum).

    eta = 1 returns the identity: a lossless channel performs no interaction,
    and the all-real convention would otherwise leave a spurious sign on the
    idle mode.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    dim = d * d
    if eta == 1.0:
        return np.eye(dim, dtype=complex)
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    U = np.zeros((dim, dim), dtype=complex)
    for n1 in range(d):
        for n2 in range(d):
            col = n1 * d + n2
            total = n1 + n2
            if total > d - 1:
                U[col, col] = 1.0
                continue
            for m1 in range(total + 1):
                m2 = total - m1
                acc = 0.0
                for j in range(max(0, m1 - n1), min(n2, m1) + 1):
                    acc += (
                        math.comb(n1, m1 - j)
                        * math.comb(n2, j)
                        * t ** (m1 - j)
                        * r ** (n1 - m1 + 2 * j)
                        * (-t) ** (n2 - j)
                    )
                U[m1 * d + m2, col] = acc * math.sqrt(
                    _fact(m1) * _fact(m2) / (_fact(n1) * _fact(n2))
                )
    return U


def lon_unitary(transfer: np.ndarray, d: int, unitary_tol: float = 1e-10) -> np.ndarray:
    """Fock-basis unitary of a passive m-mode network with the given transfer matrix.

    On coherent states the network acts as |a_1,...,a_m> -> |b_1,...,b_m> with
    b_k = sum_j transfer[j, k] a_j.  Columns are built by the photon-adding
    recursion column(n) = b_j^dag column(n - e_j) / sqrt(n_j), which is exact
    on every complete total-photon-number sector (total <= d-1).  Incomplete
    sectors are filled with the identity, as in :func:`bs_unitary`.
    """
    transfer = np.asarray(transfer, dtype=complex)
    if transfer.ndim != 2 or transfer.shape[0] != transfer.shape[1]:
        raise ValueError("transfer matrix must be square")
    m = transfer.shape[0]
    resid = np.abs(transfer @ transfer.conj().T - np.eye(m)).max()
    if resid > unitary_tol:
        raise ValueError(f"transfer matrix is not unitary (residual {resid:.3e})")

    dim = d**m
    shape = (d,) * m
    strides = [d ** (m - 1 - k) for k in range(m)]
    root = np.sqrt(np.arange(1, d))
    U = np.zeros((dim, dim), dtype=complex)
    for flat in range(dim):
        n = np.unravel_index(flat, shape)
        total = int(sum(n))
        if total == 0:
            U[0, 0] = 1.0
        elif total > d - 1:
            U[flat, flat] = 1.0
        else:
            j = next(i for i, nj in enumerate(n) if nj > 0)
            col = U[:, flat - strides[j]].reshape(shape)
            new = np.zeros(shape, dtype=complex)
            for k in range(m):
                src = [slice(None)] * m
                dst = [slice(None)] * m
                src[k] = slice(0, d - 1)
                dst[k] = slice(1, d)
                bshape = [1] * m
                bshape[k] = d - 1
                new[tuple(dst)] += transfer[j, k] * root.reshape(bshape) * col[tuple(src)]
            U[:, flat] = new.ravel() / math.sqrt(n[j])
    return U


def complete_unitary(first_row: np.ndarray, deficit_tol: float = 1e-12) -> np.ndarray:
    """Complete a row vector with squared norm <= 1 to a unitary matrix.

    If the squared norm falls short of 1 by more than ``deficit_tol`` an extra
    column is appended to absorb the deficit, so the output is (n+1) x (n+1).
    The first n entries of the first row equal the input bit for bit.  The
    remaining rows come from Gram-Schmidt over the standard basis, run twice
    for orthogonality at machine precision.

    Raises ValueError when the squared norm exceeds 1: such a row cannot be
    part of any transfer matrix.
    """
    row = np.asarray(first_row, dtype=complex).ravel()
    if row.size == 0:
        raise ValueError("first row must be non-empty")
    nsq = float(np.sum(np.abs(row) ** 2))
    if nsq > 1.0 + 1e-12:
        raise ValueError(
            f"squared norm {nsq:.12f} exceeds 1; no network has such a first row"
        )
    deficit = 1.0 - nsq
    if deficit > deficit_tol:
        u1 = np.concatenate([row, [math.sqrt(deficit)]])
    else:
        u1 = row.copy()
    m = u1.size

    rows = [u1]
    for i in range(m):
        if len(rows) == m:
            break
        w = np.zeros(m, dtype=complex)
        w[i] = 1.0
        for _ in range(2):
            for r in rows:
                w = w - np.vdot(r, w) * r
        norm = float(np.linalg.norm(w))
        if norm > 1e-8:
            rows.append(w / norm)
    if len(rows) != m:
        raise RuntimeError("Gram-Schmidt completion failed")  # unreachable
    U = np.array(rows)
    U[0, : row.size] = row
    return U


def phase_rotation(phi: float, d: int) -> np.ndarray:
    """Number-basis phase unitary diag(1, e^{i phi}, e^{2 i phi}, ...)."""
    return np.diag(np.exp(1j * phi * np.arange(d)))


def total_photon_sectors(d: int, modes: int):
    """Yield (total, flat indices) for each total-photon-number sector."""
    grid = np.indices((d,) * modes).reshape(modes, -1).sum(axis=0)
    for total in range(modes * (d - 1) + 1):
        yield total, np.where(grid == total)[0]
