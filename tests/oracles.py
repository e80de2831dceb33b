"""Reference implementations that the tests compare the library against.

None of these is on a verdict path, so they live beside the tests rather than
in the package:

* Fock-space unitaries of beam splitters and linear-optical networks (LON),
  unitary completion of a row vector, the number-basis phase rotation, and the
  total-photon-number sectors of a multimode grid;
* the photon-loss Kraus operators (the reference for the beam-splitter split
  of ``lossjm.loss.apply_dual``), the Schroedinger action of the pure-loss
  channel, the Husimi function, and the closed-form Gaussian route to the
  dual-loss image of a coherent projector;
* the direct alternating sum for the optimal unambiguous-discrimination
  probability, the root-distance product prod |e^{2 pi i k/n} - 1|^2, and
  the earlier loops of the discrimination formulas: the series pass from
  m = 0 rescaled by e^-690 and the logarithm form of the small-r
  probabilities;
* the displacements mu_k = r exp(2 pi i k / count) of the symmetric family,
  the +r / -r displaced on-off pair after loss built one displacement at a
  time, and the small-displacement check of the qubit pair criterion;
* the positivity residual of an operator, the validity check of a POVM
  (positive elements summing to the identity), and the Pauli matrices with
  the Bloch parameters of a qubit effect as their traces and the effect
  rebuilt from them;
* random Hermitian operators and density matrices as test inputs;
* the block of a parent POVM at one outcome tuple, the marginal map, its
  adjoint, the Schur matrix of the robustness solve and the closed-form
  projection onto the parents of given marginals by sums over the axes of
  the outcome-tuple grid, and the average of parent blocks over the
  dihedral group of a rotation-covariant set.

Operators follow the conventions of ``lossjm.fock``: dense complex matrices
in the number basis, multimode states indexed row-major by photon-number
tuples.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from lossjm.fock import coherent_ket, require_hermitian
from lossjm.loss import _check_tau
from lossjm.measurements import (
    FamilyParams,
    ParentPovm,
    Povm,
    displaced_onoff,
    lossy_povm,
)
from lossjm.qubit import leading_order_prediction, lossy_displaced_pair, pair_test
from lossjm.usd import _check_n

IMAG_RESIDUE_TOL = 1e-9
PSD_TOL = 1e-10

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# -- Fock-space unitaries ---------------------------------------------------


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


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


# -- the loss channel: Kraus operators, Schroedinger action, Gaussian route --


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


def apply_channel(tau: float, rho: np.ndarray) -> np.ndarray:
    """Schroedinger action: sum_k A_k rho A_k^dag.

    Unlike the dual, the primal action does not commute with truncation
    (output entries draw on input entries above the cutoff), so results carry
    the usual truncation error of the input state.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for A in kraus_ops(tau, rho.shape[0]):
        out += A @ rho @ A.conj().T
    return out


class GaussianQ(NamedTuple):
    """Parameters of a Gaussian Husimi function (1/pi) exp(c0 + c1 a + c2 a* + c3 |a|^2)."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex


def dual_coherent_q(tau: float, mu: complex) -> GaussianQ:
    """Husimi parameters of the dual-loss image of the projector |mu><mu|.

    Q(a) = (1/pi) exp(-tau |a - mu/sqrt(tau)|^2), expanded into the canonical
    exponent c0 + c1 a + c2 a* + c3 |a|^2.
    """
    tau = _check_tau(tau)
    st = math.sqrt(tau)
    return GaussianQ(-abs(mu) ** 2, st * np.conj(mu), st * mu, -tau)


def fock_from_q(q: GaussianQ, d: int) -> np.ndarray:
    """Number-basis matrix of an operator with Gaussian Husimi function.

    Entry (k, j) is pi/sqrt(k! j!) times the coefficient of a^j (a*)^k in the
    two-variable Taylor expansion of e^{|a|^2} Q(a), where a and a* count as
    independent variables.  With s = 1 + c3 the expansion reduces to the exact
    finite sum

        M[k, j] = e^{c0} sqrt(j! k!) sum_t c1^{j-t} c2^{k-t} s^t
                                            / ((j-t)! (k-t)! t!).

    Requires |1 + c3| <= 1; beyond that the coefficients grow with the cutoff
    and the series route is invalid.
    """
    s = 1.0 + complex(q.c3)
    if abs(s) > 1.0 + 1e-12:
        raise ValueError(
            f"|1 + c3| = {abs(s):.6f} > 1: coefficient growth diverges with the cutoff"
        )
    pref = np.exp(complex(q.c0))
    M = np.empty((d, d), dtype=complex)
    for k in range(d):
        for j in range(d):
            acc = 0.0 + 0.0j
            for t in range(min(j, k) + 1):
                acc += (
                    q.c1 ** (j - t)
                    * q.c2 ** (k - t)
                    * s**t
                    / (math.factorial(j - t) * math.factorial(k - t) * math.factorial(t))
                )
            M[k, j] = pref * math.sqrt(math.factorial(j) * math.factorial(k)) * acc
    return M


def dual_coherent_projector(tau: float, mu: complex, d: int) -> np.ndarray:
    """Dual-loss image of |mu><mu| via the Gaussian route, truncated to d.

    Agrees with apply_dual(tau, P) for the truncated projector P entrywise;
    at tau = 1 it reduces to the truncated coherent projector itself.
    """
    return fock_from_q(dual_coherent_q(tau, mu), d)


def q_function(M: np.ndarray, alpha: complex) -> float:
    """Husimi function (1/pi) <alpha|M|alpha> of a Hermitian operator.

    Evaluated with the truncated coherent ket at M's own cutoff, so values
    are meaningful while |alpha|^2 stays well below the cutoff.
    """
    M = require_hermitian(M)
    ket = coherent_ket(alpha, M.shape[0])
    val = complex(np.vdot(ket, M @ ket)) / math.pi
    if abs(val.imag) > 1e-12:
        raise ValueError(f"Husimi value has imaginary residue {val.imag:.3e}")
    return val.real


# -- unambiguous discrimination ----------------------------------------------


def p_d_direct(n: int, r: float) -> float:
    """Optimal unambiguous-discrimination probability by the direct sum.

    Evaluates min_t sum_j e^{2 pi i j t / n} exp(r^2 (e^{2 pi i j / n} - 1))
    as written, with compensated summation, and asserts that the imaginary
    parts cancel.  Relative accuracy is lost below r ~ 1e-3 once n >= 4,
    where ``lossjm.usd.p_d`` stays exact.  Clamped to [0, 1] like ``p_d``.
    """
    n = _check_n(n)
    if r < 0:
        raise ValueError("amplitude must be non-negative")
    vals = [_p_d_direct_term(n, r, t) for t in range(1, n + 1)]
    return min(1.0, max(0.0, min(vals)))


def _p_d_direct_term(n: int, r: float, t: int) -> float:
    re_parts, im_parts = [], []
    for j in range(1, n + 1):
        z = np.exp(2j * math.pi * j * t / n) * np.exp(
            r * r * (np.exp(2j * math.pi * j / n) - 1.0)
        )
        re_parts.append(z.real)
        im_parts.append(z.imag)
    imag = math.fsum(im_parts)
    if abs(imag) > IMAG_RESIDUE_TOL:
        raise ArithmeticError(
            f"imaginary residue {imag:.3e} exceeds {IMAG_RESIDUE_TOL:.1e}"
        )
    return math.fsum(re_parts)


def root_distance_product(n: int) -> float:
    """prod_{k=1}^{n-1} |e^{2 pi i k / n} - 1|^2, equal to n^2."""
    n = _check_n(n)
    return float(
        np.prod([2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(1, n)])
    )


def threshold_loop(tau: float) -> int:
    """Smallest n >= 2 with n! > tau^{1-n}, by the exact integer test
    n! p^{n-1} > q^{n-1} (tau = p/q) at n = 2, 3, ... in turn, each side
    carried from one n to the next rather than rebuilt."""
    p, q = tau.as_integer_ratio()
    n, lhs, rhs = 2, 2 * p, q
    while not lhs > rhs:
        n += 1
        lhs, rhs = lhs * n * p, rhs * q
    return n


# p_d_loop rescales its series by e^-690 (~3e-300): an integer exponent keeps
# the scale exact when it is carried back, to one rounding of the factor per rescale
_SHRINK_EXP = 690
_SHRINK = math.exp(-_SHRINK_EXP)


def p_d_loop(n: int, r: float) -> float:
    """The series pass of ``lossjm.usd.p_d`` as it was before it started at
    the largest term: from m = 0, rescaled by e^-690 whenever the term passes
    1e300, with the stop floor recomputed each step, and no early return: all
    n class sums are allocated and filled up to the step cap m = 4000 + 2 r^2,
    also when n is past the cap and some class gets no term."""
    r2, sums = r * r, [0.0] * n
    term, m, scaled = 1.0, 0, 0
    while m <= 4000 + 2 * r2 and (m < n or term >= 1e-40 * max(min(sums), 1e-300)):
        sums[m % n] += term
        m += 1
        term *= r2 / m
        if term > 1e300:
            term, sums, scaled = term * _SHRINK, [x * _SHRINK for x in sums], scaled + 1
    return min(1.0, max(0.0, n * math.exp(scaled * _SHRINK_EXP - r2) * min(sums)))


def small_r_log_form(n: int, r: float, log_denominator: float) -> float:
    """n^2 r^{2(n-1)} / e^log_denominator through logarithms, as the small-r
    forms of ``lossjm.usd`` take it when a float factor is out of range: 0.0
    at r = 0, inf past the float range."""
    if r == 0.0:
        return 0.0
    try:
        return math.exp(2.0 * math.log(n) + 2 * (n - 1) * math.log(r) - log_denominator)
    except OverflowError:
        return math.inf


# -- displaced families and the qubit pair criterion ------------------------------


def displacements(params: FamilyParams) -> list[complex]:
    """The displacements mu_k = r exp(2 pi i k / count) of the family's
    measurements, k = 0, ..., count - 1."""
    return [params.r * np.exp(2j * math.pi * k / params.count) for k in range(params.count)]


def displaced_pair_reference(r: float, tau: float) -> tuple[Povm, Povm]:
    """The mu = +r / -r displaced on-off pair after loss on the qubit block,
    each measurement sent through the dual loss channel on its own."""
    return tuple(lossy_povm(displaced_onoff(mu, 2), tau) for mu in (r, -r))


def leading_order_check(r: float, tau: float) -> tuple[float, float]:
    """(evaluated Test, :func:`lossjm.qubit.leading_order_prediction`) for the
    lossy displaced pair.

    The remainder is O(r^4): halving r shrinks the deviation roughly 4x,
    which the tests verify by Richardson-style scaling.
    """
    a, b = lossy_displaced_pair(r, tau)
    report = pair_test(a, b)
    return report.test_value, leading_order_prediction(r, tau)


# -- validity checks -----------------------------------------------------------


def psd_residual(M: np.ndarray) -> float:
    """max(0, -lambda_min(M)) for Hermitian M; zero means positive semidefinite."""
    M = require_hermitian(M)
    lam_min = float(np.linalg.eigvalsh(M)[0])
    return max(0.0, -lam_min)


def validation_residuals(povm: Povm) -> tuple[float, float]:
    """(worst PSD residual, max-norm distance of the element sum from I)."""
    psd = max(psd_residual(E) for E in povm.elements)
    total = sum(povm.elements)
    return psd, float(np.abs(total - np.eye(povm.dim)).max())


def validate(povm: Povm) -> Povm:
    """Raise ValueError unless both residuals are at most PSD_TOL."""
    psd, ssum = validation_residuals(povm)
    if psd > PSD_TOL:
        raise ValueError(f"PSD residual {psd:.3e} exceeds {PSD_TOL:.1e}")
    if ssum > PSD_TOL:
        raise ValueError(f"element sum deviates from identity by {ssum:.3e}")
    return povm


def bloch_params(A: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """(gamma, m) of a qubit effect A = [(1 + gamma) I + m . sigma] / 2 from its
    Pauli traces, gamma = tr A - 1 and m_i = tr(A sigma_i), Pauli order (x, y, z)."""
    return float(np.trace(A).real) - 1.0, tuple(float(np.trace(A @ s).real) for s in PAULI)


def bloch_reconstruct(gamma: float, m) -> np.ndarray:
    """The effect A = [(1 + gamma) I + m . sigma] / 2 of the Bloch parameters."""
    A = (1.0 + gamma) * np.eye(2, dtype=complex)
    for mi, s in zip(m, PAULI):
        A = A + mi * s
    return A / 2.0


# -- random test inputs ---------------------------------------------------------


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (A + A.conj().T) / 2


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


# -- robustness solve -------------------------------------------------------------


def element(parent: ParentPovm, outcome_tuple) -> np.ndarray:
    """The block of ``parent`` at one outcome tuple (a_1, ..., a_n)."""
    return parent.blocks[np.ravel_multi_index(tuple(outcome_tuple), parent.outcome_counts)]


def _other_axes(n: int, *kept: int) -> tuple:
    return tuple(i for i in range(n) if i not in kept)


def marginals_reference(outs: tuple, G: np.ndarray) -> np.ndarray:
    """Marginal rows of parent blocks G (T, d, d), measurement by measurement,
    each the sum of the tuple grid over every other measurement's axis."""
    n = len(outs)
    G = G.reshape(outs + G.shape[-2:])
    return np.concatenate([G.sum(axis=_other_axes(n, j)) for j in range(n)])


def spread_reference(outs: tuple, Y: np.ndarray) -> np.ndarray:
    """Adjoint of the marginal map: the block of tuple t is sum_j Y[row (j, t_j)],
    each measurement's rows broadcast along its own axis of the tuple grid."""
    n, off, d = len(outs), np.cumsum((0,) + tuple(outs)), Y.shape[-1]
    S = np.zeros(tuple(outs) + (d, d), dtype=complex)
    for j in range(n):
        shape = [1] * n
        shape[j] = outs[j]
        S = S + Y[off[j] : off[j + 1]].reshape(shape + [d, d])
    return S.reshape(-1, d, d)


def schur_reference(outs: tuple, X: np.ndarray, Zinv: np.ndarray, directions) -> np.ndarray:
    """Schur matrix of the robustness solve over dual directions Y_i (full
    row stacks), without the eta term: sum over every tuple t of
    Re tr(S_i(t) X_t S_k(t) Zinv_t), S_i = ``spread_reference(outs, Y_i)``."""
    S = np.stack([spread_reference(outs, Y) for Y in directions])
    P = X[None] @ S @ Zinv[None]
    return np.einsum("itab,ktba->ik", S, P).real


def project_reference(outs: tuple, G: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Orthogonal projection of parent blocks G (T, d, d) onto the parents
    with marginal rows ``targets``, in closed form over the full tuple grid.

    The normal equations of the marginal map couple only through the
    per-measurement deficit sums, which all equal the total-sum deficit for
    targets whose rows sum to the identity per measurement; that collapses
    the correction to closed form.
    """
    n, T, d = len(outs), math.prod(outs), G.shape[-1]
    shift = ((n - 1) / (n * T)) * (G.sum(axis=0) - np.eye(d))
    weight = np.repeat(outs, outs)[:, None, None] / T
    gap = marginals_reference(outs, G) - targets
    return G - spread_reference(outs, weight * gap - shift)


def dihedral_average(outs: tuple, X: np.ndarray) -> np.ndarray:
    """Average of blocks X (T, d, d) over the dihedral group of the n
    measurements: the shift by s moves the outcome of measurement j to j + s
    and maps a block to R^s X R^-s, R = exp(2 pi i N / n); the reversal moves
    it to -j and maps a block to conj(X)."""
    n, d = len(outs), X.shape[-1]
    tuples = list(itertools.product(*[range(o) for o in outs]))
    index = {t: i for i, t in enumerate(tuples)}
    out = np.zeros_like(X, dtype=complex)
    for s in range(n):
        R = phase_rotation(2 * math.pi * s / n, d)
        for f in (False, True):
            for i, t in enumerate(tuples):
                image = tuple(t[(s - j) % n] if f else t[(j - s) % n] for j in range(n))
                out[index[image]] += R @ (np.conj(X[i]) if f else X[i]) @ R.conj().T
    return out / (2 * n)
