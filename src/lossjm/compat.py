"""Joint-measurability decisions.

A set of measurements {M^j_a} is jointly measurable when a single parent
POVM G indexed by outcome tuples (a_1, ..., a_n) reproduces every M^j_a as a
marginal: sum over all other indices of G equals M^j_a, with every G block
positive semidefinite.

Incompatibility robustness is the largest eta <= 1 at which the depolarized
set M -> eta M + (1 - eta) tr(M)/d I stays jointly measurable: 1 - s at the
least noise weight s of

    minimise s  s.t.  sum_{t_j = a} G_t + s D^j_a = M^j_a,  G_t >= 0,  s >= 0,

with C^j_a = tr(M^j_a) I/d and D^j_a = M^j_a - C^j_a (Designolle, Farkas &
Kaniewski, New J. Phys. 21:113053, 2019).  The product parent is feasible at
s = 1, and s = 0 exactly when the set is compatible.  One primal-dual
interior-point solve (HKM direction, Mehrotra predictor-corrector) treats it,
and each verdict rests on a certificate checked after the solve:

* INCOMPATIBLE: a repaired dual witness Y, with every Z_t = sum_j Y^j_{t_j}
  PSD and <D, Y> <= -1, proves that no parent exists above eta_hi = <C, Y>;
  the verdict is INCOMPATIBLE iff eta_hi < 1.
* COMPATIBLE: a parent POVM of the noiseless set that passes ``certify``.

``certify`` runs no solver.  It checks the parent's outcome counts and
dimension against the set, then that ``ParentPovm.marginal_residual`` (the
max-norm gap of its marginal rows to the set's elements) and
``ParentPovm.psd_residual`` (minus its least block eigenvalue, or its blocks'
max-norm gap to Hermitian) are each at most ``TOL`` = 1e-8 (``fock.TOL``).
The blocks then sum to the identity up to that gap, as the set's POVMs do
(``MeasurementSet`` refuses any other).  ``MAX_TUPLES``
bounds the SDP only: ``certify`` takes every parent ``lon_parent`` builds.
The dimension d is not capped, but each Newton step's Schur products hold
representatives x d^4 complex numbers: about 2.4 GB for count 16 at d = 16.

``eta_star`` is the certified lower end: the returned parent certifies the set
depolarized to eta_star, up to ``TOL``, and eta_star is None when it does not.
``certify``, ``robustness`` and ``decide_table_row`` all return one record,
``Verdict``; when no certificate holds its verdict is UNDECIDED, never a guess.

The solve runs in the subspace fixed by the group that permutes the set.  For
the symmetric family that is the dihedral group generated by the phase
rotation R = exp(2 pi i N / n) and complex conjugation: averaging a parent or
a witness over it keeps it valid, so one block per orbit of outcome tuples
and the rows of measurement 0 suffice (Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004).  Parents are projected and witnesses checked on the
representatives; a parent is averaged over each orbit once, for ``certify``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import _ct
from .measurements import (
    TOL,
    FamilyParams,
    MeasurementSet,
    ParentPovm,
    _integer,
    _psd_residual,
    _rotated,
    _rotation_phases,
    symmetric_family,
)
from .parent import lon_parent

DEFAULT_MAX_ITER = 100
MAX_TUPLES = 1 << 16

# stop rule of the interior-point iteration; the certificates, not it, decide
_IPM_TOL = 1e-10
_EPS = np.finfo(float).eps


@dataclass
class Verdict:
    """A verdict and the certificate it rests on.

    ``verdict`` is COMPATIBLE, INCOMPATIBLE or UNDECIDED.  ``method`` names
    the certificate: "lon-parent" (the network parent of
    ``decide_table_row``), "sdp-parent" or "sdp-witness" (``robustness``),
    "parent" (``certify``), or "none" for UNDECIDED.  For the displaced
    family truncated at d levels, INCOMPATIBLE carries over to the
    untruncated family (for the stored elements: their construction's
    rounding is not bounded), and so does "lon-parent", whose network is the
    same at every d; "sdp-parent" speaks only for the truncated set.

    ``parent`` certifies the set depolarized to ``eta_star`` (the set itself for
    ``certify``) or eta_star is None, with residuals ``marginal_residual`` and
    ``psd_residual``.  ``witness[j][a]`` = Y^j_a proves ``eta_hi``; both are
    None when no witness proves a bound.  ``iterations`` counts Newton steps and
    ``phases`` (see ``robustness``; None for ``certify``) the seconds per phase.

    The two ends of the bracket hold in different senses.  ``eta_hi`` is
    exact: the witness is valid in exact arithmetic on the stored floats.
    The ``eta_star`` parent passes ``certify`` only up to ``TOL`` = 1e-8;
    ``robustness`` projects it at min(eta_p, eta_hi), so eta_star <= eta_hi.
    """

    verdict: str
    method: str
    eta_star: float | None
    eta_hi: float | None
    marginal_residual: float
    psd_residual: float
    iterations: int
    seconds: float
    parent: ParentPovm | None = field(default=None, repr=False)
    witness: tuple | None = field(default=None, repr=False)
    phases: dict | None = field(default=None, repr=False)


def _hermitian_basis(d: int) -> np.ndarray:
    """Columns: an orthonormal basis of the d x d Hermitian matrices under
    Re tr(AB), row-major vectorised; it gives each one d^2 real coordinates.
    The d diagonal columns come first, then the real symmetric and the
    imaginary antisymmetric one of each pair i < j."""
    i, j = np.triu_indices(d, 1)
    E, s = np.eye(d * d).reshape(d, d, d, d), np.sqrt(0.5)
    sym, anti = s * (E[i, j] + E[j, i]), 1j * s * (E[i, j] - E[j, i])
    return np.concatenate([E[range(d), range(d)], sym, anti]).reshape(d * d, d * d).T


def _inner(A: np.ndarray, B: np.ndarray) -> float:
    """Re tr(A B) summed over stacks of Hermitian matrices."""
    return float(np.vdot(A, B).real)


def _lap(phases: dict, t0: float, name: str, value=None):
    """Add the seconds since ``t0`` not yet in ``phases`` to ``phases[name]``; return ``value``."""
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0 - sum(phases.values())
    return value


def _max_steps(R: np.ndarray, RH: np.ndarray, xz, dW: np.ndarray, dxz) -> list[float]:
    """Largest alphas keeping X + alpha dX, x + alpha dx and Z + alpha dZ,
    z + alpha dz positive (inf if any), for the stacked iterate W = [X, Z] and
    step dW = [dX, dZ], from one eigvalsh: R = L^-1 for the Cholesky factors
    L L^H of W, RH = R^H, and X + alpha dX >= 0 iff I + alpha R dX R^H >= 0."""
    lam = np.linalg.eigvalsh(R @ dW @ RH)[..., 0].min(axis=1)
    alphas = []
    for l, a, da in zip(lam.tolist(), xz, dxz):
        alpha = -1.0 / l if l < 0 else np.inf
        alphas.append(min(alpha, -a / da) if da < 0 else alpha)
    return alphas


def _covariance_phases(sdp: _RobustnessSdp) -> np.ndarray | None:
    """The phases Omega of ``symmetric_family`` when the set is, bit for bit,
    the rotated copies M^k = R^k M^0 R^-k of a real measurement 0, so that the
    dihedral group generated by R = exp(2 pi i N / n) and complex conjugation
    permutes it; None (the trivial group) otherwise.  No tolerance enters."""
    n, o, d = sdp.n, sdp.outs[0], sdp.d
    first = sdp.targets[:o]
    if any(k != o for k in sdp.outs) or first.imag.any():
        return None
    phases = _rotation_phases(n, d)
    covariant = np.array_equal(_rotated(first, phases), sdp.targets.reshape(n, o, d, d))
    return phases if covariant else None


def _orbits(outs: tuple, elements: list) -> np.ndarray:
    """The image table of the outcome tuples' orbits under the group
    ``elements``, pairs (s, f) standing for shift^s reverse^f: shift moves
    the outcome of measurement j to j + 1, reverse that of j to -j (mod n).

    Row e is the flat-index grid with its axes moved by ``elements[e]``, read at
    each orbit's least index, its representative; ``elements[0]`` must be the identity.
    """
    grid, j = np.arange(math.prod(outs)).reshape(outs), np.arange(len(outs))
    images = np.stack([grid.transpose((s - j if f else j + s) % len(j)) for s, f in elements])
    return images.reshape(len(elements), -1)[:, (images.min(axis=0) == grid).ravel()]


def _phase_classes(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real functions c (n, K) of the rotation index and class matrices
    P (K, d, d) with phases[j] = sum_k c[j, k] P[k].

    Entries with equal (a - b) mod n share their phase w^(j (a - b)); a class
    and its conjugate class give a cosine and a sine function, a
    self-conjugate class (a - b = 0 or n/2) one real function.
    """
    n, d = phases.shape[0], phases.shape[-1]
    a = np.arange(d)
    delta = (a[:, None] - a) % n
    funcs, mats = [], []
    for k in np.flatnonzero(np.bincount(delta.ravel())):  # the classes present
        at, conj_at = delta == k, delta == (n - k) % n
        w = phases[:, at][:, 0]
        if 2 * k % n == 0:
            funcs.append(w.real)
            mats.append(at.astype(complex))
        elif 2 * k < n:
            funcs += [w.real, w.imag]
            mats += [(at | conj_at).astype(complex), 1j * (at.astype(float) - conj_at)]
    return np.stack(funcs, axis=1), np.stack(mats)


def _coordinate_mask(d: int, m: int, classes: int, real: bool) -> np.ndarray:
    """The ``_hermitian_basis`` coordinates kept per class (classes x d^2):
    the real symmetric ones if conjugation fixes measurement 0 (``real``),
    and for the last class only entries a = b mod m; the others are a gauge
    that changes no dual block."""
    i, j = np.triu_indices(d, 1)
    resonant = np.concatenate([np.ones(d, dtype=bool), (j - i) % m == 0, (j - i) % m == 0])
    symmetric = np.arange(d * d) < d * (d + 1) // 2 if real else np.ones(d * d, dtype=bool)
    return symmetric & ((np.arange(classes) < classes - 1)[:, None] | resonant)


class _RobustnessSdp:
    """The robustness SDP in standard form, min s s.t. A(G, s) = C + D,
    solved in the subspace fixed by the group that permutes the set.

    Parents are stacks of the representatives' blocks, ``full_blocks`` giving
    all T in the tuple order of ``ParentPovm``; constraint rows are stacked
    measurement by measurement, ``offsets[j]`` being the first row of
    measurement j.

    The group is found from the set alone (``_covariance_phases``): the
    dihedral group of order 2n for the rotated copies of ``symmetric_family``,
    else the trivial one.  An invariant parent needs one block per orbit of
    outcome tuples (binary bracelets for two outcomes: 4 of 8 at n = 3, 126
    of 2048 at n = 11); sums over tuples become sums over representatives,
    each weighted by its orbit size 2n / |stabiliser|.  ``reduce`` builds the
    representatives' arrays from the image table of ``_orbits``.

    Blocks need not be invariant under their stabiliser: every dual block is,
    so the constraint map, ``inner`` and ``schur`` read only a block's average
    over it, whose least eigenvalue is at least the block's.  ``full_blocks``
    takes that average once, when a parent is expanded.

    The dual is held in real coordinates c of Y = ``full_rows(c)``: one
    generating row class rho per outcome of measurement 0 (every outcome row
    of measurement j is R^j Y_rho R^-j), restricted to the real symmetric
    matrices its conjugation stabiliser fixes, and for the last outcome to
    the entries with a = b mod n (the rest is a gauge: it does not change
    any Z_t).  For the trivial group the classes are the rows the full
    solve keeps: all outcomes of measurement 0 and all but the last of the
    others (normalisation implies the rest).  A rotation acts on a class by
    entrywise phases, each a combination of K real functions of the
    rotation index (``_phase_classes``); ``gen`` (rows x classes*K) holds
    them and ``V`` maps c to the class matrices times the K phase masks.
    """

    def __init__(self, mset: MeasurementSet):
        self.outs = tuple(len(p) for p in mset)
        self.n, self.d = len(self.outs), mset.dim
        self.T = math.prod(self.outs)
        if self.T > MAX_TUPLES:
            raise ValueError(f"{self.T} outcome tuples exceed the {MAX_TUPLES} limit")
        self.targets = mset.rows
        self.identity = np.eye(self.d, dtype=complex)
        self.offsets = np.cumsum((0,) + self.outs)
        n, o, d, d2 = self.n, self.outs[0], self.d, self.d**2
        self.C = (np.trace(self.targets, axis1=1, axis2=2).real / d)[:, None, None] * self.identity
        self.D = self.targets - self.C
        # each row's class (-1: none) and the rotation taking the class to it
        phases = _covariance_phases(self)
        dihedral = phases is not None
        if dihedral:
            elements = [(s, f) for f in (0, 1) for s in range(n)]
            src, rshift = np.tile(np.arange(o), n), np.repeat(np.arange(n), o)
        else:
            elements = [(0, 0)]
            keep = np.ones(len(self.targets), dtype=bool)
            keep[self.offsets[2:] - 1] = False
            src, rshift = np.where(keep, np.cumsum(keep) - 1, -1), np.zeros(len(keep), dtype=int)
            phases = np.ones((1, d, d), dtype=complex)
        self.phases, self.elements, m = phases, elements, len(phases)
        funcs, mats = _phase_classes(phases)
        classes = int(src.max()) + 1
        is_class = src[:, None] == np.arange(classes)
        self.gen = (is_class[:, :, None] * funcs[rshift][:, None, :]).reshape(len(src), -1)

        mask = _coordinate_mask(d, m, classes, real=dihedral)
        # per class: its matrix times each phase mask, in the Hermitian basis
        masked = (mats.reshape(-1, d2, 1) * _hermitian_basis(d)).reshape(-1, d2)
        self.V = np.kron(np.eye(classes), masked)[:, mask.ravel()]
        self.VH = self.V.conj().T
        self.cv, self.dv = self.row_coords(self.C), self.row_coords(self.D)
        self.dd = np.outer(self.dv, self.dv)
        self.reduce(_orbits(self.outs, elements))

    def reduce(self, images: np.ndarray):
        """Build every per-representative array from an image table of
        ``_orbits``, or from any subset of its columns, on whose orbits alone
        parents then live.  An orbit's size is the group's order over its
        stabiliser's, the elements that fix its representative."""
        self.images = images
        self.rep = rep = images[0]
        self.stabiliser = (images == rep).sum(axis=0)
        self.weight = len(self.elements) / self.stabiliser
        self.digits = np.unravel_index(rep, self.outs)  # each one's outcome per measurement
        g = self.gen[self.offsets[:-1, None] + self.digits].sum(axis=0)  # (reps, classes*K), real
        gw = self.weight[:, None] * g
        self.pairs = (g[:, :, None] * gw[:, None, :]).reshape(len(g), -1)
        self.g, self.gwT = g.astype(complex), gw.T.astype(complex, order="C")
        eye = np.broadcast_to(self.identity, (len(rep), self.d, self.d))
        self.gram = self.schur(eye, eye, 0.0)  # of the constraint map, for ``project``
        g0 = self.C[self.offsets[:-1, None] + self.digits, 0, 0].real.prod(axis=0)  # tr(M^j_a)/d
        self.G0 = g0[:, None, None] * eye  # the eta = 0 product parent

    def rows(self, Y: np.ndarray) -> list[np.ndarray]:
        return np.split(Y, self.offsets[1:-1])

    def row_coords(self, Y: np.ndarray) -> np.ndarray:
        """Coordinates <full_rows(e_i), Y> of a full row stack Y."""
        return (self.VH @ (self.gen.T @ Y.reshape(len(Y), -1)).ravel()).real

    def full_rows(self, c: np.ndarray) -> np.ndarray:
        """The dual row stack Y of coordinates c."""
        return (self.gen @ (self.V @ c).reshape(self.gen.shape[1], -1)).reshape(-1, self.d, self.d)

    def full_blocks(self, X: np.ndarray) -> np.ndarray:
        """The group average over all T tuples of the blocks X, zero outside the
        orbits of ``images``: element (s, f) adds conj^f(X) * phases[s], over
        the stabiliser's order, at its row of ``images``."""
        B = np.zeros((self.T, self.d, self.d), dtype=complex)
        X = X / self.stabiliser[:, None, None]
        for (s, f), image in zip(self.elements, self.images):
            B[image] += (X.conj() if f else X) * self.phases[s]
        return B

    def marginal_coords(self, G: np.ndarray) -> np.ndarray:
        """``row_coords`` of the marginal rows of ``full_blocks(G)``, from the
        representatives."""
        return (self.VH @ (self.gwT @ G.reshape(len(G), -1)).ravel()).real

    def dual_blocks(self, c: np.ndarray) -> np.ndarray:
        """Z_t = sum_j Y^j_{t_j} of Y = ``full_rows(c)``, at the representatives."""
        return (self.g @ (self.V @ c).reshape(self.g.shape[1], -1)).reshape(-1, self.d, self.d)

    def project(self, G: np.ndarray, eta: float) -> np.ndarray:
        """Orthogonal projection, under ``inner``, of blocks G onto the parents
        of the set depolarized to eta: G + dual_blocks(a), with gram a = cv +
        eta dv - marginal_coords(G).  The group average of a parent is a
        parent, so this is the projection over all T tuples."""
        a = np.linalg.solve(self.gram, self.cv + eta * self.dv - self.marginal_coords(G))
        return G + self.dual_blocks(a)

    def inner(self, A: np.ndarray, B: np.ndarray) -> float:
        """``_inner`` of the full stacks of Hermitian stacks A, B of representatives,
        B invariant: Re tr(A_t B_t) weighted by the orbit sizes."""
        return float(np.einsum("t,tab,tba->", self.weight, A, B).real)

    def schur(self, X: np.ndarray, Zinv: np.ndarray, x_over_z: float) -> np.ndarray:
        """<A_i, X A_k Z^-1> over the coordinates: representative t, of weight
        w_t, adds w_t Re tr(S_i X_t S_k Z_t^-1) for S_i = dual_blocks(e_i)_t.

        S_i is the class matrix times sum_k g[t, rho k] P_k, so one product
        of ``pairs`` (w_t g g^T per representative) with the stacked
        Kronecker products X_t kron Z_t^-T gives every pair of classes and
        phase functions; V then applies the masks and the basis once.
        """
        d2 = self.d**2
        K = np.einsum("tab,tec->tacbe", X, Zinv).reshape(len(X), -1)
        # pairs is real: one product sums the re/im parts, as K^T pairs; its bits differ
        # between 1 and 2 OpenBLAS threads from 687 representatives on (d=3, count 14)
        S = np.ascontiguousarray((K.view(float).T @ self.pairs).T).view(complex)
        q = self.g.shape[1]
        S = S.reshape(q, q, d2, d2).transpose(0, 2, 1, 3).reshape(q * d2, q * d2)
        return (self.VH @ S @ self.V).real + x_over_z * self.dd

    def solve(self, max_iter: int):
        """Infeasible-start HKM predictor-corrector steps from (I/T, s = 1);
        returns its last primal (G, eta = 1 - s), G at the representatives, the
        dual rows Y, the step count, and laps that partition its seconds:
        "solve.residual" (and the stop test), "solve.factor" (W's Cholesky
        factor, whose inverse gives Z^-1 and both step lengths), "solve.schur",
        "solve.direction" (both directions, mu), "solve.step_length"
        (``_max_steps``) and "solve.update" (the step).  The iterate is one
        stack W = [X, Z] and each direction one stack dW = [dX, dZ].

        It ends below ``_IPM_TOL`` (the gap read on the eta scale, where the
        stop comes in fewer steps), at ``max_iter`` steps, or at a stall
        (rounding stalls ill-conditioned solves): a residual not below the
        previous one, once that is within TOL; a singular Schur matrix ends it
        early.  The orbit weights make <X, Z>, mu and the dual residual those
        of the solve over all T blocks; the primal residual is on its coordinates.
        """
        t0, parts = time.perf_counter(), dict.fromkeys(
            ("solve.residual", "solve.factor", "solve.schur", "solve.direction",
             "solve.step_length", "solve.update"), 0.0)
        X = np.broadcast_to(self.identity / self.T, (len(self.rep), self.d, self.d))
        W = np.array([X, np.broadcast_to(self.identity, X.shape)])  # C order, unlike np.stack
        x = z = 1.0
        c = np.zeros(len(self.dv))
        N = self.T * self.d + 1
        bnorm = 1.0 + np.linalg.norm(self.cv)
        prev = np.inf
        for steps in range(max_iter + 1):
            X, Z = W  # views into W, which each step updates in place
            rp = self.cv + self.dv - self.marginal_coords(X) - x * self.dv
            Rd, rd = -self.dual_blocks(c) - Z, 1.0 - self.dv @ c - z
            dobj = (self.cv + self.dv) @ c
            gap = abs(x - dobj) / (1.0 + abs(1.0 - x) + abs(1.0 - dobj))
            pinf = np.linalg.norm(rp) / bnorm
            err = max(gap, pinf, np.hypot(np.sqrt(self.inner(Rd, Rd)), rd) / 2)
            if err < _IPM_TOL or steps == max_iter or err >= prev and prev <= TOL:
                break
            prev = err
            _lap(parts, t0, "solve.residual")
            try:
                R = np.linalg.inv(np.linalg.cholesky(W))  # R W R^H = I, W^-1 = R^H R
                RH = _ct(R)
                Zinv = _lap(parts, t0, "solve.factor", RH[1] @ R[1])
                M = _lap(parts, t0, "solve.schur", self.schur(X, Zinv, x / z))
                XRdZ = X @ Rd @ Zinv

                def direction(Rc, rc):
                    rhs = rp + self.marginal_coords(XRdZ - Rc) - (rc - x * rd / z) * self.dv
                    dc = np.linalg.solve(M, rhs)
                    dZ, dz = Rd - self.dual_blocks(dc), rd - self.dv @ dc
                    dX = Rc - X @ dZ @ Zinv
                    return np.array([0.5 * (dX + _ct(dX)), dZ]), rc - x * dz / z, dc, dz

                dW, dx, dc, dz = _lap(parts, t0, "solve.direction", direction(-X, -x))
                ap, ad = (min(1.0, a) for a in _max_steps(R, RH, (x, z), dW, (dx, dz)))
                _lap(parts, t0, "solve.step_length")
                dX, dZ = dW
                mu = (self.inner(X, Z) + x * z) / N
                mu_aff = (self.inner(X + ap * dX, Z + ad * dZ) + (x + ap * dx) * (z + ad * dz)) / N
                smu = min(1.0, (mu_aff / mu) ** 3) * mu
                dW, dx, dc, dz = _lap(parts, t0, "solve.direction", direction(
                    smu * Zinv - X - dX @ dZ @ Zinv, smu / z - x - dx * dz / z))
                gamma = 0.9 + 0.09 * min(ap, ad)
                ap, ad = (min(1.0, gamma * a) for a in _max_steps(R, RH, (x, z), dW, (dx, dz)))
                _lap(parts, t0, "solve.step_length")
            except np.linalg.LinAlgError:
                break
            W += np.reshape([ap, ad], (2, 1, 1, 1)) * dW
            x, c, z = x + ap * dx, c + ad * dc, z + ad * dz
            _lap(parts, t0, "solve.update")
        return X, 1.0 - x, self.full_rows(c), steps, _lap(parts, t0, "solve.residual", parts)

    def repair_witness(self, W: np.ndarray) -> tuple[np.ndarray, float]:
        """Make W an exact witness; return it with the bound eta_hi it proves.

        Adding c I / n to every row, so that each Z_t (which holds one row of
        every measurement) gains c I, makes each Z_t PSD and keeps a
        covariant W covariant; D is traceless, so <D, W> stays and the bound
        grows by c d.  Scaling then gives <D, W> <= -1.  Each step is padded
        by an a priori bound on its rounding error, so both hold exactly.

        Z_t is read at the representatives only (all T for the trivial group).
        For the dihedral group, each block of Q^j = Re(W^0) * w^j, w^j exact,
        is a unitary or conjugate image of its representative's.  In norm,
        |W^j - Q^j| <= e = d (|W^j - W^0 * Omega^j| + 6 eps |W^0| + |Im W^0|):
        the stored Omega = ``phases`` is within 4 eps of w, and the product
        rounds by 2 eps.  So each block is within n e of Q's, and Q's within
        n e of the representative's: the guard adds 2 n e (1 + 8 eps).
        """
        rows = self.rows(W)
        guard = 4 * (self.n + self.d) * self.d**2 * _EPS * sum(np.abs(r).max() for r in rows)
        if len(self.phases) > 1:
            W0 = rows[0]
            gap = np.abs(W.reshape(self.n, *W0.shape) - W0 * self.phases[:, None]).max()
            e = self.d * (gap + 6 * _EPS * np.abs(W0).max() + np.abs(W0.imag).max())
            guard += 2 * self.n * e * (1 + 8 * _EPS)
        Z = sum(W[o + t] for o, t in zip(self.offsets, self.digits))
        lam = float(np.linalg.eigvalsh(Z).min())
        W = W + (max(0.0, guard - lam) / self.n) * self.identity
        err = 4 * W.size * _EPS * np.abs(W)  # times |D| or |C|: error of a sum of products
        s = -_inner(self.D, W) - float(np.sum(err * np.abs(self.D)))
        if not s > 0:
            return W, np.inf
        W /= s
        return W, _inner(self.C, W) + float(np.sum(err * np.abs(self.C))) / s


def depolarize(mset: MeasurementSet, eta: float) -> MeasurementSet:
    """Mix every element with the maximally mixed effect of matching weight."""
    E, d = mset.rows, mset.dim
    weights = np.trace(E, axis1=1, axis2=2).real / d
    rows = eta * E + (1.0 - eta) * weights[:, None, None] * np.eye(d)
    return MeasurementSet(np.split(rows, np.cumsum([len(p) for p in mset])[:-1]))


def certify(mset: MeasurementSet, parent: ParentPovm) -> Verdict:
    """Check a candidate parent against a measurement set, no solver involved:
    its marginals must match the set and its blocks be PSD, each within TOL.
    COMPATIBLE (method "parent", eta_star = 1) if they do, else UNDECIDED."""
    t0 = time.perf_counter()
    if parent.outcome_counts != tuple(len(p) for p in mset) or parent.dim != mset.dim:
        raise ValueError("parent shape does not match the measurement set")
    marg = parent.marginal_residual(mset)
    psd = parent.psd_residual()
    holds = marg <= TOL and psd <= TOL
    return Verdict(
        verdict="COMPATIBLE" if holds else "UNDECIDED",
        method="parent" if holds else "none",
        eta_star=1.0 if holds else None,
        eta_hi=None,
        marginal_residual=marg,
        psd_residual=psd,
        iterations=0,
        seconds=time.perf_counter() - t0,
        parent=parent,
    )


def robustness(mset: MeasurementSet, max_iter: int = DEFAULT_MAX_ITER) -> Verdict:
    """Incompatibility robustness, with a certificate for each end, from one
    solve of at most ``max_iter`` Newton steps (``iterations``).

    The repaired dual iterate is the witness behind ``eta_hi``.  If it proves
    eta_hi < 1 the verdict is INCOMPATIBLE ("sdp-witness").  Otherwise one
    candidate, the primal carried to eta = 1 (a set of multiples of I is no
    special case), goes to ``certify``: passing gives COMPATIBLE ("sdp-parent")
    with eta_star = 1, failing UNDECIDED.  Short of COMPATIBLE the primal,
    projected onto the marginals at min(eta_p, eta_hi), for the solve's
    eta_p <= 1, and mixed with the eta = 0 product parent until its least
    eigenvalue is within TOL/2 of zero, gives eta_star <= min(eta_p, eta_hi),
    or None if this parent fails ``certify``.

    ``phases`` holds the seconds of build, solve (split by the "solve.*" laps
    of ``_RobustnessSdp.solve``), repair, parent (projecting, mixing and
    expanding to all tuples) and certify (with ``depolarize``).
    """
    if _integer("max_iter", max_iter) < 0:
        raise ValueError("max_iter must be non-negative")
    t0, phases = time.perf_counter(), {}
    sdp = _RobustnessSdp(mset)
    G0 = _lap(phases, t0, "build", sdp.G0)  # the eta = 0 product parent, at the representatives
    X, eta_p, y, steps, parts = _lap(phases, t0, "solve", sdp.solve(max_iter))
    W, eta_hi = _lap(phases, t0, "repair", sdp.repair_witness(-y))
    if eta_hi >= 1.0:
        G = sdp.project(X, 1.0)
        parent = _lap(phases, t0, "parent", ParentPovm(sdp.outs, sdp.full_blocks(G)))
        check = _lap(phases, t0, "certify", certify(mset, parent))
    if eta_hi >= 1.0 and check.verdict == "COMPATIBLE":
        verdict, method, eta_star = "COMPATIBLE", "sdp-parent", 1.0
    else:
        eta = min(eta_p, eta_hi)
        P = sdp.project(X, eta)  # the marginals of the set at eta <= eta_hi
        # mixing in G0 lifts the smallest eigenvalue from minus P's PSD residual towards
        # g0; stop within TOL/2 of zero, inside what certify demands
        g0 = float(G0[:, 0, 0].real.min())
        lam = min(1.0, (g0 + 0.5 * TOL) / (g0 + _psd_residual(P)))
        eta_star = float(lam * eta)
        G = lam * P + (1.0 - lam) * G0
        parent = _lap(phases, t0, "parent", ParentPovm(sdp.outs, sdp.full_blocks(G)))
        check = _lap(phases, t0, "certify", certify(depolarize(mset, eta_star), parent))
        verdict, method = ("INCOMPATIBLE", "sdp-witness") if eta_hi < 1.0 else ("UNDECIDED", "none")
    proven = eta_hi < np.inf
    return replace(
        check,
        verdict=verdict,
        method=method,
        eta_star=eta_star if check.verdict == "COMPATIBLE" else None,
        eta_hi=eta_hi if proven else None,
        iterations=steps,
        seconds=time.perf_counter() - t0,
        witness=tuple(sdp.rows(W)) if proven else None,
        phases={**phases, **parts},
    )


def decide_table_row(params: FamilyParams, max_iter: int = DEFAULT_MAX_ITER) -> Verdict:
    """Decide compatibility of the symmetric family at ``params``.

    When count * tau <= 1 the set is jointly measurable by construction: a
    balanced linear-optical network dilutes the signal into count arms of
    transmissivity tau each, and measuring every arm realizes an explicit
    parent.  count * tau is the correctly rounded sum ``lon_parent`` tests.
    ``certify`` checks that parent by its residuals: passing gives COMPATIBLE
    ("lon-parent") with eta_star = 1 and zero Newton steps, failing
    UNDECIDED.  Otherwise ``robustness`` decides.  ``seconds`` covers the
    whole row, and ``phases`` adds "family", building the families; the
    network path records family, parent and certify.  A negative or
    non-integer ``max_iter`` is refused on either path.
    """
    if _integer("max_iter", max_iter) < 0:
        raise ValueError("max_iter must be non-negative")
    t0, phases = time.perf_counter(), {}
    if params.count * params.tau <= 1.0:
        noiseless = _lap(phases, t0, "family", symmetric_family(replace(params, tau=1.0)))
        network = _lap(phases, t0, "parent", lon_parent(noiseless, [params.tau] * params.count))
        lossy = _lap(phases, t0, "family", symmetric_family(params))
        res = _lap(phases, t0, "certify", certify(lossy, network))
        if res.verdict == "COMPATIBLE":
            res.method = "lon-parent"
    else:
        res = robustness(_lap(phases, t0, "family", symmetric_family(params)), max_iter=max_iter)
        phases.update(res.phases)
    res.seconds, res.phases = time.perf_counter() - t0, phases
    return res
