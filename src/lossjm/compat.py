"""Joint-measurability decisions.

A set of measurements {M^j_a} is jointly measurable when a single parent
POVM G indexed by outcome tuples (a_1, ..., a_n) reproduces every M^j_a as a
marginal: sum over all other indices of G equals M^j_a, with every G block
positive semidefinite.

Incompatibility robustness is the largest weight eta at which the depolarized
set M -> eta M + (1 - eta) tr(M)/d I stays jointly measurable: the optimum of

    maximise eta  s.t.  sum_{t_j = a} G_t - eta D^j_a = C^j_a,  G_t >= 0,  eta >= 0,

with C^j_a = tr(M^j_a) I/d and D^j_a = M^j_a - C^j_a.  One primal-dual
interior-point solve (HKM direction, Mehrotra predictor-corrector) treats it,
and each verdict rests on a certificate checked after the solve:

* INCOMPATIBLE: a repaired dual witness Y, with every Z_t = sum_j Y^j_{t_j}
  PSD and <D, Y> <= -1, proves that no parent exists above eta_hi = <C, Y>;
  the verdict is INCOMPATIBLE iff eta_hi < 1.
* COMPATIBLE: a parent POVM of the noiseless set that passes ``certify``.

``eta_star`` is the certified lower end: the returned parent certifies the set
depolarized to eta_star.  When neither certificate holds the result is
undecided, and ``decide_table_row`` raises RuntimeError.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .measurements import FamilyParams, MeasurementSet, ParentPovm, Povm, symmetric_family
from .parent import lon_parent

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
MAX_TUPLES = 1 << 16
MAX_DIM = 8

# stop rule of the interior-point iteration; the certificates, not it, decide
_IPM_TOL = 1e-10
_EPS = np.finfo(float).eps


@dataclass
class JmResult:
    """Outcome of a certificate check or a robustness computation.

    ``feasible``: the parent certifies the set (for ``robustness``, the
    noiseless set).  For ``robustness``, ``status`` is "sdp-parent",
    "sdp-witness" or "undecided", ``parent`` certifies the set depolarized to
    ``eta_star``, ``witness[j][a]`` = Y^j_a proves ``eta_hi`` (inf if nothing).
    """

    feasible: bool
    status: str
    marginal_residual: float
    psd_residual: float
    iterations: int
    eta_star: float | None = None
    eta_hi: float | None = None
    parent: ParentPovm | None = None
    witness: tuple | None = field(default=None, repr=False)

    @property
    def incompatible(self) -> bool:
        if self.eta_hi is None:
            raise ValueError("verdict is only defined for robustness results")
        return self.eta_hi < 1.0


class _MarginalProblem:
    """Precomputed structure of the marginal constraint map for one set shape.

    Parents are stacks of T blocks, tuples in lexicographic order; marginal
    rows are stacked measurement by measurement, ``offsets[j]`` being the
    first row of measurement j.  The indicator ``A`` (T x rows) has
    A[t, offsets[j] + t_j] = 1: the rows tuple t contributes to.
    """

    def __init__(self, mset: MeasurementSet):
        self.outs = tuple(p.outcomes for p in mset)
        self.n = len(self.outs)
        self.d = mset.dim
        self.T = int(np.prod(self.outs))
        if self.T > MAX_TUPLES:
            raise ValueError(f"{self.T} outcome tuples exceed the {MAX_TUPLES} limit")
        if self.d > MAX_DIM:
            raise ValueError(f"dimension {self.d} exceeds the desk-scale limit {MAX_DIM}")
        self.targets = np.concatenate([np.stack(p.elements) for p in mset])
        self.identity = np.eye(self.d, dtype=complex)
        self.offsets = np.cumsum((0,) + self.outs)
        digits = np.indices(self.outs).reshape(self.n, self.T)
        self.A = np.zeros((self.T, self.offsets[-1]))
        self.A[np.arange(self.T)[:, None], digits.T + self.offsets[:-1]] = 1.0

    def marginals(self, G: np.ndarray) -> np.ndarray:
        """Row i is the sum of the blocks of G over the tuples entering it."""
        return (self.A.T @ G.reshape(self.T, -1)).reshape(-1, self.d, self.d)

    def spread(self, Y: np.ndarray) -> np.ndarray:
        """Adjoint of ``marginals``: the block for tuple t is sum_j Y[offsets[j] + t_j]."""
        return (self.A @ Y.reshape(len(Y), -1)).reshape(self.T, self.d, self.d)

    def project_affine(self, G: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto {G : marginals(G) = targets}.

        The normal equations of the constraint map couple only through the
        per-measurement deficit sums, which all equal the total-sum deficit
        for consistent targets; that collapses the correction to closed form.
        """
        delta = G.sum(axis=0) - self.identity
        shift = ((self.n - 1) / (self.n * self.T)) * delta
        weight = np.repeat(self.outs, self.outs)[:, None, None] / self.T
        return G - self.spread(weight * (self.marginals(G) - self.targets) - shift)

    def marginal_residual(self, G: np.ndarray) -> float:
        return float(np.abs(self.marginals(G) - self.targets).max())


def _hermitian_basis(d: int) -> np.ndarray:
    """Columns: an orthonormal basis of the d x d Hermitian matrices under
    Re tr(AB), row-major vectorised; it gives each one d^2 real coordinates."""
    i, j = np.array(list(itertools.combinations(range(d), 2)), dtype=int).reshape(-1, 2).T
    E, s = np.eye(d * d).reshape(d, d, d, d), np.sqrt(0.5)
    sym, anti = s * (E[i, j] + E[j, i]), 1j * s * (E[i, j] - E[j, i])
    return np.concatenate([E[range(d), range(d)], sym, anti]).reshape(d * d, d * d).T


def _inner(A: np.ndarray, B: np.ndarray) -> float:
    """Re tr(A B) summed over stacks of Hermitian matrices."""
    return float(np.vdot(A, B).real)


def _ct(X: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(X, -1, -2))


def _inverse_factor(X: np.ndarray) -> np.ndarray:
    """R = L^-1 for the Cholesky factor L L^H = X of each block, so that
    R X R^H = I and X^-1 = R^H R; LinAlgError if a block is not positive
    definite."""
    return np.linalg.inv(np.linalg.cholesky(X))


def _max_step(R: np.ndarray, x: float, dX: np.ndarray, dx: float) -> float:
    """Largest alpha keeping X + alpha dX and x + alpha dx positive (inf if any),
    for R the inverse factor of X: X + alpha dX >= 0 iff I + alpha R dX R^H >= 0."""
    lam = float(np.linalg.eigvalsh(R @ dX @ _ct(R)).min())
    alpha = -1.0 / lam if lam < 0 else np.inf
    return min(alpha, -x / dx) if dx < 0 else alpha


class _RobustnessSdp(_MarginalProblem):
    """The robustness SDP in standard form, min -eta s.t. A(G, eta) = C.

    Constraint arrays hold one row per outcome of every measurement.  The
    solve keeps all outcomes of measurement 0 and all but the last of the
    others (normalisation implies the rest); dropped rows stay zero.
    ``pairs`` (T x kept^2) indicates, for each tuple, the pairs of kept rows
    it enters together: the Schur matrix is one product with it.
    """

    def __init__(self, mset: MeasurementSet):
        super().__init__(mset)
        self.C = (np.trace(self.targets, axis1=1, axis2=2).real / self.d)[:, None, None] * self.identity
        self.D = self.targets - self.C
        self.keep = np.ones(len(self.targets), dtype=bool)
        self.keep[self.offsets[2:] - 1] = False
        self.U = _hermitian_basis(self.d)
        kept = self.A[:, self.keep]
        self.pairs = (kept[:, :, None] * kept[:, None, :]).reshape(self.T, -1)

    def rows(self, Y: np.ndarray) -> list[np.ndarray]:
        return np.split(Y, self.offsets[1:-1])

    def apply(self, G: np.ndarray, eta: float) -> np.ndarray:
        return self.marginals(G) - eta * self.D

    def adjoint(self, Y: np.ndarray) -> tuple[np.ndarray, float]:
        return self.spread(Y), -_inner(self.D, Y)

    def coords(self, V: np.ndarray) -> np.ndarray:
        """Real coordinates of the Hermitian parts of the kept rows of V."""
        V = V[self.keep]
        return (V.reshape(len(V), -1) @ np.conj(self.U)).real.ravel()

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        Y = np.zeros_like(self.C)
        Y[self.keep] = (c.reshape(-1, self.U.shape[0]) @ self.U.T).reshape(-1, self.d, self.d)
        return Y

    def schur(self, X: np.ndarray, Zinv: np.ndarray, x_over_z: float) -> np.ndarray:
        """<A_i, X A_k Z^-1> over the kept real constraint coordinates: block t
        adds Re U^H (X_t kron Z_t^-T) U to each pair of kept rows it enters.

        The basis change commutes with the sum over tuples, so one product of
        ``pairs`` with the stacked Kronecker products gives every diagonal
        and pairwise block, and U is applied once per pair, not per tuple.
        """
        d2, kept = self.d**2, int(self.keep.sum())
        K = np.einsum("tab,tec->tacbe", X, Zinv).reshape(self.T, -1)
        # pairs is real: one real product sums the interleaved re/im parts
        S = (self.pairs.T @ K.view(float)).view(complex).reshape(-1, d2, d2)
        H = (np.conj(self.U.T) @ S @ self.U).real.reshape(kept, kept, d2, d2)
        M = H.transpose(0, 2, 1, 3).reshape(kept * d2, kept * d2)
        dv = self.coords(self.D)
        return M + x_over_z * np.outer(dv, dv)

    def solve(self, max_iter: int):
        """Infeasible-start HKM predictor-corrector steps from (I/T, 1); returns
        the best primal (G, eta), dual rows y and the step count.  Each step
        factorises X and Z once: Z^-1 and both step-length searches reuse
        the factors.  A singular Schur matrix, as near the optimum of
        degenerate sets, ends it early."""
        X = np.broadcast_to(self.identity / self.T, (self.T, self.d, self.d)).copy()
        Z = np.broadcast_to(self.identity, X.shape).copy()
        x = z = 1.0
        Y = np.zeros_like(self.C)
        N = self.T * self.d + 1
        bnorm = 1.0 + np.linalg.norm(self.C[self.keep])
        best = (np.inf, 0)
        for steps in range(max_iter + 1):
            Rp = self.C - self.apply(X, x)
            AY, aY = self.adjoint(Y)
            Rd, rd = -AY - Z, -1.0 - aY - z
            dobj = _inner(self.C, Y)
            gap = abs(x + dobj) / (1.0 + x + abs(dobj))
            pinf = np.linalg.norm(Rp[self.keep]) / bnorm
            err = max(gap, pinf, np.hypot(np.linalg.norm(Rd), rd) / 2)
            if err < best[0]:
                best = (err, steps, X, x, Y)
            # rounding stalls ill-conditioned solves short of the tolerance
            if err < _IPM_TOL or steps in (max_iter, best[1] + 5):
                break
            try:
                RX, RZ = _inverse_factor(X), _inverse_factor(Z)
                Zinv = _ct(RZ) @ RZ
                M = self.schur(X, Zinv, x / z)
                base = Rp + self.apply(X @ Rd @ Zinv, x * rd / z)

                def direction(Rc, rc):
                    c = np.linalg.solve(M, self.coords(base - self.apply(Rc, rc)))
                    dY = self.from_coords(c)
                    dAY, daY = self.adjoint(dY)
                    dZ, dz = Rd - dAY, rd - daY
                    dX = Rc - X @ dZ @ Zinv
                    dX = 0.5 * (dX + _ct(dX))
                    return dX, rc - x * dz / z, dY, dZ, dz

                dX, dx, dY, dZ, dz = direction(-X, -x)
                ap = min(1.0, _max_step(RX, x, dX, dx))
                ad = min(1.0, _max_step(RZ, z, dZ, dz))
                mu = (_inner(X, Z) + x * z) / N
                mu_aff = (_inner(X + ap * dX, Z + ad * dZ) + (x + ap * dx) * (z + ad * dz)) / N
                smu = min(1.0, (mu_aff / mu) ** 3) * mu
                dX, dx, dY, dZ, dz = direction(
                    smu * Zinv - X - dX @ dZ @ Zinv, smu / z - x - dx * dz / z
                )
                gamma = 0.9 + 0.09 * min(ap, ad)
                ap = min(1.0, gamma * _max_step(RX, x, dX, dx))
                ad = min(1.0, gamma * _max_step(RZ, z, dZ, dz))
            except np.linalg.LinAlgError:
                break
            X, x = X + ap * dX, x + ap * dx
            Y, Z, z = Y + ad * dY, Z + ad * dZ, z + ad * dz
        return (*best[2:], steps)

    def repair_witness(self, W: np.ndarray) -> tuple[np.ndarray, float]:
        """Make W an exact witness; return it with the bound eta_hi it proves.

        Adding c I to the rows of measurement 0, which every Z_t holds once,
        makes each Z_t PSD; D is traceless, so <D, W> stays and the bound
        grows by c d.  Scaling then gives <D, W> <= -1.  Each step is padded
        by an a priori bound on its rounding error, so both hold exactly.
        """
        rows = self.rows(W)
        guard = 4 * (self.n + self.d) * self.d**2 * _EPS * sum(np.abs(r).max() for r in rows)
        lam = float(np.linalg.eigvalsh(self.spread(W)).min())
        W = W.copy()
        W[: self.outs[0]] += max(0.0, guard - lam) * self.identity
        err = 4 * W.size * _EPS * np.abs(W)  # times |D| or |C|: error of a sum of products
        s = -_inner(self.D, W) - float(np.sum(err * np.abs(self.D)))
        if not s > 0:
            return W, np.inf
        W /= s
        return W, _inner(self.C, W) + float(np.sum(err * np.abs(self.C))) / s


def depolarize(mset: MeasurementSet, eta: float) -> MeasurementSet:
    """Mix every element with the maximally mixed effect of matching weight."""
    d = mset.dim
    eye = np.eye(d)
    povms = []
    for p in mset:
        povms.append(
            Povm(
                tuple(
                    eta * E + (1.0 - eta) * (np.trace(E).real / d) * eye
                    for E in p.elements
                )
            )
        )
    return MeasurementSet(tuple(povms))


def certify(mset: MeasurementSet, parent: ParentPovm, tol: float = DEFAULT_TOL) -> JmResult:
    """Check a candidate parent against a measurement set, no solver involved."""
    prob = _MarginalProblem(mset)
    if parent.outcome_counts != prob.outs or parent.dim != prob.d:
        raise ValueError("parent shape does not match the measurement set")
    marg = prob.marginal_residual(parent.blocks)
    psd = parent.validation_residuals()[0]
    return JmResult(
        feasible=(marg <= tol and psd <= tol),
        status="certificate",
        marginal_residual=marg,
        psd_residual=psd,
        iterations=0,
        parent=parent,
    )


def robustness(
    mset: MeasurementSet,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> JmResult:
    """Incompatibility robustness, with a certificate for each end, from one
    solve of at most ``max_iter`` Newton steps (``iterations``).

    The repaired dual iterate is the witness behind ``eta_hi``.  Unless it
    proves eta_hi < 1, the primal iterate at eta_p is carried to eta = 1 and
    checked by ``certify`` at ``tol``: it passing gives COMPATIBLE with
    eta_star = 1.  Otherwise the primal, projected onto the marginals at
    eta_p and mixed with the eta = 0 product parent until certify passes,
    gives eta_star < eta_p.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    sdp = _RobustnessSdp(mset)
    weights = np.ix_(*[r[:, 0, 0].real for r in sdp.rows(sdp.C)])  # tr(M^j_a)/d
    G0 = math.prod(weights).reshape(-1, 1, 1) * sdp.identity  # the eta = 0 product parent
    if np.any(sdp.D):
        X, eta_p, y, steps = sdp.solve(max_iter)
    else:  # every element is a multiple of I: the SDP is unbounded, G0 serves every eta
        X, eta_p, y, steps = G0, 1.0, np.zeros_like(sdp.C), 0
    W, eta_hi = sdp.repair_witness(-y)
    P = _MarginalProblem(depolarize(mset, eta_p)).project_affine(X)
    if eta_hi >= 1.0:
        lam = min(1.0, 1.0 / eta_p)
        G = sdp.project_affine(lam * P + (1.0 - lam) * G0)
        check = certify(mset, ParentPovm(sdp.outs, G), tol)
    if eta_hi >= 1.0 and check.feasible:
        status, eta_star = "sdp-parent", 1.0
    else:
        # mixing in G0 lifts the smallest eigenvalue from -neg towards g0;
        # stop once what is left is within tol, as certify demands
        neg = ParentPovm(sdp.outs, P).validation_residuals()[0]
        g0 = float(G0[:, 0, 0].real.min())
        lam = min(1.0, (g0 + 0.5 * tol) / (g0 + neg))
        eta_star = lam * eta_p
        G = lam * P + (1.0 - lam) * G0
        check = certify(depolarize(mset, eta_star), ParentPovm(sdp.outs, G), tol)
        status = "sdp-witness" if eta_hi < 1.0 else "undecided"
    return JmResult(
        feasible=status == "sdp-parent",
        status=status,
        marginal_residual=check.marginal_residual,
        psd_residual=check.psd_residual,
        iterations=steps,
        eta_star=eta_star,
        eta_hi=eta_hi,
        parent=check.parent,
        witness=tuple(sdp.rows(W)) if eta_hi < np.inf else None,
    )


@dataclass
class TableRow:
    """Verdict record for one operating point of the displaced family.

    An INCOMPATIBLE verdict at the truncated dimension implies the full set
    is incompatible (scope "full-set"); a COMPATIBLE verdict only speaks for
    the truncated set (scope "subspace") unless it came from an explicit
    parent certificate of the untruncated construction.  ``method`` names the
    certificate: "lon-parent", "sdp-parent" or "sdp-witness".
    """

    count: int
    r: float
    tau: float
    d: int
    d_sub: int
    eta_star: float
    verdict: str
    scope: str
    method: str
    marginal_residual: float
    psd_residual: float
    iterations: int
    seconds: float


def decide_table_row(
    params: FamilyParams,
    d_sub: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TableRow:
    """Build the symmetric family at ``d_sub`` in [2, params.d] levels, the
    leading blocks of the family at ``params.d``, and decide compatibility.

    When count * tau <= 1 the set is jointly measurable by construction: a
    balanced linear-optical network dilutes the signal into count arms of
    transmissivity tau each, and measuring every arm realizes an explicit
    parent.  That certificate is checked by its residuals and returned with
    eta* = 1 and zero solver iterations.  Otherwise ``robustness`` decides at
    ``d_sub``.  A certificate that does not hold raises RuntimeError.
    """
    d_sub = params.d if d_sub is None else d_sub
    if not 2 <= d_sub <= params.d:
        raise ValueError(f"d_sub must lie in [2, d] = [2, {params.d}], got {d_sub}")
    t0 = time.perf_counter()
    built = dataclasses.replace(params, d=d_sub)
    lossy = symmetric_family(built)

    if params.count * params.tau <= 1.0 + 1e-12:
        noiseless = symmetric_family(dataclasses.replace(built, tau=1.0))
        parent = lon_parent(noiseless, [params.tau] * params.count)
        res = certify(lossy, parent, tol)
        if not res.feasible:
            raise RuntimeError(
                "parent certificate residuals exceed tolerance: "
                f"marginal {res.marginal_residual:.3e}, psd {res.psd_residual:.3e}"
            )
        eta_star, verdict, scope, method = 1.0, "COMPATIBLE", "full-set", "lon-parent"
    else:
        res = robustness(lossy, tol=tol, max_iter=max_iter)
        if res.status == "undecided":
            raise RuntimeError(f"no certificate: witness bound {res.eta_hi:.9g} is not below 1"
                               f" and the parent certifies only eta = {res.eta_star:.9g}")
        eta_star, method = res.eta_star, res.status
        verdict = "INCOMPATIBLE" if res.incompatible else "COMPATIBLE"
        scope = "full-set" if verdict == "INCOMPATIBLE" else "subspace"

    return TableRow(
        count=params.count,
        r=params.r,
        tau=params.tau,
        d=params.d,
        d_sub=d_sub,
        eta_star=eta_star,
        verdict=verdict,
        scope=scope,
        method=method,
        marginal_residual=res.marginal_residual,
        psd_residual=res.psd_residual,
        iterations=res.iterations,
        seconds=time.perf_counter() - t0,
    )
