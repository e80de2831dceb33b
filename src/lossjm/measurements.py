"""POVMs, measurement sets and parent POVMs: displaced on-off
photodetection and symmetric families under loss.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .fock import TOL, _ct, _hermitian_lower, coherent_ket
from .loss import apply_dual


def _stack(elements) -> np.ndarray:
    """The elements of one POVM as a complex stack (outcomes, d, d), checked
    for shape only (see MeasurementSet)."""
    els = [np.asarray(E, dtype=complex) for E in elements]
    if not els:
        raise ValueError("a POVM needs at least one element")
    d = els[0].shape[0] if els[0].ndim == 2 else 0
    if d == 0:
        raise ValueError("POVM elements must be square matrices of size at least 1")
    if any(E.shape != (d, d) for E in els):
        raise ValueError("POVM elements must share one square shape")
    return np.array(els)


def _integer(name: str, value) -> int:
    """``value`` as an int: an int or numpy integer passes; a float is refused,
    not truncated, and a bool, not counted as 0 or 1."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MeasurementSet:
    """POVMs of one dimension, each a stack (outcomes, d, d) of finite Hermitian PSD
    elements summing to I within ``TOL``; ``rows`` stacks a copy of every element
    once, in ``ParentPovm.marginals`` order, and each POVM is a view of it."""

    povms: tuple
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stacks = [_stack(p) for p in self.povms]
        if not stacks:
            raise ValueError("a measurement set needs at least one POVM")
        d = stacks[0].shape[1]
        if any(s.shape[1] != d for s in stacks):
            raise ValueError("all POVMs must share one dimension")
        rows = np.concatenate(stacks)
        if not np.isfinite(rows).all():
            raise ValueError("measurement elements must be finite (no NaN or infinity)")
        if not _psd_residual(rows) <= TOL:  # the gap to Hermitian counts
            raise ValueError("POVM elements must be Hermitian and positive semidefinite")
        starts = np.cumsum([0] + [len(s) for s in stacks[:-1]])
        if not np.abs(np.add.reduceat(rows, starts) - np.eye(d)).max() <= TOL:
            raise ValueError("POVM elements must sum to the identity")
        object.__setattr__(self, "povms", tuple(np.split(rows, starts[1:])))
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.povms)

    def __iter__(self):
        return iter(self.povms)


def _psd_residual(blocks: np.ndarray) -> float:
    """``ParentPovm.psd_residual`` of a stack of blocks."""
    gap = float(np.abs(blocks - _ct(blocks)).max())  # NaN if an entry is NaN
    return max(gap, float(-np.linalg.eigvalsh(blocks).min()))


@dataclass(frozen=True)
class ParentPovm:
    """POVM indexed by outcome tuples; the certificate of joint measurability.

    ``blocks`` has shape (T, d, d) with T the product of the per-measurement
    outcome counts; tuples are ordered lexicographically (first measurement
    most significant).  It certifies a measurement set when its marginals
    equal the set's elements and every block is positive semidefinite; the
    marginals then sum to the identity because the set's POVMs do.
    """

    outcome_counts: tuple
    blocks: np.ndarray = field(repr=False)

    def __post_init__(self):
        counts = tuple(_integer("each outcome count", o) for o in self.outcome_counts)
        blocks = np.asarray(self.blocks, dtype=complex)
        if not counts or min(counts) < 1:
            raise ValueError("outcome_counts must hold at least one count, each >= 1")
        T = math.prod(counts)  # exact: np.prod wraps past 2^63
        if blocks.ndim != 3 or blocks.shape[0] != T or not 1 <= blocks.shape[1] == blocks.shape[2]:
            raise ValueError("blocks must have shape (prod(outcome_counts), d, d), d >= 1")
        object.__setattr__(self, "outcome_counts", counts)
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    def marginals(self) -> np.ndarray:
        """The marginal rows (sum(outcome_counts), d, d), measurement by
        measurement: row sum(outcome_counts[:j]) + a sums the blocks of every
        tuple whose j-th outcome is a."""
        d, T = self.dim, len(self.blocks)
        rows, inner = [], T
        for o in self.outcome_counts:
            inner //= o  # tuples per step of this measurement's outcome
            rows.append(self.blocks.reshape(T // (o * inner), o, inner, d, d).sum(axis=(0, 2)))
        return np.concatenate(rows)

    def marginal_residual(self, mset: MeasurementSet) -> float:
        """Max-norm gap between the marginal rows and the elements of a set of
        the parent's shape."""
        return float(np.abs(self.marginals() - mset.rows).max())

    def psd_residual(self) -> float:
        """The larger of -lambda_min over the blocks and their max-norm gap to
        their conjugate transpose: eigvalsh reads only the lower triangle, the
        gap sees the upper one.  Zero means every block is Hermitian and PSD;
        a NaN entry gives NaN."""
        return _psd_residual(self.blocks)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the symmetric displaced on-off family.

    ``count`` measurements with displacements mu_k = r exp(2 pi i (k-1)/count),
    each sent through a loss channel of transmissivity ``tau`` and truncated
    at ``d`` photon-number levels.
    """

    count: int
    r: float
    tau: float
    d: int

    def __post_init__(self):
        _integer("count", self.count)
        _integer("d", self.d)
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r!r}")
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.d < 2:
            raise ValueError("d must be >= 2")


def coherent_projector(mu: complex, d: int) -> np.ndarray:
    ket = coherent_ket(mu, d)
    return np.outer(ket, ket.conj())


def displaced_onoff(mu: complex, d: int) -> np.ndarray:
    """Two-outcome displaced on-off detection {|mu><mu|, I - |mu><mu|}, as a
    stack (2, d, d).

    The complement is formed inside the truncated space, so the pair sums to
    the d-dimensional identity exactly at every cutoff.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    P = coherent_projector(mu, d)
    return np.array((P, np.eye(d, dtype=complex) - P))


def _rotation_phases(count: int, d: int) -> np.ndarray:
    """Omega[k, a, b] = w^(k (a - b)) with w = exp(2 pi i / count): the phases
    by which the number-basis rotation R^k = diag(w^(k n)) acts, R^k E R^-k =
    E * Omega[k] elementwise.

    Every entry comes from one table of the powers w^l whose entries l and
    count - l are exact conjugates (w^(count/2) is exactly -1), so
    conj(Omega[k]) is Omega[-k] and Omega[k].T is conj(Omega[k]), bitwise.
    """
    half = np.exp(2j * math.pi * np.arange(count // 2 + 1) / count)
    if count % 2 == 0:
        half[-1] = -1.0
    table = np.concatenate([half, np.conj(half[1 : (count + 1) // 2][::-1])])
    a = np.arange(d)
    return table[np.arange(count)[:, None, None] * (a[:, None] - a) % count]


def _rotated(elements: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Copies (c, o, d, d) of the elements (o, d, d) of a real POVM, rotated by
    each phase matrix of ``phases`` (c, d, d): the lower triangle of
    E * Omega, mirrored, with a real diagonal, so each copy is exactly
    Hermitian."""
    return _hermitian_lower(elements * phases[:, None])


def symmetric_family(params: FamilyParams) -> MeasurementSet:
    """The symmetric displaced on-off family after loss.

    Measurement 0 (displacement r) goes through one apply_dual on its stack;
    measurement k is its exact phase rotation R^k M^0 R^-k (the loss channel
    is phase covariant), so conj(M^k) == M^-k holds bitwise.  tau = 1 returns
    the noiseless family; the dual channel is then the identity map exactly.
    """
    first = apply_dual(params.tau, displaced_onoff(params.r, params.d))
    return MeasurementSet(_rotated(first, _rotation_phases(params.count, params.d)))


def random_two_outcome_povm(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random rank-1 projector mixed with the maximally mixed effect, as a
    stack (2, dim, dim).

    A = w P + (1 - w) I/dim with w uniform on [0, 1] and P a Haar-random
    rank-1 projector; the complement I - A is the second element.
    """
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    P = np.outer(v, v.conj())
    w = rng.uniform()
    A = w * P + (1.0 - w) * np.eye(dim) / dim
    return np.array((A, np.eye(dim, dtype=complex) - A))


def random_measurement_set(dim: int, n: int, rng: np.random.Generator) -> MeasurementSet:
    return MeasurementSet(tuple(random_two_outcome_povm(dim, rng) for _ in range(n)))
