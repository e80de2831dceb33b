"""Constructive joint measurability through a linear-optical network.

Splitting the signal over n output arms with transmissivities tau_k
(correctly rounded sum at most 1; any deficit leaks into one extra arm) and
measuring M^j on arm j realizes the parent POVM

    G_(a_1,...,a_n) = <vac| U^dag (M^1_{a_1} x ... x M^n_{a_n}) U |vac>,

where U is the network's Fock-space unitary and the compression is over the
ancilla arms prepared in vacuum.  Its j-th marginal equals the dual-loss
image of M^j at transmissivity tau_j, exactly: the network conserves photon
number, so the truncated computation reproduces the untruncated matrix
elements.  An extra loss channel of transmissivity eta in front of the
network needs no parameter of its own: it is the same network with arm
transmissivities eta * tau_k and a leak arm of weight 1 - eta * sum(tau).

The network is built as a chain of the beam splitters of
:mod:`lossjm.loss`: arm k takes a share s_k = tau_k / sum_{j >= k} tau_j
(the leak weight included) of the photons that reach it and passes the rest
on, so r photons split as k into the arm and r - k onward with amplitude
B[r, k] = sqrt(C(r, k) s_k^k (1 - s_k)^(r - k)).  Contracting the arms
from last to first keeps one d x d block per outcome tuple of the arms
already contracted, indexed by the photon numbers still to be split:

    R'[t, u, r, r'] = sum_{k, k'} B[r, k] B[r', k'] M_t[k, k'] R[u, r - k, r' - k'],

starting from the identity (the leak arm measures nothing, so it is never
contracted), with the Hermitian rule of ``loss.apply_dual``: a single arm
with share tau is that dual loss channel, bit for bit.  With T outcome
tuples this costs O(T d^4) time and O(T d^2) memory, against the d^n Fock
grid of the n measured arms.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import _hermitian_lower
from .loss import _chain_step, _split_amplitudes, apply_dual
from .measurements import MeasurementSet, ParentPovm

# Kept limit on the measured arms: d ** n above this is refused, although the
# chain never forms that grid (the leak arm, never contracted, is not counted).
MAX_GRID = 1 << 17


def lon_parent(mset: MeasurementSet, taus) -> ParentPovm:
    """Parent POVM for the dual-loss images {E*_{tau_j}(M^j)}.

    ``taus`` lists one arm transmissivity per measurement with sum at most
    1, the sum taken as ``math.fsum`` rounds it: [1/11] * 11 sums to exactly
    1.0.  Any positive deficit 1 - sum(taus) leaks into one unmeasured arm.
    A loss channel of transmissivity eta in front of the network is the same
    network at ``[eta * t for t in taus]``.

    Raises ValueError when a transmissivity is negative, infinite or NaN,
    when the sum exceeds 1 (no quantum channel has all the required loss
    channels as its single-arm marginals), or when d ** n exceeds MAX_GRID.
    """
    taus = [float(t) for t in taus]
    n = len(mset)
    if len(taus) != n:
        raise ValueError("need exactly one transmissivity per measurement")
    if any(not 0.0 <= t < math.inf for t in taus):  # refuses NaN too
        raise ValueError("transmissivities must be finite and non-negative")
    total = math.fsum(taus)
    if total > 1.0:
        raise ValueError(
            f"sum of transmissivities {total!r} exceeds 1; "
            "no channel has these loss channels as marginals"
        )

    d = mset.dim
    if d**n > MAX_GRID:
        raise ValueError(
            f"multimode grid {d}^{n} exceeds the desk-scale limit {MAX_GRID}"
        )

    # The leak arm is last in the chain and measures nothing, so contracting
    # it leaves the identity.
    suffix = 1.0 - total
    R = np.eye(d, dtype=complex)[None]
    for j in reversed(range(n)):
        suffix += taus[j]  # weight of arm j and of every arm after it
        s = taus[j] / suffix if suffix > 0.0 else 1.0  # no photon reaches arm j
        R = _chain_step(mset.povms[j], _split_amplitudes(s, d), R)
    return ParentPovm(tuple(len(p) for p in mset), _hermitian_lower(R))


def verify_marginal_identity(mset: MeasurementSet, taus) -> float:
    """Worst-case gap between the parent marginals and the dual-loss images,
    each image one ``apply_dual`` call on a measurement's element stack.

    Returns max over measurements j and outcomes a of
    || marginal_j(parent)_a - E*_{tau_j}(M^j_a) ||_max, which is zero up to
    rounding because both sides are exact under truncation.
    """
    taus = list(taus)  # read once: lon_parent and the images both need it
    parent = lon_parent(mset, taus)
    images = tuple(apply_dual(float(t), p) for p, t in zip(mset, taus))
    return parent.marginal_residual(MeasurementSet(images))
