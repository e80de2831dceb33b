"""Closed-form compatibility test for pairs of two-outcome qubit measurements.

With each measurement written as A_+/- = [(1 +/- gamma) I +/- m . sigma] / 2,
the pair is incompatible if and only if

    Test = (1 - F_1^2 - F_2^2) (1 - (gamma_1/F_1)^2 - (gamma_2/F_2)^2)
           - (m_1 . m_2 - gamma_1 gamma_2)^2  >  0,

where F_i = [sqrt((1 + gamma_i)^2 - |m_i|^2) + sqrt((1 - gamma_i)^2 - |m_i|^2)] / 2
= sqrt(det A_i,+) + sqrt(det A_i,-).
This is the standard criterion for biased pairs and serves as the independent
oracle for the joint-measurability solver on qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurements import FamilyParams, Povm, bloch_params, symmetric_family

DEGENERATE_F_TOL = 1e-12


class DegenerateMeasurementError(ValueError):
    """Raised when some F_i vanishes: both elements of a measurement are
    singular and the closed-form criterion does not apply; defer to the
    solver for such pairs."""


@dataclass(frozen=True)
class PairTestReport:
    """Criterion inputs and value; Bloch vectors m1, m2 in Pauli order (x, y, z)."""

    gamma1: float
    gamma2: float
    m1: tuple[float, float, float]
    m2: tuple[float, float, float]
    F1: float
    F2: float
    test_value: float
    incompatible: bool


def _fuzziness(A: np.ndarray) -> float:
    """F = sqrt(det A) + sqrt(det(I - A)) from the 2x2 entries of the first
    element A: 4 det A = (1 + gamma)^2 - |m|^2 without forming that difference
    of O(1) numbers, which lost 3-4 digits on near-rank-1 elements."""
    a, b, d = A[0, 0].real, A[0, 1], A[1, 1].real
    off = b.real**2 + b.imag**2
    dets = (a * d - off, (1.0 - a) * (1.0 - d) - off)
    if 4.0 * min(dets) < -1e-10:
        raise ValueError("Bloch parameters violate POVM positivity")
    return sum(math.sqrt(max(x, 0.0)) for x in dets)


def pair_test(a: Povm, b: Povm) -> PairTestReport:
    """Evaluate the pair criterion; incompatible iff test_value > 0."""
    pa, pb = bloch_params(a), bloch_params(b)
    F1, F2 = _fuzziness(a.elements[0]), _fuzziness(b.elements[0])
    if F1 < DEGENERATE_F_TOL or F2 < DEGENERATE_F_TOL:
        raise DegenerateMeasurementError(
            "measurement with vanishing fuzziness: criterion undefined"
        )
    cross = float(pa.m @ pb.m) - pa.gamma * pb.gamma
    test = (1.0 - F1**2 - F2**2) * (
        1.0 - (pa.gamma / F1) ** 2 - (pb.gamma / F2) ** 2
    ) - cross**2
    return PairTestReport(
        gamma1=pa.gamma,
        gamma2=pb.gamma,
        m1=tuple(pa.m.tolist()),
        m2=tuple(pb.m.tolist()),
        F1=F1,
        F2=F2,
        test_value=test,
        incompatible=test > 0,
    )


def lossy_displaced_pair(r: float, tau: float) -> tuple[Povm, Povm]:
    """The mu = +r / -r displaced on-off pair after loss, on the qubit block:
    the count-2 symmetric family at d = 2.

    Truncation commutes with the dual loss channel, so the leading 2x2 block
    computed directly equals the projection of any higher-cutoff computation.
    """
    a, b = symmetric_family(FamilyParams(2, r, tau, 2))
    return a, b


def leading_order_prediction(r: float, tau: float) -> float:
    """Small-r form 16 tau (2 tau - 1) r^2 of Test for the lossy displaced pair."""
    coef = 16.0 * tau * (2.0 * tau - 1.0)
    try:
        return coef * r**2
    except OverflowError:  # r^2 past the float range: the product may still fit
        return coef * r * r

