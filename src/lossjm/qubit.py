"""Closed-form compatibility test for pairs of two-outcome qubit measurements.

With each measurement written as A_+/- = [(1 +/- gamma) I +/- m . sigma] / 2,
the pair is incompatible if and only if

    Test = (1 - F_1^2 - F_2^2) (1 - (gamma_1/F_1)^2 - (gamma_2/F_2)^2)
           - (m_1 . m_2 - gamma_1 gamma_2)^2  >  0,

where F_i = [sqrt((1 + gamma_i)^2 - |m_i|^2) + sqrt((1 - gamma_i)^2 - |m_i|^2)] / 2
= sqrt(det A_i,+) + sqrt(det A_i,-).  gamma_i, m_i and F_i are read off the
entries of A_i,+ alone.  This is the standard criterion for biased pairs and
serves as the independent oracle for the joint-measurability solver on qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurements import FamilyParams, MeasurementSet, _stack, symmetric_family

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


def _reading(povm: np.ndarray) -> tuple[float, tuple[float, float, float], float]:
    """(gamma, m, F) of a two-outcome qubit POVM (a stack), read off the entries
    a, b, d = A00, A01, A11 of its first element A: gamma = a + d - 1,
    m = (2 Re b, -2 Im b, a - d) and F = sqrt(det A) + sqrt(det(I - A)), with
    4 det A = (1 + gamma)^2 - |m|^2 formed from the entries, not as that
    difference of O(1) numbers, which lost 3-4 digits on near-rank-1 elements."""
    if povm.shape[1] != 2:
        raise ValueError("the pair criterion requires dimension 2")
    if len(povm) != 2:
        raise ValueError("the pair criterion requires exactly two outcomes")
    A = povm[0]
    a, b, d = A[0, 0].real, A[0, 1], A[1, 1].real
    off = b.real**2 + b.imag**2
    dets = (a * d - off, (1.0 - a) * (1.0 - d) - off)
    F = sum(math.sqrt(max(x, 0.0)) for x in dets)
    m = (2.0 * b.real, -2.0 * b.imag, a - d)
    return float(a + d) - 1.0, tuple(float(x) + 0.0 for x in m), F  # + 0.0 turns -0.0 to 0.0


def pair_test(a, b) -> PairTestReport:
    """Evaluate the pair criterion on two POVMs, each a stack of elements (an
    array or nested lists); incompatible iff test_value > 0."""
    (gamma1, m1, F1), (gamma2, m2, F2) = _reading(_stack(a)), _reading(_stack(b))
    MeasurementSet((a, b))  # refuses a pair that is not of POVMs
    if F1 < DEGENERATE_F_TOL or F2 < DEGENERATE_F_TOL:
        raise DegenerateMeasurementError(
            "measurement with vanishing fuzziness: criterion undefined"
        )
    cross = float(np.dot(m1, m2)) - gamma1 * gamma2
    test = (1.0 - F1**2 - F2**2) * (1.0 - (gamma1 / F1) ** 2 - (gamma2 / F2) ** 2) - cross**2
    return PairTestReport(gamma1, gamma2, m1, m2, F1, F2, test, test > 0)


def lossy_displaced_pair(r: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
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

