"""Closed-form compatibility test for pairs of two-outcome qubit measurements
(Yu, Liu, Li & Oh, PRA 81:062116, 2010).

With each measurement written as A_+/- = [(1 +/- gamma) I +/- m . sigma] / 2,
the pair is incompatible if and only if

    Test = (1 - F_1^2 - F_2^2) (1 - q_1 - q_2) - (m_1 . m_2 - gamma_1 gamma_2)^2  >  0,

where q_i = (gamma_i/F_i)^2 and F_i = sqrt(det A_i,+) + sqrt(det A_i,-); gamma_i, m_i and
F_i are read off the entries of A_i,+ alone.  It is the independent oracle for the
joint-measurability solver on qubits.

F = 0 is the criterion's limit, not a refusal: gamma = det A_+ - det A_-, so
gamma/F = sqrt(det A_+) - sqrt(det A_-), |gamma/F| <= F and q = 0 at F = 0.  There A_+
is a rank-1 projector (gamma = 0, |m| = 1), and as (1 - F^2)(1 - q) = |m|^2 for every
measurement, Test = |m_1 x m_2|^2: zero iff the pair commutes, as a sharp measurement
is compatible exactly with those that commute with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurements import FamilyParams, MeasurementSet, _stack, symmetric_family


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
    array or nested lists); incompatible iff test_value > B, where
    B = 5 eps [(1 + F_1^2 + F_2^2)(1 + q_1 + q_2) + (|m_1| |m_2| + |gamma_1 gamma_2|)^2]
    bounds the rounding error of evaluating Test from the read (gamma, m, F): counting
    eps/2 per operation, 3 eps/2 |m_1| |m_2| for m_1 . m_2, and F_i <= 1, the first-order
    error is below B - 2 eps.  B does not bound the error of the reading, which is
    ill-conditioned near sharp elements: r = 1e-7, tau = 1 reads F_1 = 1.3e-15 for 7.1e-15."""
    (gamma1, m1, F1), (gamma2, m2, F2) = _reading(_stack(a)), _reading(_stack(b))
    MeasurementSet((a, b))  # refuses a pair that is not of POVMs
    q1, q2 = ((g / F) ** 2 if F else 0.0 for g, F in ((gamma1, F1), (gamma2, F2)))
    cross = float(np.dot(m1, m2)) - gamma1 * gamma2
    test = (1.0 - F1**2 - F2**2) * (1.0 - q1 - q2) - cross**2
    size = math.hypot(*m1) * math.hypot(*m2) + abs(gamma1 * gamma2)
    bound = 5 * math.ulp(1.0) * ((1 + F1**2 + F2**2) * (1 + q1 + q2) + size**2)
    return PairTestReport(gamma1, gamma2, m1, m2, F1, F2, test, test > bound)


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
    return 16.0 * tau * (2.0 * tau - 1.0) * r * r  # r * r, not r**2: no OverflowError

