"""Closed-form pair criterion and its small-displacement expansion."""

import math

import mpmath
import numpy as np
import pytest

from lossjm import measurements as meas, qubit

import oracles


def noisy_direction(axis, visibility):
    """Unbiased measurement [I +/- v sigma_axis] / 2."""
    A = (np.eye(2, dtype=complex) + visibility * oracles.PAULI[axis]) / 2
    return np.array((A, np.eye(2) - A))


class TestPairTest:
    @pytest.mark.parametrize("bad_first", [True, False], ids=["first", "second"])
    def test_refusal_messages(self, bad_first):
        # A = diag(1.5, -0.5) sums with I - A to the identity but is not PSD
        A = np.diag([1.5, -0.5]).astype(complex)
        bad, good = (A, np.eye(2) - A), noisy_direction(2, 0.9)
        pair = (bad, good) if bad_first else (good, bad)
        with pytest.raises(ValueError, match="positive semidefinite"):
            qubit.pair_test(*pair)

    def test_identical_noisy_z_compatible(self):
        p = noisy_direction(2, 0.99)
        report = qubit.pair_test(p, p)
        assert report.test_value < 0
        assert not report.incompatible

    @pytest.mark.parametrize(
        "visibility,expected_incompatible", [(0.70, False), (0.72, True)]
    )
    def test_mutually_unbiased_visibility_threshold(self, visibility, expected_incompatible):
        # oracle for unbiased orthogonal pairs: incompatible iff
        # v1^2 + v2^2 > 1, which the full criterion must reproduce at
        # gamma = 0 and m1 . m2 = 0
        z = noisy_direction(2, visibility)
        x = noisy_direction(0, visibility)
        report = qubit.pair_test(z, x)
        assert report.incompatible == expected_incompatible
        assert report.test_value == pytest.approx(2 * visibility**2 - 1, abs=1e-12)

    def test_displaced_pair_above_half_transmissivity(self):
        a, b = qubit.lossy_displaced_pair(0.005, 0.55)
        report = qubit.pair_test(a, b)
        assert report.test_value > 0
        assert report.incompatible

    def test_biased_measurements_report_bias(self):
        a, b = qubit.lossy_displaced_pair(0.015, 0.6)
        report = qubit.pair_test(a, b)
        assert abs(report.gamma1) > 0.3
        assert report.gamma1 == pytest.approx(report.gamma2, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            a = meas.random_two_outcome_povm(2, rng)
            b = meas.random_two_outcome_povm(2, rng)
            assert qubit.pair_test(a, b).test_value == pytest.approx(
                qubit.pair_test(b, a).test_value, abs=1e-12
            )

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            a = meas.random_two_outcome_povm(2, rng)
            b = meas.random_two_outcome_povm(2, rng)
            base = qubit.pair_test(a, b).test_value
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            Q, R = np.linalg.qr(z)
            U = Q * (np.diag(R) / np.abs(np.diag(R)))
            rot = lambda p: U @ p @ U.conj().T
            assert qubit.pair_test(rot(a), rot(b)).test_value == pytest.approx(
                base, abs=1e-10
            )

    @pytest.mark.parametrize(
        "axis,test,incompatible", [(2, 0.0, False), (0, 1.0, True)], ids=["zz", "zx"]
    )
    def test_sharp_pairs(self, axis, test, incompatible):
        # F = 0 for both: Test = |m_1 x m_2|^2, zero iff the projectors commute
        z = noisy_direction(2, 1.0)
        report = qubit.pair_test(z, noisy_direction(axis, 1.0))
        assert (report.F1, report.F2) == (0.0, 0.0)
        assert (report.test_value, report.incompatible) == (test, incompatible)

    def test_nested_lists_accepted(self):
        # a POVM is its elements: nested lists read as the same stack
        a, b = noisy_direction(0, 0.8), noisy_direction(2, 0.7)
        report = qubit.pair_test(a.tolist(), [list(E) for E in b])
        assert report == qubit.pair_test(a, b)
        assert report.incompatible


def rounding_bound(report):
    """B of ``qubit.pair_test``, from the fields of its report."""
    q = [(g / F) ** 2 if F else 0.0 for g, F in ((report.gamma1, report.F1),
                                                  (report.gamma2, report.F2))]
    size = math.hypot(*report.m1) * math.hypot(*report.m2) + abs(report.gamma1 * report.gamma2)
    return 5 * math.ulp(1.0) * ((1 + report.F1**2 + report.F2**2) * (1 + sum(q)) + size**2)


def exact_test(report):
    """Test of the read (gamma, m, F) of a report, in 60 digits."""
    with mpmath.workdps(60):
        g1, g2, F1, F2 = map(mpmath.mpf, (report.gamma1, report.gamma2, report.F1, report.F2))
        q = sum((g / F) ** 2 for g, F in ((g1, F1), (g2, F2)) if F)
        cross = mpmath.fsum(mpmath.mpf(x) * y for x, y in zip(report.m1, report.m2)) - g1 * g2
        return (1 - F1**2 - F2**2) * (1 - q) - cross**2


def commuting_pairs(count, seed):
    """A Haar-random sharp measurement {P, I - P} with the commuting effect
    w_1 P + w_2 (I - P), w ~ U(0, 1), and its complement."""
    rng, eye = np.random.default_rng(seed), np.eye(2)
    for _ in range(count):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = z / np.linalg.norm(z)
        P, w = np.outer(v, v.conj()), rng.uniform(size=2)
        E = w[0] * P + w[1] * (eye - P)
        yield np.array((P, eye - P)), np.array((E, eye - E))


class TestRoundingBound:
    """``incompatible`` needs Test > B, where B bounds the rounding error of
    evaluating Test from the read (gamma, m, F)."""

    def pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            yield meas.random_two_outcome_povm(2, rng), meas.random_two_outcome_povm(2, rng)
        for tau in np.linspace(0.01, 0.99, 99):
            yield qubit.lossy_displaced_pair(0.0, tau)
        yield from commuting_pairs(100, 5)

    def test_bound_covers_the_evaluation(self):
        worst = 0.0
        for a, b in self.pairs():
            report = qubit.pair_test(a, b)
            bound = rounding_bound(report)
            assert report.incompatible == (report.test_value > bound)
            worst = max(worst, float(abs(report.test_value - exact_test(report)) / bound))
        assert worst <= 1.0
        assert worst > 0.01  # the pairs do round: B is not vacuous here

    def test_zero_displacement_compatible(self):
        # r = 0: two identical measurements, compatible at every tau; Test reads
        # up to 4.4e-16 here, so test_value > 0 would call 27 of them incompatible
        for tau in [*np.linspace(0.01, 0.99, 99), 1.0]:
            report = qubit.pair_test(*qubit.lossy_displaced_pair(0.0, tau))
            assert not report.incompatible, tau

    def test_commuting_pairs_compatible(self):
        # 742 of these read F_1 = 0 exactly, and 469 read 0 < Test <= 3.3e-16:
        # rounding, not incompatibility
        for a, b in commuting_pairs(2000, 5):
            assert not qubit.pair_test(a, b).incompatible


def exact_fuzziness(A):
    """sqrt(det A) + sqrt(det(I - A)) of the stored 2x2 entries, in 60 digits."""
    with mpmath.workdps(60):
        a, d = mpmath.mpf(A[0, 0].real), mpmath.mpf(A[1, 1].real)
        off = mpmath.mpf(A[0, 1].real) ** 2 + mpmath.mpf(A[0, 1].imag) ** 2
        return mpmath.sqrt(a * d - off) + mpmath.sqrt((1 - a) * (1 - d) - off)


class TestFuzzinessPrecision:
    @pytest.mark.parametrize("tau", [0.3, 0.6, 0.9, 0.99])
    @pytest.mark.parametrize("r", [1e-3, 1e-2, 0.05, 0.2])
    def test_matches_exact_determinants(self, r, tau):
        # F from (1 +/- gamma)^2 - |m|^2 was off by up to 4.3e-11 on this grid
        # (r = 1e-3, tau = 0.9): a near-zero difference of O(1) numbers
        a, b = qubit.lossy_displaced_pair(r, tau)
        report = qubit.pair_test(a, b)
        for F, p in ((report.F1, a), (report.F2, b)):
            assert abs(F - exact_fuzziness(p[0])) <= 1e-15


class TestKrausRoute:
    def test_matches_gaussian_oracle(self):
        # the library builds the pair by the beam-splitter split; the closed-form
        # Gaussian-Husimi kernel is an independent route to the same blocks
        worst_entry = worst_test = 0.0
        for r in np.geomspace(1e-3, 1.0, 12):
            for tau in np.linspace(0.05, 1.0, 20):
                pair = qubit.lossy_displaced_pair(r, tau)
                ref = []
                for mu in (r, -r):
                    A = oracles.dual_coherent_projector(tau, mu, 2)
                    ref.append(np.array((A, np.eye(2, dtype=complex) - A)))
                for p, q in zip(pair, ref):
                    for E, F in zip(p, q):
                        worst_entry = max(worst_entry, float(np.abs(E - F).max()))
                got, want = qubit.pair_test(*pair), qubit.pair_test(*ref)
                worst_test = max(worst_test, abs(got.test_value - want.test_value))
                assert got.incompatible == want.incompatible
                assert np.sign(got.test_value) == np.sign(want.test_value)
        assert worst_entry <= 1e-15
        assert worst_test <= 1e-14


class TestFamilyRoute:
    def test_matches_per_displacement_reference(self):
        # the pair is the count-2 family at d = 2; sending each displacement's
        # on-off POVM through the dual loss channel on its own gives the same
        # entries (zeros may differ in sign)
        for r in np.linspace(0.0, 2.0, 41):
            for tau in np.linspace(0.0, 1.0, 31):
                got = qubit.lossy_displaced_pair(r, tau)
                want = oracles.displaced_pair_reference(r, tau)
                for p, q in zip(got, want):
                    for E, F in zip(p, q):
                        assert np.array_equal(E, F), (r, tau)


class TestLeadingOrder:
    def test_prediction_value(self):
        test, predicted = oracles.leading_order_check(0.01, 0.6)
        assert predicted == pytest.approx(1.92e-4, rel=1e-12)
        assert test == pytest.approx(predicted, rel=0.05)

    def test_huge_amplitude(self):
        # r^2 overflows past r = 1.34e154; the prediction is then +-inf, 0 or,
        # when the coefficient is small enough, finite
        assert qubit.leading_order_prediction(1e200, 0.75) == math.inf
        assert qubit.leading_order_prediction(1e200, 0.25) == -math.inf
        assert qubit.leading_order_prediction(1e200, 0.5) == 0.0
        assert qubit.leading_order_prediction(1e155, 1e-300) == pytest.approx(-1.6e11)

    def test_negative_below_half(self):
        test, predicted = oracles.leading_order_check(0.01, 0.4)
        assert predicted == pytest.approx(-1.28e-4, rel=1e-12)
        assert test < 0
        assert test == pytest.approx(predicted, rel=0.05)

    def test_quartic_remainder_at_half(self):
        # the leading term vanishes at tau = 1/2; what remains scales as r^4
        rs = [0.02, 0.01, 0.005]
        tests = [oracles.leading_order_check(r, 0.5)[0] for r in rs]
        C = abs(tests[0]) / rs[0] ** 4
        for r, t in zip(rs, tests):
            assert abs(t) <= 1.5 * C * r**4

    @pytest.mark.parametrize("tau", [0.55, 0.6, 0.75])
    def test_deviation_shrinks_quadratically(self, tau):
        r = 0.01
        t1, p1 = oracles.leading_order_check(r, tau)
        t2, p2 = oracles.leading_order_check(r / 2, tau)
        dev1 = abs(t1 - p1)
        dev2 = abs(t2 - p2)
        assert dev2 <= dev1 / 3.0  # ~4x shrink for an O(r^4) remainder
