"""POVM construction, loss images, truncation, and the Bloch picture."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from lossjm import loss, measurements as meas, parent, qubit

import oracles


class TestDisplacedOnoff:
    def test_vacuum_detection_qubit(self):
        p = meas.displaced_onoff(0.0, 2)
        assert np.array_equal(p.elements[0], np.diag([1.0 + 0j, 0.0]))
        assert np.array_equal(p.elements[1], np.diag([0.0 + 0j, 1.0]))

    def test_click_element_trace(self):
        # trace of the projective element is the truncated-ket norm, short of
        # 1 by the Poisson tail beyond the cutoff
        mu, d = 0.005, 3
        p = meas.displaced_onoff(mu, d)
        with mpmath.workdps(40):
            lam = mpmath.mpf(abs(mu)) ** 2
            tail = float(
                sum(mpmath.e ** (-lam) * lam**m / mpmath.factorial(m) for m in range(d, 60))
            )
        assert np.trace(p.elements[0]).real == pytest.approx(1.0 - tail, abs=5e-16)

    @pytest.mark.parametrize("mu", [0.0, 0.4, -0.2 + 0.7j])
    @pytest.mark.parametrize("d", [2, 5])
    def test_complement_sums_to_identity(self, mu, d):
        p = meas.displaced_onoff(mu, d)
        assert np.abs(sum(p.elements) - np.eye(d)).max() < 1e-15
        oracles.validate(p)


class TestSymmetricFamily:
    def test_single_measurement(self):
        mset = meas.symmetric_family(meas.FamilyParams(1, 0.3, 0.5, 4))
        assert len(mset) == 1
        oracles.validate(mset.povms[0])

    def test_benchmark_triple(self):
        params = meas.FamilyParams(3, 0.005, 0.5 + 0.00005, 3)
        mset = meas.symmetric_family(params)
        assert len(mset) == 3
        assert mset.dim == 3
        for p in mset:
            assert p.outcomes == 2
            oracles.validate(p)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, r):
        # r < 0 lets NaN through; r = inf reached the Fock construction
        with pytest.raises(ValueError, match="r must be finite"):
            meas.FamilyParams(2, r, 0.5, 3)

    @pytest.mark.parametrize("value", [3.0, 3.5, "3"])
    @pytest.mark.parametrize("field", ["count", "d"])
    def test_non_integer_count_and_cutoff_rejected(self, field, value):
        # FamilyParams(3.0, ...) once passed and failed inside symmetric_family
        fields = {"count": 3, "r": 0.1, "tau": 0.5, "d": 3, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            meas.FamilyParams(**fields)

    def test_numpy_integer_count_and_cutoff_accepted(self):
        params = meas.FamilyParams(np.int64(3), 0.1, 0.5, np.int64(3))
        assert len(meas.symmetric_family(params)) == 3

    def test_distinct_displacements_give_distinct_povms(self):
        mset = meas.symmetric_family(meas.FamilyParams(2, 0.1, 1.0, 2))
        a, b = mset.povms
        assert np.abs(a.elements[0] - b.elements[0]).max() > 1e-3

    def test_lossless_family_is_projective(self):
        params = meas.FamilyParams(2, 0.1, 1.0, 4)
        for p, mu in zip(meas.symmetric_family(params), oracles.displacements(params)):
            assert np.abs(p.elements[0] - meas.coherent_projector(mu, 4)).max() < 1e-14

    @pytest.mark.parametrize("tau", [0.2512, 0.50005, 0.9])
    def test_lossy_povm_one_dual_call_per_povm(self, monkeypatch, tau):
        rng = np.random.default_rng(17)
        povms = [meas.displaced_onoff(0.3 - 0.1j, 4), meas.random_two_outcome_povm(5, rng)]
        calls = []

        def counted(t, M):
            calls.append(np.shape(M))
            return loss.apply_dual(t, M)

        monkeypatch.setattr(meas, "apply_dual", counted)
        for p in povms:
            out = meas.lossy_povm(p, tau)
            for E, image in zip(p.elements, out.elements):
                alone = loss.apply_dual(tau, E)
                assert np.array_equal(image, image.conj().T)
                assert np.abs(image - alone).max() <= 1e-15 * np.abs(alone).max()
        assert calls == [(2, 4, 4), (2, 5, 5)]
        assert meas.lossy_povm(povms[0], 1.0) is povms[0]

    @pytest.mark.parametrize("tau", [1.0, 0.50005, 0.0913])
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_rotation_matches_per_povm_construction(self, d, tau):
        for count in range(1, 17):
            params = meas.FamilyParams(count, 0.3, tau, d)
            family = meas.symmetric_family(params)
            for p, mu in zip(family, oracles.displacements(params)):
                alone = meas.lossy_povm(meas.displaced_onoff(mu, d), tau)
                for E, F in zip(p.elements, alone.elements):
                    assert np.array_equal(E, E.conj().T)
                    assert np.abs(E - F).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_covariance_is_bitwise(self, d):
        # conj(M^k) == M^-k and M^k == R^k M^0 R^-k in the phases the solver
        # compares against, with no tolerance
        for count in range(1, 17):
            family = meas.symmetric_family(meas.FamilyParams(count, 0.2, 0.6, d))
            first = np.stack(family.povms[0].elements)
            assert not first.imag.any()
            rotated = meas._rotated(first, meas._rotation_phases(count, d))
            for k, p in enumerate(family):
                mirror = family.povms[-k % count]
                for a, E in enumerate(p.elements):
                    assert np.array_equal(E.conj(), mirror.elements[a])
                    assert np.array_equal(E, rotated[k, a])

    def test_one_dual_call_per_family(self, monkeypatch):
        calls = []

        def counted(t, M):
            calls.append(np.shape(M))
            return loss.apply_dual(t, M)

        monkeypatch.setattr(meas, "apply_dual", counted)
        meas.symmetric_family(meas.FamilyParams(7, 0.1, 0.3, 4))
        assert calls == [(2, 4, 4)]

    @pytest.mark.parametrize("count,r,tau", [(3, 0.005, 0.50005), (5, 0.065, 0.2512)])
    def test_validity_after_loss_and_projection(self, count, r, tau):
        for d in (2, 3, 5):
            for p in meas.symmetric_family(meas.FamilyParams(count, r, tau, d)):
                oracles.validate(p)


class TestProjection:
    """Loss and the network only split or lower the photon number, so what is
    built at k levels is, bit for bit, the leading block of what is built at
    d > k levels."""

    def test_blocks_are_subblocks(self):
        for tau in (0.0, 0.25, 0.6, 1.0):
            params = meas.FamilyParams(3, 0.3, tau, 8)
            full = meas.symmetric_family(params)
            for k in (2, 3, 5):
                sub = meas.symmetric_family(dataclasses.replace(params, d=k))
                for p, q in zip(full, sub):
                    for E, F in zip(p.elements, q.elements):
                        assert np.array_equal(E[:k, :k], F)

    @pytest.mark.parametrize("taus", [[0.25] * 3, [0.2, 0.3, 0.1]])
    def test_parent_blocks_are_subblocks(self, taus):
        params = meas.FamilyParams(3, 0.3, 1.0, 8)
        full = parent.lon_parent(meas.symmetric_family(params), taus)
        for k in (2, 3, 5):
            noiseless = meas.symmetric_family(dataclasses.replace(params, d=k))
            sub = parent.lon_parent(noiseless, taus)
            assert np.array_equal(full.blocks[:, :k, :k], sub.blocks)


class TestBlochParams:
    """The gamma1, m1 (and gamma2, m2) that ``qubit.pair_test`` reads off the
    first elements, against their Pauli traces in ``oracles.bloch_params``."""

    def test_projective_z(self):
        # F = 0, so pair_test refuses the pair; the reading behind it holds
        p = meas.Povm((np.diag([1.0 + 0j, 0.0]), np.diag([0.0 + 0j, 1.0])))
        with pytest.raises(qubit.DegenerateMeasurementError):
            qubit.pair_test(p, p)
        gamma, m, F = qubit._reading(p)
        assert (gamma, m, F) == (0.0, (0.0, 0.0, 1.0), 0.0)
        assert (gamma, m) == oracles.bloch_params(p.elements[0])

    def test_trivial_measurement(self):
        p = meas.Povm((np.eye(2) / 2, np.eye(2) / 2))
        report = qubit.pair_test(p, p)
        assert report.gamma1 == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(report.m1, [0, 0, 0])

    def test_lossy_displaced_element_is_biased(self):
        # oracle: traces of the Kraus-route matrix
        tau, mu = 0.6, 0.015
        A = loss.apply_dual(tau, meas.coherent_projector(mu, 2))
        p = meas.Povm((A, np.eye(2) - A))
        report = qubit.pair_test(p, p)
        gamma, m = oracles.bloch_params(A)
        assert report.gamma1 == pytest.approx(gamma, abs=1e-15)
        assert abs(report.gamma1) > 0.3  # distinctly biased
        assert np.allclose(report.m1, m, atol=1e-15)

    def test_lossy_displaced_pair_exact(self):
        # the entries and the Pauli traces agree exactly on the pair the
        # qubit-pair command decides, and no zero component is written -0.0
        for r in np.geomspace(1e-6, 30, 13):
            for tau in np.linspace(0.01, 0.99, 9):
                a, b = qubit.lossy_displaced_pair(r, tau)
                report = qubit.pair_test(a, b)
                assert (report.gamma1, report.m1) == oracles.bloch_params(a.elements[0])
                assert (report.gamma2, report.m2) == oracles.bloch_params(b.elements[0])
                assert all(math.copysign(1.0, x) > 0 for x in report.m1 + report.m2 if x == 0)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = meas.random_two_outcome_povm(2, rng)
            b = meas.random_two_outcome_povm(2, rng)
            report = qubit.pair_test(a, b)
            for gamma, m, p in ((report.gamma1, report.m1, a), (report.gamma2, report.m2, b)):
                assert np.abs(oracles.bloch_reconstruct(gamma, m) - p.elements[0]).max() < 1e-12

    def test_rejects_wrong_shape(self):
        good = meas.Povm((np.eye(2) / 2,) * 2)
        for bad, msg in (
            (meas.Povm((np.eye(3) / 3,) * 3), "dimension 2"),
            (meas.Povm((np.eye(2) / 3,) * 3), "exactly two outcomes"),
        ):
            for pair in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match=msg):
                    qubit.pair_test(*pair)


class TestRotationalCovariance:
    def test_phase_conjugation(self):
        # multiplying every displacement by a global phase conjugates every
        # element by the number-basis phase unitary
        d, r, tau, phi = 4, 0.3, 0.7, 0.83
        base = meas.FamilyParams(3, r, tau, d)
        rotated = [
            meas.lossy_povm(meas.displaced_onoff(mu * np.exp(1j * phi), d), tau)
            for mu in oracles.displacements(base)
        ]
        D = oracles.phase_rotation(phi, d)
        for p, q in zip(meas.symmetric_family(base), rotated):
            for E, F in zip(p.elements, q.elements):
                assert np.abs(D @ E @ D.conj().T - F).max() < 1e-10

    def test_pair_verdict_invariant_under_rotation(self):
        from lossjm import qubit

        d, r, tau = 2, 0.1, 0.7
        def pair_with_phase(phi):
            povms = [
                meas.lossy_povm(
                    meas.displaced_onoff(r * s * np.exp(1j * phi), d), tau
                )
                for s in (1, -1)
            ]
            return qubit.pair_test(povms[0], povms[1])

        base = pair_with_phase(0.0)
        for phi in (0.4, 1.9, 3.7):
            rotated = pair_with_phase(phi)
            assert rotated.incompatible == base.incompatible
            assert rotated.test_value == pytest.approx(base.test_value, abs=1e-10)


class TestRandomSets:
    def test_generator_is_reproducible(self):
        a = meas.random_measurement_set(3, 2, np.random.default_rng(42))
        b = meas.random_measurement_set(3, 2, np.random.default_rng(42))
        for p, q in zip(a, b):
            for E, F in zip(p.elements, q.elements):
                assert np.array_equal(E, F)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_povms_valid(self, dim):
        rng = np.random.default_rng(7)
        for _ in range(20):
            oracles.validate(meas.random_two_outcome_povm(dim, rng))


def _set_with(A, B=None):
    """A set of a valid pair and the pair (A, I - A), or (A, B)."""
    A = np.asarray(A, dtype=complex)
    pair = meas.Povm((A, np.eye(2) - A if B is None else np.asarray(B, dtype=complex)))
    return meas.MeasurementSet((meas.displaced_onoff(0.1, 2), pair))


def test_set_with_sum_within_tol_loads():
    assert _set_with(0.5 * np.eye(2), (0.5 + 5e-9) * np.eye(2)).rows.shape == (4, 2, 2)


def test_rows_are_the_marginal_order():
    # a product of diagonal POVMs is a parent whose marginals are exactly the
    # elements; three measurements with 2, 3 and 2 outcomes
    diag = [np.random.default_rng(5).dirichlet(np.ones(o), size=3).T for o in (2, 3, 2)]
    mset = meas.MeasurementSet(tuple(meas.Povm(tuple(np.diag(w) for w in p)) for p in diag))
    blocks = np.einsum("ai,bi,ci->abci", *diag).reshape(12, 3)  # each block's diagonal
    parent_ = meas.ParentPovm((2, 3, 2), np.stack([np.diag(b) for b in blocks]))
    assert np.array_equal(mset.rows, np.concatenate([np.stack(p.elements) for p in mset]))
    assert np.abs(parent_.marginals() - mset.rows).max() <= 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: meas.Povm(()), "a POVM needs at least one element"),
    (lambda: meas.Povm((np.zeros((0, 0)),)), "square matrices of size at least 1"),
    (lambda: meas.Povm((1.0,)), "square matrices of size at least 1"),
    (lambda: meas.Povm((np.eye(2), np.eye(3))), "POVM elements must share one square shape"),
    (lambda: meas.MeasurementSet(()), "a measurement set needs at least one POVM"),
    (lambda: meas.MeasurementSet((meas.displaced_onoff(0.1, 2), meas.displaced_onoff(0.1, 3))),
     "all POVMs must share one dimension"),
    # each defective pair is Hermitian PSD and sums to I but for its one defect
    (lambda: _set_with([[0.5, 0.1], [0.1, np.nan]]), r"finite \(no NaN or infinity\)"),
    (lambda: _set_with([[0.5, 0.1], [0.1, np.inf]]), r"finite \(no NaN or infinity\)"),
    (lambda: _set_with([[0.5, 0.1], [0, 0.5]]), "Hermitian and positive semidefinite"),
    (lambda: _set_with(np.diag([1.5, -0.5])), "Hermitian and positive semidefinite"),
    (lambda: _set_with(0.5 * np.eye(2), (0.5 + 2e-8) * np.eye(2)), "sum to the identity"),
    # robustness once called two copies of this pair INCOMPATIBLE, eta_hi 0.5
    (lambda: meas.MeasurementSet((meas.Povm(([[0.5, 2], [0, 0.5]], 0.3 * np.eye(2))),) * 2),
     "Hermitian"),
    (lambda: meas.ParentPovm((2, 2), np.zeros((3, 2, 2))),
     r"blocks must have shape \(prod\(outcome_counts\), d, d\)"),
    # np.prod wraps these counts to 0 and to a negative number
    (lambda: meas.ParentPovm((2,) * 64, np.zeros((0, 2, 2))), r"blocks must have shape"),
    (lambda: meas.ParentPovm((3,) * 41, np.zeros((0, 2, 2))), r"blocks must have shape"),
    (lambda: meas.ParentPovm((), np.zeros((1, 2, 2))), "at least one count, each >= 1"),
    (lambda: meas.ParentPovm((0, 2), np.zeros((0, 2, 2))), "at least one count, each >= 1"),
    (lambda: meas.ParentPovm((-2, -1), np.zeros((2, 2, 2))), "at least one count, each >= 1"),
    # a float count was truncated: (2.9, 2.2) loaded as (2, 2)
    (lambda: meas.ParentPovm((2.9, 2.2), np.zeros((4, 2, 2))),
     "each outcome count must be an integer, got 2.9"),
    (lambda: meas.ParentPovm((2, 2.0), np.zeros((4, 2, 2))),
     "each outcome count must be an integer, got 2.0"),
    (lambda: meas.FamilyParams(2, 0.1, 1.5, 3), r"tau must lie in \[0, 1\]"),
    (lambda: meas.FamilyParams(2, 0.1, math.nan, 3), r"tau must lie in \[0, 1\]"),
    (lambda: meas.FamilyParams(2, 0.1, 0.5, 1), "d must be >= 2"),
    (lambda: meas.displaced_onoff(0.1, 1), "d must be >= 2"),
], ids=["no-element", "empty-element", "scalar-element", "shapes", "no-povm", "dimensions",
        "set-nan", "set-inf", "set-non-hermitian", "set-not-psd", "set-sum-off-past-tol",
        "set-non-povm-pair",
        "parent-blocks", "parent-count-wraps-to-0", "parent-count-wraps-negative",
        "parent-no-count", "parent-zero-count", "parent-negative-counts",
        "parent-float-counts", "parent-integral-float-count", "tau", "tau-nan",
        "family-d", "onoff-d"])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()
