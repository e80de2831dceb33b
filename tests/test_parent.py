"""Network parent construction and the marginal identity."""

import itertools
import math

import numpy as np
import pytest

from lossjm import compat, loss, measurements as meas, parent

import oracles


def vacuum_onoff(d):
    return meas.displaced_onoff(0.0, d)


class TestLonParent:
    def test_trivial_measurements(self):
        d = 3
        trivial = (np.eye(d, dtype=complex), np.zeros((d, d)))
        par = parent.lon_parent(meas.MeasurementSet((trivial, trivial)), [0.5, 0.5])
        assert np.abs(oracles.element(par, (0, 0)) - np.eye(d)).max() < 1e-12
        for t in [(0, 1), (1, 0), (1, 1)]:
            assert np.abs(oracles.element(par, t)).max() < 1e-12

    def test_balanced_vacuum_onoff_validity(self):
        d = 4
        mset = meas.MeasurementSet((vacuum_onoff(d), vacuum_onoff(d)))
        par = parent.lon_parent(mset, [0.5, 0.5])
        assert par.psd_residual() <= 1e-10
        # the rows of measurement 0 sum to the identity
        assert np.abs(par.marginals()[:2].sum(axis=0) - np.eye(d)).max() <= 1e-10

    def test_marginals_are_lossy_images(self):
        rng = np.random.default_rng(41)
        mset = meas.random_measurement_set(6, 2, rng)
        par = parent.lon_parent(mset, [0.5, 0.5])
        marg = par.marginals()
        for j in range(2):
            for a in range(2):
                expect = loss.apply_dual(0.5, mset.povms[j][a])
                assert np.abs(marg[2 * j + a] - expect).max() < 1e-10

    def test_rejects_oversubscribed_transmissivities(self):
        mset = meas.MeasurementSet((vacuum_onoff(3), vacuum_onoff(3)))
        with pytest.raises(ValueError):
            parent.lon_parent(mset, [0.6, 0.6])

    @pytest.mark.parametrize("taus, message", [
        ([0.5], "need exactly one transmissivity per measurement"),
        ([0.5, 0.2, 0.2], "need exactly one transmissivity per measurement"),
        ([-0.1, 0.5], "transmissivities must be finite and non-negative"),
        ([math.inf, 0.5], "transmissivities must be finite and non-negative"),
        ([math.nan, 0.5], "transmissivities must be finite and non-negative"),
        ([0.5, math.nan], "transmissivities must be finite and non-negative"),
        ([math.nan, math.nan], "transmissivities must be finite and non-negative"),
        ([0.6, 0.6], "exceeds 1"),
        ([0.5, 0.5 + 1e-13], r"sum of transmissivities 1\.0000000000001 exceeds 1"),
        ([0.5, 0.5 + 2**-52], r"sum of transmissivities 1\.0000000000000002 exceeds 1"),
    ], ids=["short", "long", "negative", "inf", "nan-first", "nan-last", "nan-both", "sum",
            "sum-1e-13", "sum-one-ulp"])
    def test_refusal_messages(self, taus, message):
        # a NaN once passed both checks and took every photon into one arm;
        # a sum up to 1 + 1e-12 was once accepted, and printed as 1.000000
        mset = meas.MeasurementSet((vacuum_onoff(3), vacuum_onoff(3)))
        with pytest.raises(ValueError, match=message):
            parent.lon_parent(mset, taus)

    def test_validity_for_random_sets(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            mset = meas.random_measurement_set(4, n, rng)
            par = parent.lon_parent(mset, [1.0 / n] * n)
            assert par.psd_residual() <= 1e-10
            assert np.abs(par.marginals()[:2].sum(axis=0) - np.eye(4)).max() <= 1e-10

    def test_grid_size_guard(self):
        # only the measured arms count, not the leak arm of the deficit:
        # 24**3 = 13,824 is fine, 51**3 = 132,651 is not
        mset = meas.MeasurementSet(tuple(vacuum_onoff(24) for _ in range(3)))
        parent.lon_parent(mset, [0.2, 0.2, 0.2])
        big = meas.MeasurementSet(tuple(vacuum_onoff(51) for _ in range(3)))
        with pytest.raises(ValueError, match=r"multimode grid 51\^3 exceeds the desk-scale limit"):
            parent.lon_parent(big, [0.2, 0.2, 0.2])

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_one_arm_is_the_dual_loss_channel(self, d):
        # a single arm with share tau is apply_dual, Hermitian rule included
        p = meas.random_two_outcome_povm(d, np.random.default_rng(d))
        for tau in np.linspace(0.0, 1.0, 21):
            got = parent.lon_parent(meas.MeasurementSet((p,)), [tau]).blocks
            want = loss.apply_dual(tau, p)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), f"tau = {tau}"

    def test_large_cutoff_stays_finite(self):
        # a cutoff far above the table's d = 3: the splitting amplitudes and
        # the chain stay finite, and the marginals stay exact
        rng = np.random.default_rng(67)
        mset = meas.random_measurement_set(60, 2, rng)
        par = parent.lon_parent(mset, [0.5, 0.5])
        assert np.isfinite(par.blocks).all()
        marg = par.marginals()
        for j in range(2):
            for a in range(2):
                expect = loss.apply_dual(0.5, mset.povms[j][a])
                assert np.abs(marg[2 * j + a] - expect).max() < 1e-10


def network_oracle(mset, taus, eta):
    """<vac| U^dag (M^1 x ... x M^n) U |vac> on the full d**m Fock grid."""
    d, n = mset.dim, len(mset)
    transfer = oracles.complete_unitary(np.sqrt(taus))
    m = transfer.shape[0]
    # columns U |i, 0, ..., 0>: the signal enters arm 1, the others are vacuum
    V = oracles.lon_unitary(transfer, d)[:, [i * d ** (m - 1) for i in range(d)]]
    blocks = []
    for t in itertools.product(*[range(len(p)) for p in mset]):
        op = np.eye(1)
        for j in range(n):
            op = np.kron(op, mset.povms[j][t[j]])
        op = np.kron(op, np.eye(d ** (m - n)))  # unmeasured deficit arm
        el = V.conj().T @ op @ V
        blocks.append(loss.apply_dual(eta, (el + el.conj().T) / 2))
    return np.array(blocks)


class TestNetworkOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize(
        "taus",
        [[0.5, 0.5], [0.2, 0.3], [1 / 3, 1 / 3, 1 / 3], [0.1, 0.4, 0.3]],
        ids=["pair", "pair-deficit", "triple", "triple-deficit"],
    )
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_matches_fock_grid_unitary(self, d, taus, eta):
        # a loss channel at eta in front of the network is the network with
        # every arm transmissivity scaled by eta
        rng = np.random.default_rng(71 + d)
        mset = meas.random_measurement_set(d, len(taus), rng)
        par = parent.lon_parent(mset, [eta * t for t in taus])
        assert np.abs(par.blocks - network_oracle(mset, taus, eta)).max() <= 1e-12


class TestMarginalIdentity:
    def test_balanced_pair_vacuum_onoff(self):
        mset = meas.MeasurementSet((vacuum_onoff(6), vacuum_onoff(6)))
        assert parent.verify_marginal_identity(mset, [0.5, 0.5]) <= 1e-11

    def test_three_displaced_measurements(self):
        d = 4
        povms = tuple(
            meas.displaced_onoff(0.05 * np.exp(2j * np.pi * k / 3), d)
            for k in range(3)
        )
        mset = meas.MeasurementSet(povms)
        assert parent.verify_marginal_identity(mset, [1 / 3] * 3) <= 1e-10

    def test_extra_loss_composes(self):
        # a channel of transmissivity eta before the network shifts every
        # marginal to the product transmissivity
        mset = meas.MeasurementSet((vacuum_onoff(5), vacuum_onoff(5)))
        assert parent.verify_marginal_identity(mset, [0.8 * 0.5, 0.8 * 0.5]) <= 1e-11

    def test_asymmetric_transmissivities(self):
        rng = np.random.default_rng(47)
        mset = meas.random_measurement_set(4, 2, rng)
        par = parent.lon_parent(mset, [0.7, 0.3])
        marg = par.marginals()
        for j, tau_j in enumerate([0.7, 0.3]):
            for a in range(2):
                expect = loss.apply_dual(tau_j, mset.povms[j][a])
                assert np.abs(marg[2 * j + a] - expect).max() < 1e-10

    def test_one_lossy_povm_call_per_measurement(self, monkeypatch):
        # each image is one apply_dual call on the measurement's whole stack
        calls = []

        def counted(tau, M):
            calls.append((tau, M.shape))
            return loss.apply_dual(tau, M)

        monkeypatch.setattr(parent, "apply_dual", counted)
        mset = meas.random_measurement_set(3, 3, np.random.default_rng(59))
        taus = [0.5 * t for t in (0.2, 0.3, 0.4)]
        assert parent.verify_marginal_identity(mset, taus) <= 1e-11
        assert calls == [(0.1, (2, 3, 3)), (0.15, (2, 3, 3)), (0.2, (2, 3, 3))]

    def test_set_accepted_within_tol_is_accepted_by_the_loss_channel(self):
        # a Hermitian gap of 1e-10 passes MeasurementSet; the loss channel once
        # refused it at its own threshold of 1e-12
        A = np.array([[0.6, 0.1 + 1e-10], [0.1, 0.3]])
        half = (np.eye(2) / 2, np.eye(2) / 2)
        mset = meas.MeasurementSet(((A, np.eye(2) - A), half))
        assert parent.verify_marginal_identity(mset, [0.5, 0.5]) <= 1e-15
        images = meas.MeasurementSet(tuple(loss.apply_dual(0.5, p) for p in mset))
        assert compat.certify(images, parent.lon_parent(mset, [0.5, 0.5])).verdict == "COMPATIBLE"
        assert compat.robustness(mset).verdict == "COMPATIBLE"

    def test_deficit_arm(self):
        rng = np.random.default_rng(53)
        mset = meas.random_measurement_set(4, 2, rng)
        assert parent.verify_marginal_identity(mset, [0.2, 0.3]) <= 1e-11

    def test_tiny_deficit_is_realised(self):
        # a leak of 1e-13 was once dropped and the arms rescaled to sum to 1,
        # 2.1e-14 off the images
        mset = meas.random_measurement_set(3, 2, np.random.default_rng(1))
        assert parent.verify_marginal_identity(mset, [0.5, 0.5 - 1e-13]) <= 1e-15

    def test_taus_read_once(self):
        # lon_parent once used up a generator, leaving no images to compare
        mset = meas.random_measurement_set(3, 2, np.random.default_rng(1))
        expect = parent.verify_marginal_identity(mset, [0.5, 0.5])
        assert expect <= 1e-15
        assert parent.verify_marginal_identity(mset, (0.5 for _ in range(2))) == expect
        assert parent.verify_marginal_identity(mset, np.array([0.5, 0.5])) == expect


class TestEndToEnd:
    @pytest.mark.parametrize("n", [2, 3])
    def test_result_is_a_solver_grade_certificate(self, n):
        rng = np.random.default_rng(60 + n)
        mset = meas.random_measurement_set(4, n, rng)
        lossy = meas.MeasurementSet(
            tuple(loss.apply_dual(1.0 / n, p) for p in mset)
        )
        par = parent.lon_parent(mset, [1.0 / n] * n)
        res = compat.certify(lossy, par)
        assert res.verdict == "COMPATIBLE"
        assert res.marginal_residual <= 1e-10 and res.psd_residual <= 1e-10
