"""Pure-loss channel: the beam-splitter split against the Kraus and Gaussian
routes of the oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossjm import fock, loss, measurements as meas

import oracles


class TestKrausOps:
    def test_lossless_single_identity(self):
        ops = oracles.kraus_ops(1.0, 5)
        assert len(ops) == 1
        assert np.array_equal(ops[0], np.eye(5))

    @pytest.mark.parametrize("tau", [0.0, 0.17, 0.5, 0.93, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 6, 12])
    def test_trace_preservation(self, tau, d):
        total = sum(A.conj().T @ A for A in oracles.kraus_ops(tau, d))
        assert np.abs(total - np.eye(d)).max() < 1e-12

    def test_full_loss_sends_everything_to_vacuum(self):
        rho = np.diag([0.0, 1.0])  # one photon
        out = oracles.apply_channel(0.0, rho)
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-14

    def test_channel_on_coherent_state(self):
        # The exact channel maps |a><a| to |sqrt(tau) a><sqrt(tau) a|.  The
        # primal action does not commute with truncation, so on the truncated
        # input the match degrades gracefully: corner entries are off by the
        # amplitude of the missing Poisson tail.
        d, tau, alpha = 6, 0.5, 0.4
        out = oracles.apply_channel(tau, meas.coherent_projector(alpha, d))
        target = meas.coherent_projector(math.sqrt(tau) * alpha, d)
        tail_amp = math.sqrt(1 - np.linalg.norm(fock.coherent_ket(alpha, d)) ** 2)
        assert np.abs(out - target).max() < 3 * tail_amp
        # deep cutoff: the tail is gone and the defining property is exact
        d = 20
        out = oracles.apply_channel(tau, meas.coherent_projector(alpha, d))
        target = meas.coherent_projector(math.sqrt(tau) * alpha, d)
        assert np.abs(out - target).max() < 1e-9

    def test_channel_agrees_with_beam_splitter_dilation(self):
        # independent route: couple to a vacuum ancilla on a beam splitter
        # and trace out the second arm
        d, tau = 6, 0.35
        rng = np.random.default_rng(8)
        rho = oracles.random_density(d, rng)
        U = oracles.bs_unitary(tau, d)
        big = U @ np.kron(rho, np.diag([1.0] + [0.0] * (d - 1))) @ U.conj().T
        dilated = big.reshape(d, d, d, d).trace(axis1=1, axis2=3)
        assert np.abs(dilated - oracles.apply_channel(tau, rho)).max() < 1e-12


class TestApplyDual:
    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    def test_unital(self, tau):
        assert np.abs(loss.apply_dual(tau, np.eye(7)) - np.eye(7)).max() < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 1e-9, 0.3, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 30])
    def test_matches_kraus_oracle(self, d, tau):
        rng = np.random.default_rng(d)
        for _ in range(3):
            M = oracles.random_hermitian(d, rng)
            out = loss.apply_dual(tau, M)
            brute = sum(A.conj().T @ M @ A for A in oracles.kraus_ops(tau, d))
            assert np.array_equal(out, out.conj().T)
            assert np.abs(out - brute).max() <= 1e-14 * np.abs(brute).max()

    def test_unital_and_finite_at_large_cutoff(self):
        for tau in (0.3, 0.5, 0.77):
            out = loss.apply_dual(tau, np.eye(60))
            assert np.isfinite(out).all()
            assert np.abs(out - np.eye(60)).max() < 1e-12

    def test_vacuum_projector_image(self):
        # only the k = n loss operator connects |n> back to |0>, leaving the
        # geometric diagonal (1 - tau)^m
        out = loss.apply_dual(0.5, np.diag([1.0] + [0.0] * 4))
        expect = np.diag([1.0, 0.5, 0.25, 0.125, 0.0625])
        assert np.abs(out - expect).max() < 1e-14
        brute = sum(
            A.conj().T @ np.diag([1.0] + [0.0] * 4) @ A for A in oracles.kraus_ops(0.5, 5)
        )
        assert np.abs(out - brute).max() == 0.0

    def test_adjoint_relation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            tau = rng.uniform()
            rho = oracles.random_density(6, rng)
            M = oracles.random_hermitian(6, rng)
            lhs = np.trace(M @ oracles.apply_channel(tau, rho))
            rhs = np.trace(rho @ loss.apply_dual(tau, M))
            assert abs(lhs - rhs) < 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            loss.apply_dual(0.5, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_stack_matches_each_element(self, d, tau):
        rng = np.random.default_rng(40 + d)
        stack = np.stack([oracles.random_hermitian(d, rng) for _ in range(4)])
        out = loss.apply_dual(tau, stack)
        assert out.shape == stack.shape
        for E, image in zip(stack, out):
            alone = loss.apply_dual(tau, E)
            assert np.array_equal(image, image.conj().T)
            assert np.abs(image - alone).max() <= 1e-15 * np.abs(alone).max()

    def test_rejects_nonhermitian_in_stack(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError, match="not Hermitian"):
            loss.apply_dual(0.5, stack)

    @pytest.mark.parametrize("tau", [-0.1, 1.5])
    def test_rejects_transmissivity_outside_unit_interval(self, tau):
        with pytest.raises(ValueError, match="transmissivity"):
            loss.apply_dual(tau, np.eye(3))

    @pytest.mark.parametrize("t1,t2", [(0.3, 0.5), (0.3, 0.9), (0.5, 0.9)])
    def test_composition_law(self, t1, t2):
        rng = np.random.default_rng(23)
        for _ in range(5):
            M = oracles.random_hermitian(6, rng)
            lhs = loss.apply_dual(t2, loss.apply_dual(t1, M))
            rhs = loss.apply_dual(t1 * t2, M)
            assert np.abs(lhs - rhs).max() < 1e-11

    def test_preserves_positivity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            out = loss.apply_dual(rng.uniform(), A @ A.conj().T / 5)
            assert oracles.psd_residual(out) < 1e-10

    def test_truncation_exactness(self):
        # computing at cutoff d and at 2d gives identical leading blocks
        d, tau, mu = 5, 0.4, 0.6 + 0.2j
        small = loss.apply_dual(tau, meas.coherent_projector(mu, d))
        big = loss.apply_dual(tau, meas.coherent_projector(mu, 2 * d))
        assert np.abs(small - big[:d, :d]).max() < 1e-15


class TestGaussianRoute:
    def test_lossless_is_projector(self):
        mu, d = 0.37 - 0.21j, 6
        out = oracles.dual_coherent_projector(1.0, mu, d)
        assert np.abs(out - meas.coherent_projector(mu, d)).max() < 1e-14

    def test_vacuum_displacement(self):
        out = oracles.dual_coherent_projector(0.5, 0.0, 4)
        assert np.abs(out - np.diag([1.0, 0.5, 0.25, 0.125])).max() < 1e-14

    def test_matches_kraus_route_small_displacement(self):
        tau, mu, d = 0.5, 0.015, 3
        kraus = loss.apply_dual(tau, meas.coherent_projector(mu, d))
        gauss = oracles.dual_coherent_projector(tau, mu, d)
        assert np.abs(kraus - gauss).max() < 1e-12

    def test_route_agreement_sweep(self):
        worst = 0.0
        for tau in np.arange(0.1, 1.01, 0.1):
            for mu in [0.0, 0.3, -0.8, 0.5 + 0.5j, 1.0, -1.0j]:
                for d in (2, 4, 8):
                    kraus = loss.apply_dual(tau, meas.coherent_projector(mu, d))
                    gauss = oracles.dual_coherent_projector(tau, mu, d)
                    worst = max(worst, float(np.abs(kraus - gauss).max()))
        assert worst < 1e-10

    def test_printed_closed_form_disagrees_with_kraus(self):
        # A published closed form for these 3x3 blocks carries inconsistent
        # prefactors (e.g. entry (0,1) as e^{-|mu|^2/2} sqrt(tau) mu* / sqrt(2)).
        # The dual channel (the Kraus sum) is the ground truth; entry (0,1) is
        # e^{-|mu|^2} sqrt(tau) mu*, without the sqrt(2).  Keep the
        # discrepancy visible rather than matching the printed form.
        tau, mu = 0.6, 0.015
        kraus = loss.apply_dual(tau, meas.coherent_projector(mu, 3))
        printed_01 = math.exp(-abs(mu) ** 2 / 2) * math.sqrt(tau) * mu / math.sqrt(2)
        ours_01 = math.exp(-abs(mu) ** 2) * math.sqrt(tau) * mu
        assert abs(kraus[0, 1] - ours_01) < 1e-14
        assert abs(kraus[0, 1] - printed_01) > 1e-3

    def test_rejects_divergent_exponent(self):
        with pytest.raises(ValueError):
            oracles.fock_from_q(oracles.GaussianQ(0.0, 0.0, 0.0, 0.5), 4)


class TestFockFromQ:
    def test_vacuum_q(self):
        out = oracles.fock_from_q(oracles.GaussianQ(0.0, 0.0, 0.0, -1.0), 4)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.abs(out - expect).max() < 1e-14

    def test_coherent_projector_entries(self):
        mu, d = 0.2, 4
        out = oracles.fock_from_q(oracles.dual_coherent_q(1.0, mu), d)
        for k in range(d):
            for j in range(d):
                expect = (
                    math.exp(-abs(mu) ** 2)
                    * mu**k
                    * np.conj(mu) ** j
                    / math.sqrt(math.factorial(k) * math.factorial(j))
                )
                assert abs(out[k, j] - expect) < 1e-14

    def test_cross_validates_dual_route(self):
        out = oracles.fock_from_q(oracles.dual_coherent_q(0.5, 0.01), 3)
        assert np.abs(out - oracles.dual_coherent_projector(0.5, 0.01, 3)).max() == 0.0
        kraus = loss.apply_dual(0.5, meas.coherent_projector(0.01, 3))
        assert np.abs(out - kraus).max() < 1e-12


class TestQFunction:
    def test_identity_normalization(self):
        assert oracles.q_function(np.eye(30), 0.4) == pytest.approx(1 / math.pi, abs=1e-10)

    def test_vacuum_projector(self):
        M = np.zeros((25, 25))
        M[0, 0] = 1.0
        assert oracles.q_function(M, 1.0) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-10
        )

    def test_lossy_projector_gaussian_form(self):
        tau, mu, alpha, d = 0.6, 0.1, 0.2, 25
        M = loss.apply_dual(tau, meas.coherent_projector(mu, d))
        got = oracles.q_function(M, alpha)
        expect = math.exp(-tau * abs(alpha - mu / math.sqrt(tau)) ** 2) / math.pi
        assert abs(got - expect) / expect < 1e-8

    @given(st.floats(0.0, 1.0), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
    @settings(max_examples=40, deadline=None)
    def test_real_and_bounded_for_povm_elements(self, tau, re, im):
        M = loss.apply_dual(tau, meas.coherent_projector(re + 1j * im, 12))
        q = oracles.q_function(M, 0.1)
        assert 0.0 <= q <= 1 / math.pi + 1e-12
