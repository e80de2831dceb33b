"""Fock-space primitives (coherent kets, the Hermiticity check) and the network-unitary and
PSD-check oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossjm import fock

import oracles


def random_unitary(m, rng):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestCoherentKet:
    def test_vacuum(self):
        assert np.allclose(fock.coherent_ket(0.0, 4), [1, 0, 0, 0])

    @pytest.mark.parametrize("d", [0, -1])
    def test_refusal_messages(self, d):
        with pytest.raises(ValueError, match="cutoff must be a positive integer"):
            fock.coherent_ket(0.5, d)

    def test_ground_amplitude(self):
        ket = fock.coherent_ket(1.0, 8)
        assert ket[0] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert ket[0].real == pytest.approx(0.6065306597, abs=1e-10)

    def test_norm_converges_at_deep_cutoff(self):
        # independent oracle: the truncated norm misses exactly the Poisson
        # tail sum_{m >= d} e^{-|mu|^2} |mu|^{2m} / m!, summed here in 50-digit
        # arithmetic
        mu, d = 0.5, 20
        with mpmath.workdps(50):
            lam = mpmath.mpf(mu) ** 2
            tail = float(
                sum(mpmath.e ** (-lam) * lam**m / mpmath.factorial(m) for m in range(d, 200))
            )
        assert tail < 1e-12
        norm_sq = float(np.vdot(fock.coherent_ket(mu, d), fock.coherent_ket(mu, d)).real)
        assert abs(norm_sq - 1.0) < 1e-12
        assert norm_sq == pytest.approx(1.0 - tail, abs=1e-15)

    @pytest.mark.parametrize("mu", [38.7, 1.4e154, 1e200, -1e200j, 1e300 + 1e300j])
    def test_huge_amplitude_is_zero(self, mu):
        # e^(-|mu|^2/2) underflows past |mu| = 38.61; past 1.34e154 |mu|^2 is
        # inf, and exp(-inf) is 0.0: no guard is needed and nothing raises
        assert not fock.coherent_ket(mu, 5).any()

    @pytest.mark.parametrize("mu", [0.3, 0.8, 1.5, 0.4 + 0.9j])
    def test_norm_monotone_in_cutoff(self, mu):
        norms = [
            float(np.linalg.norm(fock.coherent_ket(mu, d))) for d in range(1, 25)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1.0 + 1e-12


class TestOverlap:
    def test_vacuum_self_overlap(self):
        v = fock.coherent_ket(0.0, 5)
        assert oracles.overlap(v, v) == pytest.approx(1.0)

    def test_coherent_overlap_analytic(self):
        # |<mu1|mu2>|^2 = exp(-|mu1 - mu2|^2) for exact coherent states
        a = fock.coherent_ket(0.1, 30)
        b = fock.coherent_ket(-0.1, 30)
        assert abs(oracles.overlap(a, b)) ** 2 == pytest.approx(
            math.exp(-0.04), abs=1e-10
        )
        assert abs(oracles.overlap(a, b)) ** 2 == pytest.approx(0.9607894392, abs=1e-10)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=6) + 1j * rng.normal(size=6)
            b = rng.normal(size=6) + 1j * rng.normal(size=6)
            assert oracles.overlap(a, b) == pytest.approx(
                np.conj(oracles.overlap(b, a)), abs=1e-14
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.overlap(np.zeros(3), np.zeros(4))


class TestBeamSplitter:
    def test_lossless_is_identity(self):
        assert np.array_equal(oracles.bs_unitary(1.0, 5), np.eye(25))

    def test_single_photon_balanced(self):
        d = 4
        U = oracles.bs_unitary(0.5, d)
        out = U[:, 1 * d + 0]  # |1, 0>
        expect = np.zeros(d * d, dtype=complex)
        expect[1 * d + 0] = 1 / math.sqrt(2)
        expect[0 * d + 1] = 1 / math.sqrt(2)
        assert np.abs(out - expect).max() < 1e-14

    def test_coherent_state_action(self):
        # oracle: the defining coherent-amplitude map, composed independently
        d, eta, mu = 16, 0.5, 0.3
        U = oracles.bs_unitary(eta, d)
        vin = np.kron(fock.coherent_ket(mu, d), fock.coherent_ket(0.0, d))
        vout = U @ vin
        t, r = math.sqrt(eta), math.sqrt(1 - eta)
        expect = np.kron(fock.coherent_ket(t * mu, d), fock.coherent_ket(r * mu, d))
        fidelity = abs(np.vdot(expect, vout)) ** 2 / (
            np.vdot(expect, expect).real * np.vdot(vout, vout).real
        )
        assert fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_blocks_unitary(self, eta, d):
        U = oracles.bs_unitary(eta, d)
        for total, idx in oracles.total_photon_sectors(d, 2):
            block = U[np.ix_(idx, idx)]
            assert (
                np.abs(block @ block.conj().T - np.eye(len(idx))).max() < 1e-12
            ), f"sector {total}"
        # no leakage between sectors
        grid = np.add.outer(np.arange(d), np.arange(d)).ravel()
        off = np.abs(U)[grid[:, None] != grid[None, :]]
        assert off.max() < 1e-14

    def test_rejects_bad_transmissivity(self):
        with pytest.raises(ValueError):
            oracles.bs_unitary(1.5, 3)


class TestLonUnitary:
    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_matches_beam_splitter(self, eta):
        U1 = oracles.bs_unitary(eta, 6)
        U2 = oracles.lon_unitary(oracles.bs_transfer(eta), 6)
        assert np.abs(U1 - U2).max() < 1e-10

    def test_identity_transfer(self):
        assert np.abs(oracles.lon_unitary(np.eye(3), 3) - np.eye(27)).max() < 1e-14

    def test_balanced_three_way_split(self):
        d = 10
        T = oracles.complete_unitary(np.full(3, 1 / math.sqrt(3)))
        U = oracles.lon_unitary(T, d)
        mu = 0.4
        vin = np.kron(
            np.kron(fock.coherent_ket(mu, d), fock.coherent_ket(0.0, d)),
            fock.coherent_ket(0.0, d),
        )
        vout = U @ vin
        betas = [T[0, k] * mu for k in range(3)]
        expect = np.kron(
            np.kron(fock.coherent_ket(betas[0], d), fock.coherent_ket(betas[1], d)),
            fock.coherent_ket(betas[2], d),
        )
        fidelity = abs(np.vdot(expect, vout)) ** 2 / (
            np.vdot(expect, expect).real * np.vdot(vout, vout).real
        )
        assert fidelity >= 1 - 1e-8

    @pytest.mark.parametrize("m,d", [(2, 8), (3, 5)])
    def test_composition(self, m, d):
        rng = np.random.default_rng(11)
        for _ in range(3):
            A = random_unitary(m, rng)
            B = random_unitary(m, rng)
            lhs = oracles.lon_unitary(A @ B, d)
            rhs = oracles.lon_unitary(B, d) @ oracles.lon_unitary(A, d)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_rejects_nonunitary_transfer(self):
        with pytest.raises(ValueError):
            oracles.lon_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]), 3)


class TestCompleteUnitary:
    def test_trivial_row(self):
        assert np.array_equal(oracles.complete_unitary(np.array([1.0])), np.eye(1))

    def test_balanced_row_gram_schmidt(self):
        s = math.sqrt(0.5)
        U = oracles.complete_unitary(np.array([s, s]))
        assert np.abs(U - np.array([[s, s], [s, -s]])).max() < 1e-12

    def test_deficit_adds_mode(self):
        row = np.sqrt([0.2, 0.3])
        U = oracles.complete_unitary(row)
        assert U.shape == (3, 3)
        assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12
        # stored doubles of the input row are preserved untouched
        assert U[0, 0] == row[0] and U[0, 1] == row[1]

    def test_rejects_oversized_row(self):
        with pytest.raises(ValueError):
            oracles.complete_unitary(np.array([0.8, 0.7]))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_rows(self, entries):
        row = np.array(entries, dtype=complex)
        nsq = float(np.sum(np.abs(row) ** 2))
        if nsq > 1.0:
            row = row / math.sqrt(nsq) * 0.99
        U = oracles.complete_unitary(row)
        m = U.shape[0]
        assert np.abs(U @ U.conj().T - np.eye(m)).max() < 1e-12
        assert np.array_equal(U[0, : row.size], row)


class TestRequireHermitian:
    def test_stack_with_one_non_hermitian_element(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 4).reshape(2, 2, 3, 3)
        assert np.array_equal(fock.require_hermitian(stack), stack)
        stack[1, 0, 0, 2] = 1e-7  # above TOL
        with pytest.raises(ValueError, match="not Hermitian"):
            fock.require_hermitian(stack)

    def test_non_square_stack(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            fock.require_hermitian(np.zeros((4, 2, 3)))


class TestPsdResidual:
    def test_identity(self):
        assert oracles.psd_residual(np.eye(4)) == 0.0

    def test_indefinite_diagonal(self):
        assert oracles.psd_residual(np.diag([1.0, -0.25])) == pytest.approx(0.25)

    def test_gram_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            G = A.conj().T @ A
            assert oracles.psd_residual(G) < 1e-12

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            oracles.psd_residual(np.array([[0.0, 1.0], [0.0, 0.0]]))
