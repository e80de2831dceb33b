"""Joint-measurability solver: feasibility, robustness, and verdicts."""

import dataclasses
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lossjm import compat, loss, measurements as meas, parent, qubit
from lossjm.cli import TABLE_POINTS

import oracles


def projective_z():
    return np.array((np.diag([1.0 + 0j, 0.0]), np.diag([0.0 + 0j, 1.0])))


class TestJmFeasibility:
    def test_single_povm_is_its_own_parent(self):
        p = projective_z()
        res = compat.robustness(meas.MeasurementSet((p,)))
        assert res.verdict == "COMPATIBLE"
        assert res.marginal_residual < 1e-12
        assert res.psd_residual < 1e-12
        for a in range(2):
            assert np.abs(oracles.element(res.parent, (a,)) - p[a]).max() < 1e-8

    def test_identical_projective_pair(self):
        p = projective_z()
        res = compat.robustness(meas.MeasurementSet((p, p)))
        assert res.verdict == "COMPATIBLE"
        assert compat.certify(meas.MeasurementSet((p, p)), res.parent).verdict == "COMPATIBLE"
        # the canonical parent puts all weight on matching outcomes
        expected = compat.ParentPovm(
            (2, 2),
            np.stack(
                [p[0], np.zeros((2, 2)), np.zeros((2, 2)), p[1]]
            ),
        )
        check = compat.certify(meas.MeasurementSet((p, p)), expected)
        assert check.verdict == "COMPATIBLE"

    def test_nine_levels_solve(self):
        # no cap on the dimension: a d = 9 set is decided like any other
        p = (np.eye(9) / 2, np.eye(9) / 2)
        res = compat.robustness(meas.MeasurementSet((p,)))
        assert (res.verdict, res.method) == ("COMPATIBLE", "sdp-parent")

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_elements_refused(self, value):
        # once every error was NaN, no iterate was kept, and the solve died
        # unpacking its sentinel; the set now refuses such elements
        A = np.array([[0.5, 0.1], [0.1, value]])
        p = (A, np.eye(2) - A)
        with pytest.raises(ValueError, match="elements must be finite"):
            compat.robustness(meas.MeasurementSet((p, p)))


def random_povm(outcomes, d, rng):
    A = rng.normal(size=(outcomes, d, d)) + 1j * rng.normal(size=(outcomes, d, d))
    P = A @ A.conj().transpose(0, 2, 1)
    w, V = np.linalg.eigh(P.sum(axis=0))
    R = (V / np.sqrt(w)) @ V.conj().T
    return R @ P @ R


def random_blocks(T, d, rng, shift=0.0):
    A = rng.normal(size=(T, d, d)) + 1j * rng.normal(size=(T, d, d))
    return A @ A.conj().transpose(0, 2, 1) / d + shift * np.eye(d)


def directions(sdp):
    """The dual row stack of every coordinate of the solve."""
    return [sdp.full_rows(e) for e in np.eye(len(sdp.dv))]


def covariant_sets():
    """Rotation-covariant sets: families of 1 to 6 measurements, and the
    rotated copies of a real three-outcome POVM."""
    sets = [
        meas.symmetric_family(meas.FamilyParams(count, 0.3, 0.6, d))
        for count, d in [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 4)]
    ]
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3, 3))
    P = A @ A.transpose(0, 2, 1)
    w, V = np.linalg.eigh(P.sum(axis=0))
    R = (V / np.sqrt(w)) @ V.T
    first = (R @ P @ R).astype(complex)
    first = 0.5 * (first + first.transpose(0, 2, 1))
    copies = meas._rotated(first, meas._rotation_phases(3, 3))
    sets.append(meas.MeasurementSet(copies))
    return sets


COVARIANT = covariant_sets()
COVARIANT_IDS = ["count1", "count2", "count3", "count4", "count5", "count6-d4", "three-outcome"]


def invariant_blocks(sdp, rng, shift=0.0):
    """Random blocks averaged over the dihedral group, all T and the representatives."""
    full = oracles.dihedral_average(sdp.outs, random_blocks(sdp.T, sdp.d, rng, shift))
    return full, full[sdp.rep]


class TestMarginalMap:
    SHAPES = [(2,), (2, 3), (3, 2, 2), (2,) * 5]

    @pytest.mark.parametrize("outs", SHAPES)
    def test_indicator_matches_axis_sums(self, outs):
        # the parent's marginal rows against sums over the axes of the tuple grid
        rng = np.random.default_rng(sum(outs))
        T = int(np.prod(outs))
        G = random_blocks(T, 3, rng) / T
        want = oracles.marginals_reference(outs, G)
        assert np.abs(meas.ParentPovm(outs, G).marginals() - want).max() <= 1e-14

    @pytest.mark.parametrize("outs", SHAPES)
    def test_spread_is_adjoint(self, outs):
        rng = np.random.default_rng(10 + sum(outs))
        T = int(np.prod(outs))
        G = random_blocks(T, 3, rng) / T
        Y = random_blocks(sum(outs), 3, rng) - np.eye(3)
        lhs = compat._inner(meas.ParentPovm(outs, G).marginals(), Y)
        rhs = compat._inner(G, oracles.spread_reference(outs, Y))
        assert abs(lhs - rhs) <= 1e-12

    def test_spread_is_adjoint_on_witness_rows(self):
        # a witness's rows are complex Hermitian and no POVM: the rows of a
        # measurement do not sum to the identity
        res = compat.robustness(meas.symmetric_family(meas.FamilyParams(3, 0.3, 0.6, 3)))
        assert res.verdict == "INCOMPATIBLE"
        outs, W = res.parent.outcome_counts, np.concatenate(res.witness)
        assert np.abs(W.imag).max() > 0.0 and np.abs(W - W.conj().transpose(0, 2, 1)).max() == 0.0
        assert np.abs(res.witness[0].sum(axis=0) - np.eye(3)).max() > 0.1
        Z = oracles.spread_reference(outs, W)
        G = res.parent.blocks
        lhs = compat._inner(res.parent.marginals(), W)
        assert abs(lhs - compat._inner(G, Z)) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("outs", SHAPES)
    def test_schur_matches_per_pair_assembly(self, outs):
        rng = np.random.default_rng(20 + sum(outs))
        mset = meas.MeasurementSet(tuple(random_povm(o, 3, rng) for o in outs))
        sdp = compat._RobustnessSdp(mset)
        assert len(sdp.rep) == sdp.T  # no symmetry: one block per tuple
        X = random_blocks(sdp.T, 3, rng, 0.1) / sdp.T
        Zinv = random_blocks(sdp.T, 3, rng, 0.1)
        got = sdp.schur(X, Zinv, 0.7)
        Ys = directions(sdp)
        dv = np.array([compat._inner(sdp.D, Y) for Y in Ys])
        want = oracles.schur_reference(outs, X, Zinv, Ys) + 0.7 * np.outer(dv, dv)
        # the kept rows: every outcome of measurement 0, all but one of the others
        assert got.shape == want.shape == (9 * (sum(outs) - len(outs) + 1),) * 2
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("mset", COVARIANT, ids=COVARIANT_IDS)
    def test_covariant_expansion_matches_group_average(self, mset):
        rng = np.random.default_rng(30)
        sdp = compat._RobustnessSdp(mset)
        assert sdp.weight.sum() == sdp.T and (len(mset) == 1 or len(sdp.rep) < sdp.T)
        full, reps = invariant_blocks(sdp, rng)
        assert np.abs(sdp.full_blocks(reps) - full).max() <= 1e-14 * np.abs(full).max()
        # blocks that are not invariant expand to their group average: X weight
        # at the representatives, zero elsewhere
        X = random_blocks(len(sdp.rep), sdp.d, rng)
        stack = np.zeros((sdp.T, sdp.d, sdp.d), dtype=complex)
        stack[sdp.rep] = X * sdp.weight[:, None, None]
        want = oracles.dihedral_average(sdp.outs, stack)
        assert np.abs(sdp.full_blocks(X) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("mset", COVARIANT, ids=COVARIANT_IDS)
    def test_covariant_marginal_coords_match_full_map(self, mset):
        rng = np.random.default_rng(31)
        sdp = compat._RobustnessSdp(mset)
        full, reps = invariant_blocks(sdp, rng)
        marg = oracles.marginals_reference(sdp.outs, full)
        want = np.array([compat._inner(Y, marg) for Y in directions(sdp)])
        assert np.abs(sdp.marginal_coords(reps) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("mset", COVARIANT, ids=COVARIANT_IDS)
    def test_covariant_dual_blocks_match_full_spread(self, mset):
        rng = np.random.default_rng(32)
        sdp = compat._RobustnessSdp(mset)
        c = rng.normal(size=len(sdp.dv))
        Y = sdp.full_rows(c)
        full = oracles.spread_reference(sdp.outs, Y)
        assert np.abs(sdp.dual_blocks(c) - full[sdp.rep]).max() <= 1e-14 * np.abs(full).max()
        # the dual blocks are invariant too
        assert (np.abs(oracles.dihedral_average(sdp.outs, full) - full).max()
                <= 1e-14 * np.abs(full).max())

    @pytest.mark.parametrize("mset", COVARIANT, ids=COVARIANT_IDS)
    def test_covariant_schur_matches_full_assembly(self, mset):
        rng = np.random.default_rng(33)
        sdp = compat._RobustnessSdp(mset)
        X, Xr = invariant_blocks(sdp, rng, 0.1)
        Zinv, Zr = invariant_blocks(sdp, rng, 0.1)
        Ys = directions(sdp)
        dv = np.array([compat._inner(sdp.D, Y) for Y in Ys])
        want = oracles.schur_reference(sdp.outs, X, Zinv, Ys) + 0.7 * np.outer(dv, dv)
        got = sdp.schur(Xr, Zr, 0.7)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.linalg.matrix_rank(got) == len(got)  # no gauge left in the coordinates


TRIVIAL = meas.MeasurementSet(
    tuple(random_povm(o, 3, np.random.default_rng(40 + o)) for o in (2, 3, 2))
)


class TestProjection:
    """``_RobustnessSdp.project`` works on the representatives, in the solve's
    own coordinates, and equals the closed-form projection over all T tuples."""

    @pytest.mark.parametrize(
        "mset,covariant",
        [(m, True) for m in COVARIANT] + [(TRIVIAL, False)],
        ids=COVARIANT_IDS + ["trivial-group"],
    )
    def test_matches_full_grid_projection(self, mset, covariant):
        rng = np.random.default_rng(34)
        sdp = compat._RobustnessSdp(mset)
        if covariant:
            full, reps = invariant_blocks(sdp, rng)
        else:
            assert len(sdp.rep) == sdp.T
            full = reps = random_blocks(sdp.T, sdp.d, rng)
        eta = 0.7
        got = sdp.project(reps, eta)
        want = oracles.project_reference(sdp.outs, full, sdp.C + eta * sdp.D)
        assert np.abs(sdp.full_blocks(got) - want).max() <= 1e-13 * np.abs(want).max()
        target = sdp.cv + eta * sdp.dv
        assert np.abs(sdp.marginal_coords(got) - target).max() <= 1e-13 * np.abs(target).max()

    def test_full_grid_maps_run_only_for_the_certificates(self, monkeypatch):
        # the projection stays on the representatives: the T-sized marginal map
        # runs once, in certify; the witness repair reads the representatives
        calls = []
        marginals = meas.ParentPovm.marginals

        def counted_marginals(self):
            calls.append(len(self.blocks))
            return marginals(self)

        monkeypatch.setattr(meas.ParentPovm, "marginals", counted_marginals)
        res = compat.robustness(table_family(3, 3))
        assert res.verdict == "INCOMPATIBLE"
        assert calls == [16]

    @pytest.mark.parametrize("covariant,blocks", [(True, 126), (False, 12)],
                             ids=["d3-count11", "trivial-group"])
    def test_witness_repair_reads_the_representatives(self, monkeypatch, covariant, blocks):
        # one eigvalsh over the representatives' blocks Z_t = sum_j Y^j_{t_j}:
        # 126 of the 2048 tuples of count 11, every tuple for the trivial group
        sdp = compat._RobustnessSdp(table_family(3, 10) if covariant else TRIVIAL)
        W = -sdp.full_rows(np.random.default_rng(35).normal(size=len(sdp.dv)))
        read = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(Z):
            read.append(Z)
            return eigvalsh(Z)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        sdp.repair_witness(W)
        assert len(read) == 1 and len(read[0]) == len(sdp.rep) == blocks
        assert np.array_equal(read[0], oracles.spread_reference(sdp.outs, W)[sdp.rep])


class TestMarginal:
    def test_marginals_recover_projective_pair(self):
        p = projective_z()
        mset = meas.MeasurementSet((p, p))
        res = compat.robustness(mset)
        want = np.concatenate([p] * 2)
        assert np.abs(res.parent.marginals() - want).max() < 1e-7
        assert res.parent.marginal_residual(mset) < 1e-7

    def test_network_parent_marginals(self):
        rng = np.random.default_rng(9)
        mset = meas.random_measurement_set(3, 2, rng)
        par = parent.lon_parent(mset, [0.5, 0.5])
        marg = par.marginals()
        for j in range(2):
            for a in range(2):
                expect = loss.apply_dual(0.5, mset.povms[j][a])
                assert np.abs(marg[2 * j + a] - expect).max() < 1e-10

    def test_marginal_normalization(self):
        rng = np.random.default_rng(13)
        mset = meas.random_measurement_set(2, 3, rng)
        par = parent.lon_parent(mset, [1 / 3] * 3)
        for rows in np.split(par.marginals(), 3):
            oracles.validate(rows)


class TestCertify:
    @staticmethod
    def network_row():
        """The d = 2, count-2 set at tau = 1/2 and its network parent."""
        params = meas.FamilyParams(2, 0.3, 0.5, 2)
        noiseless = meas.symmetric_family(dataclasses.replace(params, tau=1.0))
        return meas.symmetric_family(params), parent.lon_parent(noiseless, [0.5, 0.5])

    def test_non_hermitian_parent_undecided(self):
        # K in the upper triangle with signs +, -, -, + cancels in every
        # marginal; eigvalsh reads only the lower triangle, so the blocks'
        # gap to Hermitian is what shows it
        mset, par = self.network_row()
        assert compat.certify(mset, par).verdict == "COMPATIBLE"
        K = np.zeros((2, 2), dtype=complex)
        K[0, 1] = 5.0
        blocks = par.blocks + np.array([1, -1, -1, 1])[:, None, None] * K
        bad = meas.ParentPovm(par.outcome_counts, blocks)
        hermitian_part = (blocks + np.conj(np.swapaxes(blocks, 1, 2))) / 2
        assert np.linalg.eigvalsh(hermitian_part).min() < -2.4
        res = compat.certify(mset, bad)
        assert res.marginal_residual <= 1e-15
        assert (res.verdict, res.method, res.psd_residual) == ("UNDECIDED", "none", 5.0)

    def test_nan_block_reports_nan(self):
        mset, par = self.network_row()
        blocks = par.blocks.copy()
        blocks[1, 0, 0] = np.nan
        res = compat.certify(mset, meas.ParentPovm(par.outcome_counts, blocks))
        assert res.verdict == "UNDECIDED"
        assert np.isnan(res.psd_residual) and np.isnan(res.marginal_residual)

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 5), (3, 4), (4, 3)])
    def test_built_parents_exactly_hermitian(self, d, n):
        # the gap adds nothing to the residual of a parent lossjm builds:
        # the network parent at tau = 1/count and the SDP's at 1/n + eps
        r, _ = TABLE_POINTS[n]
        row = compat.decide_table_row(meas.FamilyParams(n + 1, r, 1.0 / (n + 1), d))
        assert row.method == "lon-parent"
        for par in (row.parent, compat.robustness(table_family(d, n)).parent):
            assert np.array_equal(par.blocks, np.conj(np.swapaxes(par.blocks, 1, 2)))


class TestRobustness:
    def test_single_measurement(self):
        res = compat.robustness(meas.MeasurementSet((projective_z(),)))
        assert res.eta_star == 1.0
        assert res.verdict != "INCOMPATIBLE"

    def test_identical_pair_compatible(self):
        a = loss.apply_dual(1.0, meas.displaced_onoff(0.1, 2))
        res = compat.robustness(meas.MeasurementSet((a, a)))
        assert res.eta_star == 1.0
        assert res.verdict != "INCOMPATIBLE"

    def test_noiseless_displaced_pair_incompatible(self):
        # distinct displacements are incompatible without loss
        a = meas.displaced_onoff(0.1, 2)
        b = meas.displaced_onoff(-0.1, 2)
        res = compat.robustness(meas.MeasurementSet((a, b)))
        assert res.eta_star < 1.0
        assert res.verdict == "INCOMPATIBLE"

    def test_pair_verdict_matches_criterion_at_moderate_loss(self):
        a, b = qubit.lossy_displaced_pair(0.015, 0.55)
        report = qubit.pair_test(a, b)
        assert report.incompatible  # Test > 0 above half transmissivity
        res = compat.robustness(meas.MeasurementSet((a, b)))
        assert res.verdict == "INCOMPATIBLE"

    def test_monotone_in_noise(self):
        # feasibility proven at eta implies feasibility proven below it
        rng = np.random.default_rng(21)
        for _ in range(20):
            mset = meas.random_measurement_set(2, 2, rng)
            res = compat.robustness(mset)
            eta2 = res.eta_star
            if eta2 <= 0.0:
                continue
            probe = compat.robustness(compat.depolarize(mset, 0.9 * eta2))
            assert probe.verdict == "COMPATIBLE"
            assert probe.eta_star == 1.0

    def test_near_boundary_pair_incompatible(self):
        # Test = 8.0e-6: a robustness gap of 4e-6, which the former fixed
        # decision margin of 1e-5 called compatible
        rng = np.random.default_rng(13)
        for _ in range(8):
            mset = meas.random_measurement_set(2, 2, rng)
        report = qubit.pair_test(mset.povms[0], mset.povms[1])
        assert 7e-6 < report.test_value < 9e-6
        res = compat.robustness(mset)
        assert res.verdict == "INCOMPATIBLE"
        assert res.method == "sdp-witness"
        assert res.eta_star <= res.eta_hi < 1.0 - 1e-6
        # eta_p is above eta_hi here, so the parent is projected at eta_hi
        check = compat.certify(compat.depolarize(mset, res.eta_star), res.parent)
        assert check.verdict == "COMPATIBLE"

    def test_negative_step_cap_rejected(self):
        with pytest.raises(ValueError):
            compat.robustness(meas.MeasurementSet((projective_z(),)), max_iter=-1)

    def test_truncated_solves_keep_eta_star_in_range(self):
        # the noise-weight form has no eta >= 0 bound: a solve cut short at any
        # step must still give 0 <= eta_star <= 1, and eta_star <= eta_hi
        sets = [
            meas.symmetric_family(meas.FamilyParams(count, r, tau, d))
            for count in (2, 3) for r in (0.3, 4.5) for tau in (0.3, 0.9) for d in (2, 3)
        ]
        rng = np.random.default_rng(7)
        sets += [meas.random_measurement_set(2, 2, rng) for _ in range(10)]
        for mset in sets:
            for k in range(8):
                res = compat.robustness(mset, max_iter=k)
                assert 0.0 <= res.eta_star <= 1.0
                assert res.eta_hi is None or res.eta_star <= res.eta_hi

    def test_multiples_of_identity_compatible_by_the_solve(self):
        # every element a multiple of I (D = 0): the noise weight s has a zero
        # column, the solve drives it to 0 like any other, and no witness exists
        half = np.eye(2) / 2
        mset = meas.MeasurementSet((
            (half, half),
            (np.eye(2) / 3, 2 * np.eye(2) / 3),
        ))
        res = compat.robustness(mset)
        assert (res.verdict, res.method, res.eta_star) == ("COMPATIBLE", "sdp-parent", 1.0)
        assert res.iterations == 6 and res.eta_hi is None

    @pytest.mark.parametrize("count,r,tau,d", [
        *((2, 3.1793687353271514, tau, 2) for tau in (0.05, 0.35, 0.85, 0.9)),
        (4, 4.5, 0.5, 3),
        (4, float(np.geomspace(1, 12, 8)[4]), float(np.linspace(0.05, 1, 8)[1]), 3),
        (3, float(np.geomspace(1, 12, 8)[5]), float(np.linspace(0.05, 1, 8)[3]), 2),
    ])
    def test_near_trivial_family_compatible(self, count, r, tau, d):
        # elements close to multiples of I, where the robustness grows like
        # 1/|D|: the noise weight s stays bounded and reaches 0 in few steps
        # (the last two took 43 and 37 when the solve maximised eta unbounded)
        mset = meas.symmetric_family(meas.FamilyParams(count, r, tau, d))
        res = compat.robustness(mset)
        assert (res.verdict, res.method, res.eta_star) == ("COMPATIBLE", "sdp-parent", 1.0)
        assert compat.certify(mset, res.parent).verdict == "COMPATIBLE"
        assert res.iterations <= 15
        if count == 2:
            assert qubit.pair_test(*mset.povms).test_value < 0

    @pytest.mark.parametrize("count", [6, 7, 8, 9])
    def test_stall_ends_compatible_solves(self, count):
        # at tau = 1/count the d=3 family is compatible and the residual stalls
        # within TOL: the stall ends the solve (22-25 steps), which without it
        # ran to the 100-step cap; it returns the best iterate either way
        r = TABLE_POINTS[count - 1][0]
        res = compat.robustness(meas.symmetric_family(meas.FamilyParams(count, r, 1 / count, 3)))
        assert (res.verdict, res.method) == ("COMPATIBLE", "sdp-parent")
        assert res.iterations <= 30

    def test_one_certify_call_on_the_compatible_side(self, monkeypatch):
        # elements within 1.5e-10 of multiples of I: the one candidate, the
        # solve's primal carried to eta = 1, is certified in a single call
        calls, certify = [], compat.certify
        monkeypatch.setattr(compat, "certify", lambda *args: calls.append(args) or certify(*args))
        res = compat.robustness(meas.symmetric_family(meas.FamilyParams(2, 5.0, 0.9, 2)))
        assert (res.verdict, res.method) == ("COMPATIBLE", "sdp-parent")
        assert len(calls) == 1

    def test_soundness_recheck(self):
        # every feasible verdict ships a certificate that passes independent
        # validation
        rng = np.random.default_rng(33)
        for _ in range(5):
            mset = meas.random_measurement_set(2, 2, rng)
            res = compat.robustness(mset)
            if res.eta_star > 0:
                noisy = compat.depolarize(mset, res.eta_star if res.eta_star < 1 else 1.0)
                check = compat.certify(noisy, res.parent)
                assert check.verdict == "COMPATIBLE"


class TestNewtonStep:
    def test_one_factorisation_per_iterate_per_step(self, monkeypatch):
        counts = {"cholesky": 0, "eigh": 0}
        for name in counts:
            def counted(*args, _name=name, _real=getattr(np.linalg, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        res = compat.robustness(meas.symmetric_family(meas.FamilyParams(3, 0.005, 0.50005, 3)))
        assert res.iterations > 0
        # one Cholesky call factorises the stacked iterate [X, Z]
        assert counts == {"cholesky": res.iterations, "eigh": 0}

    def test_verdict_insensitive_to_input_rounding(self):
        # the same row with each element, built per POVM, the average of the
        # two triangles of the split instead of a rotation of the mirrored
        # lower one: entries move by at most one rounding, and the set is no
        # longer exactly covariant, so it is solved with one block per tuple
        n, d = 6, 3
        r, eps = TABLE_POINTS[n]
        params = meas.FamilyParams(n + 1, r, 1.0 / n + eps, d)
        built = meas.symmetric_family(params)
        B, eye = loss._split_amplitudes(params.tau, d), np.eye(d, dtype=complex)[None]
        povms = []
        for mu in oracles.displacements(params):
            raw = loss._chain_step(meas.displaced_onoff(mu, d), B, eye)
            povms.append(0.5 * (raw + raw.conj().transpose(0, 2, 1)))
        averaged = meas.MeasurementSet(tuple(povms))
        gaps = [np.abs(E - F).max() for p, q in zip(built, averaged)
                for E, F in zip(p, q)]
        assert 0.0 < max(gaps) <= 1e-16
        a, b = compat.robustness(built), compat.robustness(averaged)
        assert (a.verdict, a.method) == (b.verdict, b.method) == ("INCOMPATIBLE", "sdp-witness")
        assert abs(a.eta_star - b.eta_star) <= 1e-8
        assert abs(a.eta_hi - b.eta_hi) <= 1e-8


TIER1_ROWS = (
    [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 9)] + [(4, n) for n in range(2, 7)]
)


def table_family(d, n):
    r, eps = TABLE_POINTS[n]
    return meas.symmetric_family(meas.FamilyParams(n + 1, r, 1.0 / n + eps, d))


def broken_copy(mset):
    """The set with one entry of measurement 1 moved by one rounding: no
    longer exactly covariant, so it is solved with one block per tuple."""
    povms = list(mset)
    povms[1] = E = povms[1].copy()
    E[0, 0, 0] = np.nextafter(E[0, 0, 0].real, 2.0)
    return meas.MeasurementSet(tuple(povms))


class TestReduction:
    # binary bracelets, OEIS A000029
    BRACELETS = [2, 3, 4, 6, 8, 13, 18, 30, 46, 78, 126, 224, 380, 687, 1224, 2250]

    @pytest.mark.parametrize("count", range(1, 17))
    def test_orbit_counts_are_bracelet_numbers(self, count):
        sdp = compat._RobustnessSdp(meas.symmetric_family(meas.FamilyParams(count, 0.1, 0.5, 2)))
        assert len(sdp.rep) == self.BRACELETS[count - 1]
        assert sdp.weight.sum() == sdp.T == 2**count
        # each orbit's size: the distinct images of its representative under the
        # count rotations and their reversals
        tuples = list(itertools.product((0, 1), repeat=count))  # in flat index order
        for r, w in zip(sdp.rep, sdp.weight):
            t = tuples[r]
            assert w == len({u[k:] + u[:k] for u in (t, t[::-1]) for k in range(count)})

    @pytest.mark.parametrize("count,d,size", [(16, 3, 40), (11, 2, 20), (6, 4, 5)],
                             ids=["count16-d3", "count11-d2", "count6-d4"])
    def test_reduction_on_a_subset_of_the_orbits(self, count, d, size):
        # the reduction built from some columns of the image table agrees with
        # the full one on those orbits, and expands a parent to them alone
        mset = meas.symmetric_family(meas.FamilyParams(count, 0.005, 1.0 / (count - 1), d))
        full, sub = compat._RobustnessSdp(mset), compat._RobustnessSdp(mset)
        rng = np.random.default_rng(count)
        R = len(full.rep)
        cols = np.r_[0, np.sort(rng.choice(np.arange(1, R), size - 1, replace=False))]
        sub.reduce(full.images[:, cols])
        assert np.array_equal(sub.rep, full.rep[cols]) and np.array_equal(sub.G0, full.G0[cols])
        assert np.array_equal(sub.weight, full.weight[cols]) and (sub.stabiliser > 1).any()
        c = rng.normal(size=len(full.dv))
        assert np.array_equal(sub.dual_blocks(c), full.dual_blocks(c)[cols])
        X = random_blocks(size, d, rng) / full.T
        padded = np.zeros((R, d, d), dtype=complex)
        padded[cols] = X
        want = full.marginal_coords(padded)
        assert np.abs(sub.marginal_coords(X) - want).max() <= 1e-15 * np.abs(want).max()
        B = sub.full_blocks(X)
        assert np.array_equal(B, full.full_blocks(padded))
        outside = np.ones(full.T, dtype=bool)
        outside[sub.images.ravel()] = False
        assert outside.sum() == full.T - sub.weight.sum() and not B[outside].any()

    @pytest.mark.parametrize("params", [
        meas.FamilyParams(3, 0.005, 0.50005, 3),  # INCOMPATIBLE; the repair shifts the witness
        meas.FamilyParams(5, 0.045, 0.25135, 3),  # INCOMPATIBLE
        meas.FamilyParams(3, 0.1, 0.3, 3),  # COMPATIBLE by the solve
    ], ids=["witness-repaired", "witness", "parent"])
    def test_certificates_are_covariant(self, params):
        mset = meas.symmetric_family(params)
        res = compat.robustness(mset)
        assert res.method == ("sdp-witness" if res.verdict == "INCOMPATIBLE" else "sdp-parent")
        n, d = params.count, params.d
        R = oracles.phase_rotation(2 * np.pi / n, d)
        G = res.parent
        for t in np.ndindex(*G.outcome_counts):
            shifted = tuple(t[(j - 1) % n] for j in range(n))
            reversed_ = tuple(t[-j % n] for j in range(n))
            G_t = oracles.element(G, t)
            assert np.abs(oracles.element(G, shifted) - R @ G_t @ R.conj().T).max() <= 1e-15
            assert np.abs(oracles.element(G, reversed_) - G_t.conj()).max() <= 1e-15
        if res.verdict == "INCOMPATIBLE":
            Y = res.witness
            for j in range(n):
                for a in range(2):
                    scale = np.abs(Y[j][a]).max()
                    assert (np.abs(Y[(j + 1) % n][a] - R @ Y[j][a] @ R.conj().T).max()
                            <= 1e-15 * scale)
                    assert np.abs(Y[-j % n][a] - Y[j][a].conj()).max() <= 1e-15 * scale

    @pytest.mark.parametrize("d,n", TIER1_ROWS)
    def test_reduced_matches_trivial_group(self, d, n):
        family = table_family(d, n)
        broken = broken_copy(family)
        assert len(compat._RobustnessSdp(family).rep) < 2 ** (n + 1)
        assert len(compat._RobustnessSdp(broken).rep) == 2 ** (n + 1)
        a, b = compat.robustness(family), compat.robustness(broken)
        assert (a.verdict, a.method) == (b.verdict, b.method) == ("INCOMPATIBLE", "sdp-witness")
        assert abs(a.eta_star - b.eta_star) <= 1e-8
        assert abs(a.eta_hi - b.eta_hi) <= 1e-8

    @pytest.mark.parametrize("n", [5, 10], ids=["count6", "count11"])
    def test_expanded_iterate_is_invariant(self, n):
        # the Newton steps leave the iterate off invariance (850 eps of max|X| at
        # count 6, 1.3e5 eps at count 11); its expansion is the group average
        sdp = compat._RobustnessSdp(table_family(3, n))
        B = sdp.full_blocks(sdp.solve(compat.DEFAULT_MAX_ITER)[0])
        gap = np.abs(B - oracles.dihedral_average(sdp.outs, B)).max()
        assert gap <= 4 * np.finfo(float).eps * np.abs(B).max()

    @pytest.mark.parametrize("d,n,broken", [
        *(pytest.param(d, n, False, id=f"{d}-{n}") for d, n in TIER1_ROWS),
        pytest.param(3, 9, True, id="broken-3-9"),
        pytest.param(4, 4, True, id="broken-4-4"),
        pytest.param(3, 10, True, id="broken-3-10"),
    ])
    def test_eta_star_within_tol_of_eta_hi(self, d, n, broken):
        # eta_hi is an exact bound; the eta_star parent passes certify only up
        # to TOL, so it is projected at min(eta_p, eta_hi).  The solve's eta_p
        # exceeds eta_hi on the broken d=3 n=10 copy (by 1.3e-8 at one BLAS
        # thread, 3.6e-9 at two) and on the pair of
        # test_near_boundary_pair_incompatible (9.0e-11); on the broken d=3
        # n=9 and d=4 n=4 copies it lies below eta_hi
        family = table_family(d, n)
        mset = broken_copy(family) if broken else family
        res = compat.robustness(mset)
        assert res.verdict == "INCOMPATIBLE" and res.eta_star <= res.eta_hi
        check = compat.certify(compat.depolarize(mset, res.eta_star), res.parent)
        assert check.verdict == "COMPATIBLE"

    @pytest.mark.parametrize("n,steps", [(2, 9), (3, 11)])
    def test_benchmark_rows_keep_step_counts(self, n, steps):
        assert compat.robustness(table_family(3, n)).iterations == steps

    def test_stall_with_the_residual_within_tol_ends_the_solve(self):
        # the least residual, 1.2e-10: within TOL but above the tolerance,
        # comes at step 12; without the stall the solve runs to step 43
        res = compat.robustness(broken_copy(table_family(2, 5)))
        assert (res.verdict, res.iterations) == ("INCOMPATIBLE", 17)

    @pytest.mark.parametrize("d,eta_hi", [(10, 0.92403), (12, 0.92582)])
    def test_rows_above_eight_levels_incompatible(self, d, eta_hi):
        res = compat.robustness(meas.symmetric_family(meas.FamilyParams(3, 0.3, 0.51, d)))
        assert (res.verdict, res.method) == ("INCOMPATIBLE", "sdp-witness")
        assert res.eta_hi == pytest.approx(eta_hi, abs=1e-5)
        assert res.eta_star <= res.eta_hi

    @pytest.mark.parametrize("count,d", [(13, 3), (15, 2)], ids=["count13-d3", "count15-d2"])
    def test_count_13_and_15_rows_incompatible(self, count, d):
        # 8192 outcome tuples and 380 orbits at count 13; count 15 (1224 orbits)
        # stalls at step 6, UNDECIDED, unless the stall waits for a residual within TOL
        params = meas.FamilyParams(count, 0.005, 1.0 / (count - 1) + 5e-5, d)
        row = compat.decide_table_row(params)
        assert (row.verdict, row.method) == ("INCOMPATIBLE", "sdp-witness")
        assert row.eta_star < 1.0


class TestResult2Completeness:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_loss_breaking_certified_without_iterations(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            mset = meas.random_measurement_set(3, n, rng)
            par = parent.lon_parent(mset, [1.0 / n] * n)
            lossy = meas.MeasurementSet(
                tuple(loss.apply_dual(1.0 / n, p) for p in mset)
            )
            res = compat.certify(lossy, par)
            assert res.verdict == "COMPATIBLE"
            assert res.iterations == 0
            assert res.marginal_residual <= 1e-10
            assert res.psd_residual <= 1e-10


class TestDecideTableRow:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_table_breaking_point_certified(self, n):
        # count n+1 at tau = 1/(n+1): every row the network parent can reach
        r, _ = TABLE_POINTS[n]
        row = compat.decide_table_row(meas.FamilyParams(n + 1, r, 1.0 / (n + 1), 3))
        assert row.verdict == "COMPATIBLE"
        assert row.method == "lon-parent"
        assert row.iterations == 0
        assert row.marginal_residual <= 1e-10
        assert row.psd_residual <= 1e-10

    def test_table_breaking_point_beyond_arm_limit(self):
        r, _ = TABLE_POINTS[10]
        with pytest.raises(ValueError, match="exceeds the desk-scale limit"):
            compat.decide_table_row(meas.FamilyParams(11, r, 1.0 / 11, 3))

    def test_refused_network_row_builds_one_family(self, monkeypatch):
        # the lossy family was once built before lon_parent refused the network
        calls = []

        def counted(params):
            calls.append(params.tau)
            return meas.symmetric_family(params)

        monkeypatch.setattr(compat, "symmetric_family", counted)
        with pytest.raises(ValueError, match="exceeds the desk-scale limit"):
            compat.decide_table_row(meas.FamilyParams(11, 0.005, 1.0 / 11, 3))
        assert calls == [1.0]

    def test_rounding_over_the_budget_is_not_lon_parent(self):
        # count * tau = 1.0000000000001: no network has these arms, although a
        # slack of 1e-12 once sent the row to the network parent
        row = compat.decide_table_row(meas.FamilyParams(10, 0.01, 0.1 + 1e-14, 3))
        assert row.method != "lon-parent"

    def test_budget_is_the_correctly_rounded_sum(self):
        # count * tau rounds the exact product once, as math.fsum rounds the
        # exact sum that lon_parent tests: the two never disagree
        for count in range(1, 2001):
            tau = 1.0 / count
            assert count * tau <= 1.0, count
            for t in (tau, math.nextafter(tau, 1.0)):
                assert (count * t <= 1.0) == (math.fsum([t] * count) <= 1.0), (count, t)

    def test_lon_parent_refuses_what_the_budget_refuses(self):
        # at 1.0 / count and one float above it: a slack of 1e-12 once let
        # lon_parent accept sums one ulp over 1
        one = (np.eye(1, dtype=complex),)
        for count in range(1, 101):
            mset = meas.MeasurementSet((one,) * count)
            for t in (1.0 / count, math.nextafter(1.0 / count, 1.0)):
                if count * t <= 1.0:
                    parent.lon_parent(mset, [t] * count)
                else:
                    with pytest.raises(ValueError, match="exceeds 1"):
                        parent.lon_parent(mset, [t] * count)

    def test_breaking_point_above_sdp_dimension_limit_certified(self):
        # d = 10 on the lon-parent path: the network parent, no SDP
        row = compat.decide_table_row(meas.FamilyParams(2, 0.1, 0.5, 10))
        assert (row.verdict, row.method) == ("COMPATIBLE", "lon-parent")
        assert max(row.marginal_residual, row.psd_residual) <= 1e-10

    def test_breaking_point_above_sdp_tuple_limit_certified(self):
        # 2^17 outcome tuples: MAX_TUPLES binds the SDP only
        row = compat.decide_table_row(meas.FamilyParams(17, 0.01, 1.0 / 17, 2))
        assert 2**17 > compat.MAX_TUPLES
        assert (row.verdict, row.method) == ("COMPATIBLE", "lon-parent")
        assert max(row.marginal_residual, row.psd_residual) <= 1e-10

    def test_breaking_point_compatible_by_certificate(self):
        row = compat.decide_table_row(
            meas.FamilyParams(3, 0.005, 1.0 / 3.0, 3)
        )
        assert row.verdict == "COMPATIBLE"
        assert row.method == "lon-parent"
        assert row.eta_star == 1.0
        assert row.iterations == 0

    def test_benchmark_triple_incompatible(self):
        row = compat.decide_table_row(
            meas.FamilyParams(3, 0.005, 0.5 + 0.00005, 3)
        )
        assert row.verdict == "INCOMPATIBLE"
        assert row.method == "sdp-witness"
        assert row.eta_star < 1.0

    def test_no_certificate_is_undecided(self):
        # no Newton step: the witness proves nothing and the starting parent
        # fails certify, so the row is UNDECIDED rather than guessed
        row = compat.decide_table_row(meas.FamilyParams(3, 0.005, 0.50005, 3), max_iter=0)
        assert (row.verdict, row.method) == ("UNDECIDED", "none")
        assert row.eta_hi is None and row.witness is None
        assert row.iterations == 0

    @pytest.mark.parametrize("method, decide", [
        ("lon-parent", lambda: compat.decide_table_row(meas.FamilyParams(3, 0.005, 1 / 3, 3))),
        ("sdp-witness", lambda: compat.decide_table_row(meas.FamilyParams(3, 0.005, 0.50005, 2))),
        ("sdp-parent", lambda: compat.robustness(
            meas.symmetric_family(meas.FamilyParams(3, 0.1, 0.3, 3))
        )),
        ("none", lambda: compat.decide_table_row(
            meas.FamilyParams(3, 0.005, 0.50005, 3), max_iter=0
        )),
    ], ids=["lon-parent", "sdp-witness", "sdp-parent", "undecided"])
    def test_float_fields_are_floats(self, method, decide):
        # robustness once returned eta_star as np.float64 on the witness path
        row = decide()
        assert row.method == method
        for name in ("eta_star", "eta_hi", "marginal_residual", "psd_residual", "seconds"):
            value = getattr(row, name)
            assert value is None or type(value) is float, (name, type(value))
        assert type(row.iterations) is int

    def test_failed_network_parent_is_undecided(self, monkeypatch):
        # a network parent whose rounding-sized residual exceeds TOL proves nothing
        monkeypatch.setattr(compat, "TOL", 1e-20)
        row = compat.decide_table_row(meas.FamilyParams(3, 0.005, 1.0 / 3.0, 3))
        assert row.marginal_residual > 1e-20
        assert (row.verdict, row.method, row.eta_star) == ("UNDECIDED", "none", None)

    def test_triple_stays_incompatible_below_half(self):
        # three measurements are only guaranteed compatible at tau <= 1/3;
        # this family indeed stays incompatible just below 1/2 (verified
        # against an interior-point reference during bring-up)
        row = compat.decide_table_row(meas.FamilyParams(3, 0.005, 0.49, 3))
        assert row.verdict == "INCOMPATIBLE"

    def test_pair_point_above_half(self):
        row = compat.decide_table_row(meas.FamilyParams(2, 0.015, 0.51, 2))
        assert row.verdict == "INCOMPATIBLE"
        # oracle: closed-form criterion agrees
        a, b = qubit.lossy_displaced_pair(0.015, 0.51)
        assert qubit.pair_test(a, b).incompatible

    def test_pair_at_exactly_half_compatible(self):
        row = compat.decide_table_row(meas.FamilyParams(2, 0.015, 0.5, 2))
        assert row.verdict == "COMPATIBLE"
        assert row.method == "lon-parent"

    def test_degenerate_family_compatible(self):
        # r = 0 makes every measurement identical
        row = compat.decide_table_row(meas.FamilyParams(3, 0.0, 0.9, 3))
        assert row.verdict == "COMPATIBLE"

    def test_record_fields(self):
        row = compat.decide_table_row(meas.FamilyParams(2, 0.1, 0.4, 3))
        assert {f.name for f in dataclasses.fields(row)} == {
            "verdict", "method", "eta_star", "eta_hi", "marginal_residual", "psd_residual",
            "iterations", "seconds", "parent", "witness", "phases",
        }


class TestPhases:
    """``Verdict.phases`` accounts for the record's seconds."""

    TOP = {"build", "solve", "repair", "parent", "certify"}
    PARTS = {
        "solve.residual", "solve.factor", "solve.schur", "solve.direction", "solve.step_length",
        "solve.update",
    }

    @pytest.mark.parametrize(
        "solve, row",
        [
            (lambda: compat.decide_table_row(meas.FamilyParams(3, 0.005, 0.5 + 5e-5, 3)), True),
            (lambda: compat.decide_table_row(meas.FamilyParams(4, 0.01, 1 / 3 + 0.00018, 3)), True),
            (lambda: compat.robustness(TRIVIAL), False),
        ],
        ids=["table-d3-n2", "table-d3-n3", "trivial-group"],
    )
    def test_phases_sum_to_the_seconds(self, solve, row):
        # a table row adds "family" to the phases of robustness
        res = solve()
        phases = res.phases
        assert phases.keys() == self.TOP | self.PARTS | ({"family"} if row else set())
        assert all(t >= 0 for t in phases.values())
        outer = sum(t for k, t in phases.items() if k not in self.PARTS)
        assert 0.8 * res.seconds <= outer <= res.seconds
        # the laps partition the solve: only the call and its return lie outside them
        assert 0.9 * phases["solve"] <= sum(phases[k] for k in self.PARTS) <= phases["solve"]

    def test_parts_do_not_depend_on_the_step_count(self):
        res = compat.robustness(TRIVIAL, max_iter=0)
        assert res.iterations == 0 and res.phases.keys() == self.TOP | self.PARTS

    def test_network_row_and_certify(self):
        row = compat.decide_table_row(meas.FamilyParams(3, 0.005, 1 / 3, 3))
        assert row.method == "lon-parent" and row.phases.keys() == {"family", "parent", "certify"}
        assert sum(row.phases.values()) <= row.seconds
        mset = meas.symmetric_family(meas.FamilyParams(3, 0.005, 1 / 3, 3))
        assert compat.certify(mset, row.parent).phases is None


class TestOneThreshold:
    """compat.TOL is the one certificate threshold; no call can loosen it."""

    @pytest.mark.parametrize("func", [compat.certify, compat.robustness, compat.decide_table_row])
    def test_no_tol_parameter(self, func):
        assert "tol" not in inspect.signature(func).parameters

    def test_tol_is_a_constant(self):
        assert compat.TOL == 1e-8 and not hasattr(compat, "DEFAULT_TOL")

    @pytest.mark.parametrize("tau", [1.0 / 3.0, 0.50005], ids=["lon-parent", "sdp"])
    def test_negative_step_cap_refused_on_every_path(self, tau):
        with pytest.raises(ValueError, match="max_iter must be non-negative"):
            compat.decide_table_row(meas.FamilyParams(3, 0.005, tau, 3), max_iter=-1)

    @pytest.mark.parametrize(
        "value", [2.5, True, np.bool_(False)], ids=["float", "bool", "np-bool"]
    )
    @pytest.mark.parametrize("tau", [1.0 / 3.0, 0.50005], ids=["lon-parent", "sdp"])
    def test_non_integer_step_cap_refused_on_every_path(self, tau, value):
        # 2.5 once raised a TypeError from range inside the solve, or passed
        # on a network row; True ran one Newton step
        params = meas.FamilyParams(3, 0.005, tau, 3)
        with pytest.raises(ValueError, match=f"max_iter must be an integer, got {value!r}"):
            compat.decide_table_row(params, max_iter=value)
        with pytest.raises(ValueError, match=f"max_iter must be an integer, got {value!r}"):
            compat.robustness(meas.symmetric_family(params), max_iter=value)


def _family(count):
    return meas.symmetric_family(meas.FamilyParams(count, 0.1, 0.9, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: compat.robustness(_family(17)), "131072 outcome tuples exceed the 65536 limit"),
    (lambda: compat.certify(_family(3), meas.ParentPovm((2, 2), np.zeros((4, 2, 2)))),
     "parent shape does not match"),
    (lambda: compat.certify(_family(2), meas.ParentPovm((2, 2), np.zeros((4, 3, 3)))),
     "parent shape does not match"),
], ids=["tuples", "outcome-counts", "dimension"])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        params = meas.FamilyParams(2, 0.1, 0.75, 2)
        a = compat.decide_table_row(params)
        b = compat.decide_table_row(params)
        assert a.eta_star == b.eta_star
        assert a.iterations == b.iterations
        assert a.verdict == b.verdict
        assert a.marginal_residual == b.marginal_residual

    ROWS = """
import hashlib, json
from lossjm import compat
from lossjm.cli import TABLE_POINTS
from lossjm.measurements import FamilyParams
records = []
for n in (9, 10):
    r, eps = TABLE_POINTS[n]
    v = compat.decide_table_row(FamilyParams(n + 1, r, 1.0 / n + eps, 3))
    h = hashlib.sha256(v.parent.blocks.tobytes())
    for rows in v.witness:
        h.update(rows.tobytes())
    fields = ("verdict", "method", "eta_star", "eta_hi", "marginal_residual",
              "psd_residual", "iterations")
    records.append([repr(getattr(v, f)) for f in fields] + [h.hexdigest()])
print(json.dumps(records))
"""

    def test_table_rows_independent_of_the_blas_thread_count(self):
        # the d=3 rows n = 9, 10 at tau = 1/n + eps, at one and at two OpenBLAS
        # threads: the Schur product once summed in an order that moved with
        # the count (row 9's eta_star: ...645826 at one, ...475862 at two)
        src = str(Path(compat.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        records = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", self.ROWS], env=env, capture_output=True, text=True,
                check=True,
            )
            records.append(json.loads(proc.stdout))
        assert records[0] == records[1]
        assert [r[0] for r in records[0]] == ["'INCOMPATIBLE'"] * 2


class TestOracleAgreementSample:
    def test_random_pairs_agree_with_criterion(self):
        # a 20-pair slice of the full acceptance check
        rng = np.random.default_rng(7)
        for _ in range(20):
            mset = meas.random_measurement_set(2, 2, rng)
            report = qubit.pair_test(mset.povms[0], mset.povms[1])
            if abs(report.test_value) <= 1e-6:
                continue
            res = compat.robustness(mset)
            assert (res.verdict == "INCOMPATIBLE") == report.incompatible
