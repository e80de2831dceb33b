"""Acceptance suite: one test per exit criterion, each printing a verdict line."""

import math
import time
from fractions import Fraction

import numpy as np

from lossjm import (
    compat,
    loss,
    measurements as meas,
    parent,
    qubit,
    usd,
)
from lossjm.cli import table_row

import oracles


def test_criterion_1_benchmark_verdicts(criterion_report):
    """Families of n+1 displaced on-off measurements at tau = 1/n + eps and
    three-level truncation are decided INCOMPATIBLE, for n = 2..5."""
    details = []
    ok = True
    for n in (2, 3, 4, 5):
        row = compat.decide_table_row(table_row(3, n))
        incompatible = row.verdict == "INCOMPATIBLE"
        ok &= incompatible
        if n == 5:
            ok &= row.seconds < 600
        details.append(f"n={n}: {row.verdict} eta*={row.eta_star:.6f} ({row.seconds:.0f}s)")
    criterion_report("criterion 1: benchmark family verdicts", ok, "; ".join(details))
    assert ok, details


def test_criterion_2_constructive_breaking(criterion_report):
    """Random measurement sets become certified compatible at tau = 1/n via
    the explicit network parent, including the composed eta = 0.8 variant."""
    rng = np.random.default_rng(2024)
    worst_marg = worst_psd = 0.0
    t0 = time.perf_counter()
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        d = 3 if trial % 4 < 2 else 4
        mset = meas.random_measurement_set(d, n, rng)
        for eta in (1.0, 0.8):
            par = parent.lon_parent(mset, [eta / n] * n)
            lossy = meas.MeasurementSet(tuple(loss.apply_dual(eta / n, p) for p in mset))
            res = compat.certify(lossy, par)
            worst_marg = max(worst_marg, res.marginal_residual)
            worst_psd = max(worst_psd, res.psd_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_marg <= 1e-10 and worst_psd <= 1e-10 and elapsed < 60
    criterion_report(
        "criterion 2: constructive compatibility at tau = 1/n",
        ok,
        f"worst marginal {worst_marg:.2e}, worst psd {worst_psd:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_marginal_identity(criterion_report):
    """Parent marginals reproduce the lossy measurements to 1e-10."""
    rng = np.random.default_rng(77)
    worst2 = 0.0
    for d in (2, 4, 6, 8):
        mset = meas.random_measurement_set(d, 2, rng)
        worst2 = max(worst2, parent.verify_marginal_identity(mset, [0.5, 0.5]))
    worst3 = 0.0
    for d in (2, 3, 4):
        mset = meas.random_measurement_set(d, 3, rng)
        worst3 = max(worst3, parent.verify_marginal_identity(mset, [1 / 3] * 3))
    ok = worst2 <= 1e-10 and worst3 <= 1e-10
    criterion_report(
        "criterion 3: marginal identity",
        ok,
        f"pairs up to d=8: {worst2:.2e}; triples up to d=4: {worst3:.2e}",
    )
    assert ok


def test_criterion_4_leading_order(criterion_report):
    """The pair criterion matches 16 tau (2 tau - 1) r^2 within 5%, with an
    O(r^4) remainder."""
    ok = True
    details = []
    for tau in (0.55, 0.6, 0.75):
        rel_devs = {}
        for r in (0.01, 0.005):
            test, predicted = oracles.leading_order_check(r, tau)
            rel_devs[r] = abs(test - predicted) / abs(predicted)
            ok &= rel_devs[r] <= 0.05
        # quartic remainder over a quadratic leading term: halving r cuts the
        # relative deviation ~4x
        shrink = rel_devs[0.01] / rel_devs[0.005]
        ok &= 3.0 <= shrink <= 6.0
        details.append(f"tau={tau}: rel dev {rel_devs[0.01]:.1e}, shrink {shrink:.2f}x")
    criterion_report("criterion 4: small-displacement expansion", ok, "; ".join(details))
    assert ok


def test_criterion_5_oracle_agreement(criterion_report):
    """Solver verdicts match the closed-form pair criterion on 100 random
    qubit pairs with |Test| > 1e-6."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    agree = disagree = skipped = 0
    for _ in range(100):
        mset = meas.random_measurement_set(2, 2, rng)
        report = qubit.pair_test(mset.povms[0], mset.povms[1])
        if abs(report.test_value) <= 1e-6:
            skipped += 1
            continue
        res = compat.robustness(mset)
        if (res.verdict == "INCOMPATIBLE") == report.incompatible:
            agree += 1
        else:
            disagree += 1
    elapsed = time.perf_counter() - t0
    ok = disagree == 0 and elapsed < 300
    criterion_report(
        "criterion 5: solver vs closed-form criterion",
        ok,
        f"{agree} agree, {disagree} disagree, {skipped} near-boundary skipped, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_6_loss_channel_algebra(criterion_report):
    """Route agreement, duality, composition, and the Gaussian Husimi form."""
    rng = np.random.default_rng(11)

    route = 0.0
    for tau in np.arange(0.1, 1.01, 0.1):
        for mu in (0.0, 0.3, -0.8, 0.5 + 0.5j, 1.0, -1.0j):
            for d in (2, 4, 8):
                kraus = loss.apply_dual(tau, meas.coherent_projector(mu, d))
                gauss = oracles.dual_coherent_projector(tau, mu, d)
                route = max(route, float(np.abs(kraus - gauss).max()))

    dual = 0.0
    for _ in range(50):
        tau = rng.uniform()
        rho, M = oracles.random_density(6, rng), oracles.random_hermitian(6, rng)
        lhs = np.trace(M @ oracles.apply_channel(tau, rho))
        rhs = np.trace(rho @ loss.apply_dual(tau, M))
        dual = max(dual, abs(lhs - rhs))

    comp = 0.0
    for t1 in (0.3, 0.5, 0.9):
        for t2 in (0.3, 0.5, 0.9):
            M = oracles.random_hermitian(6, rng)
            delta = loss.apply_dual(t2, loss.apply_dual(t1, M)) - loss.apply_dual(
                t1 * t2, M
            )
            comp = max(comp, float(np.abs(delta).max()))

    tau, mu, alpha, d = 0.6, 0.1, 0.2, 25
    M = loss.apply_dual(tau, meas.coherent_projector(mu, d))
    got = oracles.q_function(M, alpha)
    expect = math.exp(-tau * abs(alpha - mu / math.sqrt(tau)) ** 2) / math.pi
    husimi_rel = abs(got - expect) / expect

    ok = route <= 1e-10 and dual <= 1e-12 and comp <= 1e-11 and husimi_rel <= 1e-8
    criterion_report(
        "criterion 6: loss-channel algebra",
        ok,
        f"routes {route:.1e}, duality {dual:.1e}, composition {comp:.1e}, "
        f"Husimi rel {husimi_rel:.1e}",
    )
    assert ok


def test_criterion_7_discrimination(criterion_report):
    """Discrimination probabilities, identities, and the loss threshold."""
    eq = max(abs(usd.p_lon(2, r) - usd.p_d(2, r)) for r in (0.01, 0.1, 0.5, 1.0))

    ratio_dev = 0.0
    for n in range(2, 6):
        ratio_dev = max(ratio_dev, abs(usd.p_d(n, 1e-3) / usd.p_d_approx(n, 1e-3) - 1))
        ratio_dev = max(
            ratio_dev, abs(usd.p_lon(n, 1e-3) / usd.p_lon_approx(n, 1e-3) - 1)
        )

    prod_dev = max(abs(oracles.root_distance_product(n) - n * n) for n in range(2, 21))

    thresholds = usd.result4_threshold(0.5) == 3 and usd.result4_threshold(0.25) == 7

    contradiction = True
    for tau in (0.9, 0.5, 0.25, 0.1):
        n = usd.result4_threshold(tau)
        contradiction &= Fraction(math.factorial(n)) * Fraction(tau) ** (n - 1) > 1
        r = 1e-3
        contradiction &= usd.lossy_usd_success(n, r, tau) > usd.p_d_approx(n, r)

    ok = (
        eq <= 1e-12
        and ratio_dev <= 0.01
        and prod_dev <= 1e-9
        and thresholds
        and contradiction
    )
    criterion_report(
        "criterion 7: state discrimination",
        ok,
        f"n=2 equality {eq:.1e}, ratio dev {ratio_dev:.1e}, product {prod_dev:.1e}, "
        f"thresholds {thresholds}, contradiction {contradiction}",
    )
    assert ok


def test_criterion_8_stretch_rows(criterion_report):
    """Rows n = 6..8 at qubit truncation stay incompatible within an hour each."""
    ok = True
    details = []
    for n in (6, 7, 8):
        t0 = time.perf_counter()
        row = compat.decide_table_row(table_row(2, n))
        elapsed = time.perf_counter() - t0
        ok &= row.verdict == "INCOMPATIBLE" and elapsed < 3600
        details.append(f"n={n}: {row.verdict} eta*={row.eta_star:.6f} ({elapsed:.0f}s)")
    criterion_report("criterion 8 (stretch): large families at d=2", ok, "; ".join(details))
    assert ok
