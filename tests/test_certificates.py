"""Exact re-checks of the certificates that ``compat.robustness`` returns.

The witness and the parent are read as exact binary fractions and checked
in 50-digit arithmetic against the measurement set alone; no solver runs
in the checks.
"""

import itertools

import mpmath
import numpy as np
import pytest

from lossjm import compat, measurements as meas
from lossjm.cli import TABLE_POINTS

import oracles


def exact(M):
    return mpmath.matrix([[mpmath.mpc(complex(z).real, complex(z).imag) for z in row] for row in M])


def inner(A, B):
    """Re tr(A B)."""
    return sum(((A * B)[i, i] for i in range(A.rows)), mpmath.mpf(0)).real


def smallest_eigenvalue(A):
    return min(mpmath.eighe(A, eigvals_only=True))


@pytest.fixture
def digits50():
    with mpmath.workdps(50):
        yield


def table_row(n, d=3):
    r, eps = TABLE_POINTS[n]
    return meas.FamilyParams(n + 1, r, 1.0 / n + eps, d)


@pytest.mark.parametrize("params", [
    table_row(2), table_row(6), table_row(8), meas.FamilyParams(3, 0.3, 0.51, 10),
], ids=["d3-n2", "d3-n6", "d3-n8", "d10-count3"])
def test_row_witness_is_exact(digits50, params):
    """The repaired witness of an incompatible row proves eta* < 1 exactly,
    at every outcome tuple: the d=3 n=2, 6 and 8 table rows (whose repair
    reads only 18 of 128 and 46 of 512 tuples), and a count-3 row above
    eight levels."""
    mset = meas.symmetric_family(params)
    res = compat.robustness(mset)
    assert res.verdict == "INCOMPATIBLE"

    d = mset.dim
    M = [[exact(E) for E in p] for p in mset]
    Y = [[exact(W) for W in rows] for rows in res.witness]
    C = [[sum(E[i, i] for i in range(d)).real / d * mpmath.eye(d) for E in p] for p in M]
    for t in itertools.product(*[range(len(p)) for p in M]):
        Z = sum((Y[j][a] for j, a in enumerate(t)), mpmath.zeros(d))
        assert smallest_eigenvalue(Z) >= 0
    pairs = [(j, a) for j, p in enumerate(M) for a in range(len(p))]
    dy = sum(inner(M[j][a] - C[j][a], Y[j][a]) for j, a in pairs)
    bound = sum(inner(C[j][a], Y[j][a]) for j, a in pairs)
    assert dy <= -1
    assert bound < 1
    assert bound <= res.eta_hi


def test_compatible_parent_is_exact(digits50):
    """The eta = 1 parent of a compatible pair has PSD blocks and the set's marginals."""
    mset = meas.symmetric_family(meas.FamilyParams(2, 0.1, 0.4, 3))
    res = compat.robustness(mset)
    assert res.method == "sdp-parent" and res.eta_star == 1.0

    par = res.parent
    tuples = np.ndindex(*par.outcome_counts)
    blocks = {t: exact(oracles.element(par, t)) for t in tuples}
    for G in blocks.values():
        assert smallest_eigenvalue(G) >= 0
    worst = mpmath.mpf(0)
    for j, p in enumerate(mset):
        for a, E in enumerate(p):
            marg = sum((G for t, G in blocks.items() if t[j] == a), mpmath.zeros(mset.dim))
            worst = max(worst, mpmath.mnorm(marg - exact(E), 1))
    assert worst <= 1e-14
