"""The benchmark's workloads: inputs made from a seed, operations, output checks.

Each builder takes the imported lossjm modules, the seed, and ``tiny`` (the
reduced input of the self-test) and returns the list of operations of one
pass.  Operations look the lossjm functions up on their modules when they run,
so a traced run sees the wrappers installed by ``spans.Tracer``.  Why each
workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

# Output checks (see README.md)
CERT_RESIDUAL_TOL = 1e-8
MARGINAL_IDENTITY_TOL = 1e-10
USD_STATES = 4
USD_SWEEP = (0.001, 0.5, 50)  # the `lossjm usd --sweep` defaults: min, max, steps


def _never(exc: Exception) -> bool:
    return False


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` calls lossjm, ``check`` inspects its output.

    ``check`` returns a dict describing the output; an ``"error"`` key marks
    an output that is wrong.  ``known_failure`` tells whether an exception
    ``run`` raised is the recorded, expected one: it still counts as a
    failed operation, but does not make the run incorrect.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    known_failure: Callable[[Exception], bool] = _never


def import_lossjm(root: Path) -> SimpleNamespace:
    """Import lossjm from the source tree under ``root``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from lossjm import cli, compat, measurements, parent, qubit, usd

    return SimpleNamespace(
        cli=cli, compat=compat, measurements=measurements, parent=parent, qubit=qubit, usd=usd
    )


def _check_incompatible(row) -> dict:
    out = {"verdict": row.verdict, "eta_star": row.eta_star, "iterations": row.iterations}
    if row.verdict != "INCOMPATIBLE":
        out["error"] = f"expected INCOMPATIBLE, got {row.verdict}"
    elif row.eta_star is None or not math.isfinite(row.eta_star):
        out["error"] = "eta_star not recorded"
    return out


def _check_certified(row) -> dict:
    out = {
        "verdict": row.verdict,
        "method": row.method,
        "marginal_residual": row.marginal_residual,
        "psd_residual": row.psd_residual,
    }
    if row.verdict != "COMPATIBLE" or row.method != "lon-parent":
        out["error"] = f"expected COMPATIBLE via lon-parent, got {row.verdict} via {row.method}"
    elif max(row.marginal_residual, row.psd_residual) > CERT_RESIDUAL_TOL:
        out["error"] = f"certificate residual above {CERT_RESIDUAL_TOL:g}"
    return out


def _check_marginal_identity(residual) -> dict:
    out = {"marginal_identity_residual": residual}
    if not residual <= MARGINAL_IDENTITY_TOL:
        out["error"] = f"marginal-identity residual above {MARGINAL_IDENTITY_TOL:g}"
    return out


def _check_usd(result) -> dict:
    report, sweep = result
    bad = [r for r, pd, plon, _ in sweep if not plon <= pd]
    out = {"p_d": report.p_d, "p_lon": report.p_lon, "sweep_points": len(sweep)}
    if not report.p_lon <= report.p_d:
        out["error"] = "p_lon exceeds p_d"
    elif bad:
        out["error"] = f"p_lon exceeds p_d on the sweep at r = {bad}"
    return out


def _decide(lj, params, **kwargs):
    return lambda: lj.compat.decide_table_row(params, **kwargs)


def table_incompatible(lj, seed: int, tiny: bool) -> list[Op]:
    """Refuted rows at tau = 1/n + eps; the seed does not enter."""
    del seed  # the operating points are fixed by cli.TABLE_POINTS
    rows = (2,) if tiny else (2, 3)
    kwargs = {"max_iter": 500} if tiny else {}
    ops = []
    for n in rows:
        r, eps = lj.cli.TABLE_POINTS[n]
        params = lj.measurements.FamilyParams(n + 1, r, 1.0 / n + eps, 3)
        ops.append(Op(f"row n={n} tau=1/n+eps", _decide(lj, params, **kwargs), _check_incompatible))
    return ops


def _usd_op(lj, n: int, r: float, tau: float, steps: int):
    def run():
        report = lj.usd.usd_report(n, r, tau)
        lo, hi, _ = USD_SWEEP
        sweep = [
            (x, lj.usd.p_d(n, x), lj.usd.p_lon(n, x), lj.usd.lossy_usd_success(n, x, tau))
            for x in np.linspace(lo, hi, steps)
        ]
        return report, sweep

    return run


def _grid_refused(lj, grid: int):
    """The refusal lon_parent gives for a grid above ``parent.MAX_GRID``."""
    limit = lj.parent.MAX_GRID

    def known(exc: Exception) -> bool:
        refusal = f"exceeds the desk-scale limit {limit}"
        return grid > limit and isinstance(exc, ValueError) and refusal in str(exc)

    return known


def _check_pair_compatible(report) -> dict:
    out = {"test_value": report.test_value, "incompatible": report.incompatible}
    if report.incompatible:
        out["error"] = "closed-form criterion calls a pair at tau = 1/2 incompatible"
    return out


def table_certified(lj, seed: int, tiny: bool) -> list[Op]:
    """Certified rows at tau = 1/(n+1), parent-verify sets, one usd report.

    Row n=10 is kept although lon_parent refuses its 3^11 grid: it counts as
    a failed operation.  The n=1 row is the displaced pair at tau = 1/2,
    decided by the closed-form qubit criterion as `lossjm qubit-pair` does.
    """
    rng = np.random.default_rng(seed)
    ops = []
    pair_r = float(rng.uniform(0.05, 1.0))
    ops.append(
        Op(
            f"qubit-pair r={pair_r:.4f} tau=1/2",
            lambda: lj.qubit.pair_test(*lj.qubit.lossy_displaced_pair(pair_r, 0.5)),
            _check_pair_compatible,
        )
    )
    for n in (2, 3, 10) if tiny else range(2, 11):
        r, _ = lj.cli.TABLE_POINTS[n]
        params = lj.measurements.FamilyParams(n + 1, r, 1.0 / (n + 1), 3)
        known = _grid_refused(lj, 3 ** (n + 1)) if n == 10 else _never
        ops.append(Op(f"row n={n} tau=1/(n+1)", _decide(lj, params), _check_certified, known))
    for n, d in ((3, 3),) if tiny else ((6, 4), (8, 4)):
        mset = lj.measurements.random_measurement_set(d, n, rng)
        ops.append(
            Op(
                f"parent-verify n={n} d={d}",
                lambda mset=mset, n=n: lj.parent.verify_marginal_identity(mset, [1.0 / n] * n),
                _check_marginal_identity,
            )
        )
    n, r, tau = USD_STATES, float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.2, 0.9))
    steps = 5 if tiny else USD_SWEEP[2]
    ops.append(Op(f"usd n={n} r={r:.4f} tau={tau:.4f}", _usd_op(lj, n, r, tau, steps), _check_usd))
    return ops


WORKLOADS = {
    "table-incompatible": table_incompatible,
    "table-certified": table_certified,
}
