"""Bit-for-bit digests of the solver's verification records.

    python3 scripts/record_digests.py > digests.txt

At one BLAS thread, prints one line per record: its name, verdict, method,
Newton steps, ``eta_hi`` and ``eta_star`` (repr, None when absent), and a
sha256 of ``eta_star``, ``eta_hi``, both residuals, the parent's bytes and the
witness's bytes.  A refused record prints its error message instead.  Two
trees whose outputs ``diff`` equal compute every record bit for bit alike;
where they differ, the two bounds show how far the values moved.

The groups (``GROUPS``), in the order printed:

* ``table``: ``decide_table_row`` on the rows d=2 n=2..8, d=3 n=2..10 and d=4
  n=2..8, count n + 1 at tau = 1/n + eps and at tau = 1/(n + 1); two of the
  46 (d=3 n=10 and d=4 n=8 at 1/(n + 1)) are refused by ``MAX_GRID``;
* ``grid``: ``robustness`` on count 2, d=2, at 12 r in geomspace(0.05, 8) x
  20 tau in linspace(0.05, 1);
* ``sweep``: counts 2-5 x d in {2, 3} x 8 r in geomspace(1, 12) x 8 tau in
  linspace(0.05, 1);
* ``pairs``: 500 random qubit pairs, seed 11;
* ``broken``: the refuted table rows d=3 n=3, 7, 9, d=2 n=5 and d=4 n=4 with
  one entry of measurement 1 moved by one rounding, solved with the trivial
  group;
* ``counts``: counts 13 and 16 at d=3, r = 0.005, tau = 1/(count - 1) + 5e-5;
* ``compatible``: count 4 at r = 4.5, tau = 0.5, d=3, COMPATIBLE by the solve;
* ``truncated``: ``max_iter`` 0..22 over the 16 families and 10 seed-7
  random qubit pairs of ``test_truncated_solves_keep_eta_star_in_range``,
  and over count 13.

The first seven hold 1,304 solves and two refusals, ``truncated`` 621 solves.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lossjm import compat, measurements as meas  # noqa: E402
from lossjm.cli import TABLE_POINTS  # noqa: E402


def _family(count, r, tau, d):
    return lambda: meas.symmetric_family(meas.FamilyParams(count, r, tau, d))


def _broken(d, n):
    """The refuted table row with one entry of measurement 1 moved by one rounding."""
    r, eps = TABLE_POINTS[n]
    povms = list(_family(n + 1, r, 1.0 / n + eps, d)())
    povms[1] = E = povms[1].copy()
    E[0, 0, 0] = np.nextafter(E[0, 0, 0].real, 2.0)
    return meas.MeasurementSet(tuple(povms))


def _pairs(seed, k):
    rng = np.random.default_rng(seed)
    return [(f"pair {i}", lambda m=meas.random_measurement_set(2, 2, rng): m) for i in range(k)]


def _solve(build, max_iter=compat.DEFAULT_MAX_ITER):
    return lambda: compat.robustness(build(), max_iter=max_iter)


def _table():
    return [
        (f"table d={d} n={n} tau={tau!r}", lambda p=meas.FamilyParams(n + 1, r, tau, d):
         compat.decide_table_row(p))
        for d, top in ((2, 8), (3, 10), (4, 8)) for n in range(2, top + 1)
        for r, eps in [TABLE_POINTS[n]] for tau in (1.0 / n + eps, 1.0 / (n + 1))
    ]


def _truncated():
    sets = [(f"count={c} r={r} tau={t} d={d}", _family(c, r, t, d))
            for c in (2, 3) for r in (0.3, 4.5) for t in (0.3, 0.9) for d in (2, 3)]
    sets += _pairs(7, 10) + [("count13-d3", _family(13, 0.005, 1.0 / 12 + 5e-5, 3))]
    return [(f"truncated {name} max_iter={k}", _solve(build, k))
            for name, build in sets for k in range(23)]


GROUPS = {
    "table": _table,
    "grid": lambda: [(f"grid r={r!r} tau={t!r}", _solve(_family(2, r, t, 2)))
                     for r in np.geomspace(0.05, 8, 12) for t in np.linspace(0.05, 1, 20)],
    "sweep": lambda: [(f"sweep count={c} d={d} r={r!r} tau={t!r}", _solve(_family(c, r, t, d)))
                      for c in range(2, 6) for d in (2, 3)
                      for r in np.geomspace(1, 12, 8) for t in np.linspace(0.05, 1, 8)],
    "pairs": lambda: [(name, _solve(build)) for name, build in _pairs(11, 500)],
    "broken": lambda: [(f"broken d={d} n={n}", _solve(lambda d=d, n=n: _broken(d, n)))
                       for d, n in ((3, 3), (3, 7), (3, 9), (2, 5), (4, 4))],
    "counts": lambda: [(f"count{c}-d3", _solve(_family(c, 0.005, 1.0 / (c - 1) + 5e-5, 3)))
                       for c in (13, 16)],
    "compatible": lambda: [("compatible count4-d3", _solve(_family(4, 4.5, 0.5, 3)))],
    "truncated": _truncated,
}


def digest(name: str, call) -> str:
    """The record's line: name, verdict, method, steps, eta_hi, eta_star and the
    sha256 of its values."""
    try:
        v = call()
    except ValueError as exc:
        return f"{name} | refused: {exc}"
    h = hashlib.sha256(repr(
        (v.eta_star, v.eta_hi, v.marginal_residual, v.psd_residual)).encode())
    h.update(v.parent.blocks.tobytes() if v.parent is not None else b"")
    for rows in v.witness or ():
        h.update(rows.tobytes())
    return (f"{name} | {v.verdict} {v.method} {v.iterations} {v.eta_hi!r} {v.eta_star!r} "
            f"{h.hexdigest()}")


def main() -> int:
    for records in GROUPS.values():
        for name, call in records():
            print(digest(name, call), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
