"""Command-line interface.

Commands construct measurement families, decide joint measurability,
reproduce the benchmark verdict table, verify parent-measurement marginals,
evaluate the qubit pair criterion, and report discrimination probabilities.

Every run emits a manifest echoing the resolved parameters and version
stamps.  JSON is the canonical format, strict (no NaN or Infinity); the table
command also writes CSV.  Exit codes: 0 success, 1 error, 2 when the verdict
is INCOMPATIBLE, 3 when it is UNDECIDED (for scripting pipelines; in a table,
an UNDECIDED row outranks an INCOMPATIBLE one).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import platform
import sys
import time

import numpy as np

from . import __version__, compat, parent, qubit, serialize, usd
from .measurements import FamilyParams, random_measurement_set, symmetric_family

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCOMPATIBLE = 2
EXIT_UNDECIDED = 3

# Benchmark operating points of the symmetric family: for a label n the
# family has n+1 measurements at tau = 1/n + eps and stays incompatible.
TABLE_POINTS = {
    2: (0.005, 0.00005),
    3: (0.010, 0.00018),
    4: (0.065, 0.00118),
    5: (0.045, 0.00135),
    6: (0.035, 0.00100),
    7: (0.025, 0.00055),
    8: (0.015, 0.00015),
    9: (0.010, 0.00010),
    10: (0.005, 0.00005),
}


def table_row(d: int, n: int, tau: float | None = None) -> FamilyParams:
    """Table row n at d: count n + 1 at ``TABLE_POINTS[n]``, tau = 1/n + eps unless given."""
    r, eps = TABLE_POINTS[n]
    return FamilyParams(n + 1, r, 1.0 / n + eps if tau is None else tau, d)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for verdicts
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _manifest(args, t0: float) -> dict:
    """The command, its resolved parameters, version stamps, and the seconds
    since ``t0``."""
    return {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "versions": {
            "lossjm": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.perf_counter() - t0,
    }


def _write(text: str, out: str | None) -> None:
    """Write to stdout when ``out`` is None or "-", else to the file ``out``."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv(rows) -> str:
    """Rows as CSV with "\\n" line ends; None is an empty cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit_json(args, payload: dict, t0: float) -> None:
    """Add the run's manifest to ``payload`` and write it to ``args.out``."""
    payload["manifest"] = _manifest(args, t0)
    _write(_json(payload), args.out)


def cmd_family(args) -> int:
    params = FamilyParams(args.count, args.r, args.tau, args.d)
    t0 = time.perf_counter()
    mset = symmetric_family(params)
    _emit_json(args, serialize.measurement_set_to_json(mset), t0)
    return EXIT_OK


def _exit_code(verdicts) -> int:
    """UNDECIDED outranks INCOMPATIBLE, which outranks COMPATIBLE."""
    verdicts = {v.verdict for v in verdicts}
    if "UNDECIDED" in verdicts:
        return EXIT_UNDECIDED
    return EXIT_INCOMPATIBLE if "INCOMPATIBLE" in verdicts else EXIT_OK


# the verdict record: the Verdict fields but its certificates (declared repr=False)
RECORD = tuple(f.name for f in dataclasses.fields(compat.Verdict) if f.repr)


def _record(verdict: compat.Verdict) -> dict:
    return {k: getattr(verdict, k) for k in RECORD}


def cmd_compat(args) -> int:
    params = FamilyParams(args.count, args.r, args.tau, args.d)
    t0 = time.perf_counter()
    row = compat.decide_table_row(params, max_iter=args.max_iter)
    _emit_json(args, _record(row), t0)
    return _exit_code([row])


def _run_row(n: int, d: int, max_iter: int):
    """The row's family at tau = 1/n + eps, then at its breaking point 1/(n + 1),
    compatible by construction (Result 2); (params, verdict) for each."""
    points = [table_row(d, n), table_row(d, n, 1.0 / (n + 1))]
    return [(p, compat.decide_table_row(p, max_iter=max_iter)) for p in points]


def cmd_table1(args) -> int:
    rows = list(range(args.row_min, args.row_max + 1))
    if not rows:
        raise ValueError(
            f"empty row range: --row-min {args.row_min} exceeds --row-max {args.row_max}"
        )
    unknown = [n for n in rows if n not in TABLE_POINTS]
    if unknown:
        raise ValueError(f"no bundled operating point for rows {unknown}")
    t0 = time.perf_counter()
    results = {n: _run_row(n, args.d, args.max_iter) for n in rows}

    lines = [("n", "r", "tau", "d") + RECORD]
    for n in rows:
        lines += [(n, p.r, p.tau, p.d, *_record(rec).values()) for p, rec in results[n]]
    _write(_csv(lines), args.out)
    if args.out not in (None, "-"):
        _write(_json(_manifest(args, t0)), args.out + ".manifest.json")
    return _exit_code(rec for row in results.values() for _, rec in row)


def cmd_parent_verify(args) -> int:
    rng = np.random.default_rng(args.random_seed)
    mset = random_measurement_set(args.d, args.n, rng)
    taus = [args.tau if args.tau is not None else 1.0 / args.n] * args.n
    t0 = time.perf_counter()
    residual = parent.verify_marginal_identity(mset, taus)
    payload = {
        "n": args.n,
        "d": args.d,
        "taus": taus,
        "random_seed": args.random_seed,
        "marginal_identity_residual": residual,
    }
    _emit_json(args, payload, t0)
    return EXIT_OK


def cmd_qubit_pair(args) -> int:
    t0 = time.perf_counter()
    a, b = qubit.lossy_displaced_pair(args.r, args.tau)
    report = qubit.pair_test(a, b)
    payload = dataclasses.asdict(report)
    payload["r"] = args.r
    payload["tau"] = args.tau
    payload["leading_order_prediction"] = qubit.leading_order_prediction(args.r, args.tau)
    _emit_json(args, payload, t0)
    return EXIT_INCOMPATIBLE if report.incompatible else EXIT_OK


def cmd_usd(args) -> int:
    t0 = time.perf_counter()
    report = usd.usd_report(args.n, args.r, args.tau)
    payload = dataclasses.asdict(report)
    if args.sweep:
        n, tau = args.n, args.tau
        rs = np.linspace(args.sweep_min, args.sweep_max, args.sweep_steps)
        rows = [(r, usd.p_d(n, r), usd.p_lon(n, r), usd.lossy_usd_success(n, r, tau)) for r in rs]
        _write(_csv([("r", "p_d", "p_lon", "lossy_success"), *rows]), args.sweep)
        payload["sweep_file"] = args.sweep
    _emit_json(args, payload, t0)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lossjm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    family = argparse.ArgumentParser(add_help=False)  # the FamilyParams fields
    family.add_argument("--count", type=int, required=True)
    family.add_argument("--r", type=float, required=True)
    family.add_argument("--tau", type=float, required=True)
    family.add_argument("--d", type=int, required=True)
    decide = argparse.ArgumentParser(add_help=False)  # decide_table_row's step cap
    decide.add_argument("--max-iter", type=int, default=compat.DEFAULT_MAX_ITER)
    output = argparse.ArgumentParser(add_help=False)  # every command's destination
    output.add_argument("--out", default=None)

    def command(name, func, *parents, help):
        cmd = sub.add_parser(name, parents=[*parents, output], help=help)
        cmd.set_defaults(func=func)
        return cmd

    command("family", cmd_family, family, help="construct a displaced on-off family")
    command("compat", cmd_compat, family, decide, help="decide joint measurability of a family")

    tab = command("table1", cmd_table1, decide, help="verdicts over the bundled operating points")
    tab.add_argument("--row-min", type=int, default=2)
    tab.add_argument("--row-max", type=int, default=5)
    tab.add_argument("--d", type=int, default=3)

    pv = command("parent-verify", cmd_parent_verify, help="check the network-parent marginals")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--d", type=int, required=True)
    pv.add_argument("--tau", type=float, default=None, help="per-arm transmissivity (default 1/n)")
    pv.add_argument("--random-seed", type=int, default=0)

    qp = command("qubit-pair", cmd_qubit_pair, help="closed-form pair criterion after loss")
    qp.add_argument("--r", type=float, required=True)
    qp.add_argument("--tau", type=float, required=True)

    us = command("usd", cmd_usd, help="unambiguous-discrimination report")
    us.add_argument("--n", type=int, required=True)
    us.add_argument("--r", type=float, required=True)
    us.add_argument("--tau", type=float, required=True)
    us.add_argument("--sweep", default=None, help="CSV sweep over r to this path (- for stdout)")
    us.add_argument("--sweep-min", type=float, default=0.001)
    us.add_argument("--sweep-max", type=float, default=0.5)
    us.add_argument("--sweep-steps", type=int, default=50)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
