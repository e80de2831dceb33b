"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

For every workload it runs the harness untraced and twice traced on reduced
inputs, and checks that:

* the result line has exactly the keys correct, attempted, failed and
  metrics, every metric BENCHMARK.json names appears with its unit, and
  op_s_p50 and op_s_tail are in the record;
* every output check passes, the refused n=10 row of table-certified being
  the only failed operation;
* the layer self times add up to the traced wall time taken from outside
  the spans;
* the call counts and computed counts repeat exactly across the two traced
  runs.

It also checks that a certificate refused with an exception makes the run
incorrect, and it runs the harness in a directory holding only BENCHMARK.json
and perfbench/, where it must fail without printing a result.  Takes about
20 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

LINE_KEYS = {"correct", "attempted", "failed", "metrics"}
KNOWN_FAILURE = "row n=10 tau=1/(n+1)"  # lon_parent refuses the 3^11 grid


def _check_line(label: str, record: dict, units: dict) -> list[str]:
    line = record["line"]
    problems = []
    if set(line) != LINE_KEYS:
        problems.append(f"{label}: result keys {sorted(line)}")
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != units:
        missing = sorted(set(units.items()) - set(got.items()))
        extra = sorted(set(got.items()) - set(units.items()))
        problems.append(f"{label}: metrics missing {missing}, unexpected {extra}")
    if not line["correct"]:
        problems.append(f"{label}: correct is false")
    failed = [r["op"] for r in record["ops"] if "error" in r]
    if any(op != KNOWN_FAILURE for op in failed):
        problems.append(f"{label}: failed operations {failed}")
    if label.startswith("table-certified") and KNOWN_FAILURE not in failed:
        problems.append(f"{label}: the n=10 row was not counted as failed")
    if line["failed"] != len(failed) or line["attempted"] != len(record["ops"]):
        problems.append(f"{label}: failed/attempted do not match the records")
    return problems


def _check_traced(label: str, first: dict, second: dict, units: dict) -> list[str]:
    problems = []
    m1, m2 = first["line"]["metrics"], second["line"]["metrics"]
    wall = m1["trace.wall_s"]["value"]
    if abs(first["self_s_sum"] - wall) > run.TRACE_SUM_TOL_S:
        problems.append(f"{label}: self times sum to {first['self_s_sum']} of {wall} s")
    for name, unit in units.items():
        if unit.startswith("count") and name in m1 and m1[name] != m2.get(name):
            problems.append(f"{label}: {name} differs between traced runs ({m1[name]} vs {m2.get(name)})")
    return problems


def _check_bare_directory(spec_path: Path) -> list[str]:
    # the bare directory lives under the gitignored results/, which the copy
    # leaves out, so the self-test writes nothing outside the checkout
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(spec_path, tmp)
        skip = shutil.ignore_patterns("results", "__pycache__")
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name, ignore=skip)
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "table-incompatible",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["bare directory: the harness did not fail without the lossjm sources"]
    return []


def _check_unexpected_exception() -> list[str]:
    """A refused certificate raises RuntimeError in decide_table_row; it is a
    failure of the run, unlike the n=10 grid refusal."""
    import workloads

    compat = workloads.import_lossjm(run.ROOT).compat
    certify = compat.certify

    def refuse(*args, **kwargs):
        raise RuntimeError("parent certificate residuals exceed tolerance")

    compat.certify = refuse
    try:
        record = run.run("table-certified", seed=1, seconds=0, traced=False, tiny=True)
    finally:
        compat.certify = certify
    if record["line"]["correct"]:
        return ["a refused certificate left correct true"]
    return []


def main() -> int:
    run.pin_process()
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = _check_bare_directory(spec_path) + _check_unexpected_exception()
    import workloads

    for workload in workloads.WORKLOADS:
        timed = run.run(workload, seed=1, seconds=0, traced=False, tiny=True)
        traced = [run.run(workload, seed=1, seconds=0, traced=True, tiny=True) for _ in range(2)]
        found = _check_line(f"{workload} timed", timed, e2e_units)
        if {timed["op_times"][k]["unit"] for k in ("op_s_p50", "op_s_tail")} != {"s"}:
            found.append(f"{workload}: op_s_p50 or op_s_tail missing from the record")
        found += _check_line(f"{workload} traced", traced[0], layer_units)
        found += _check_traced(workload, traced[0], traced[1], layer_units)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
