"""The solver-phase harness scripts/bench_solve.py, on its smallest workload."""

import importlib.util
import json
from pathlib import Path

from lossjm import compat

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_solve.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_solve", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_workload_in_process():
    bench = _load()
    names = ("__init__", "solve", "repair_witness")
    methods = [getattr(compat._RobustnessSdp, a) for a in names]
    rec = bench.measure("table-d3-n2")
    # the phase wrappers are taken off again
    assert [getattr(compat._RobustnessSdp, a) for a in names] == methods
    assert (rec["verdict"], rec["method"]) == ("INCOMPATIBLE", "sdp-witness")
    assert rec["newton_steps"] == 9
    assert (rec["tuples"], rec["blocks"], rec["coordinates"]) == (8, 4, 9)
    assert rec["params"] == {"count": 3, "r": 0.005, "tau": 0.5 + 5e-5, "d": 3}
    phases = rec["phases_s"]
    assert phases.keys() == {"build", "solve", "repair", "rest"}
    assert all(t > 0 for t in phases.values()) and rec["peak_rss_mib"] > 0
    json.dumps(rec, allow_nan=False)


def test_workloads_cover_the_solver_rows():
    bench = _load()
    assert [f"table-d3-n{n}" for n in range(2, 11)] == list(bench.WORKLOADS)[:9]
    others = {"count13-d3", "count16-d3", "count16-d2", "broken-table-d3-n9"}
    assert others <= bench.WORKLOADS.keys()
    mset, _ = bench.measurement_set("broken-table-d3-n9")
    assert len(compat._RobustnessSdp(mset).rep) == 2**10  # the trivial group
