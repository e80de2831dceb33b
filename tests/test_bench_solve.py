"""The solver-phase harness scripts/bench_solve.py, on its smallest workload."""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
from pathlib import Path

import lossjm
from lossjm import compat

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_solve.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_solve", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    """The identity of every attribute of the lossjm modules and their classes."""
    owners = [lossjm] + [
        importlib.import_module(f"lossjm.{m.name}") for m in pkgutil.iter_modules(lossjm.__path__)
    ]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_smallest_workload_in_process(monkeypatch):
    bench = _load()
    robustness, seen = compat.robustness, []

    def spy(*args, **kwargs):  # the phases come from the record, not from wrappers
        seen.append(_attributes() == before)
        return robustness(*args, **kwargs)

    monkeypatch.setattr(compat, "robustness", spy)
    before = _attributes()
    rec = bench.measure("table-d3-n2")
    assert seen == [True] * (bench.REPEATS + 1) and _attributes() == before
    assert (rec["verdict"], rec["method"]) == ("INCOMPATIBLE", "sdp-witness")
    assert rec["newton_steps"] == 9
    assert (rec["tuples"], rec["blocks"], rec["coordinates"]) == (8, 4, 9)
    assert rec["params"] == {"count": 3, "r": 0.005, "tau": 0.5 + 5e-5, "d": 3}
    phases = rec["phases_s"]
    parts = {
        "solve.residual", "solve.factor", "solve.schur", "solve.direction", "solve.step_length",
        "solve.update",
    }
    assert phases.keys() == {"build", "solve", "repair", "parent", "certify"} | parts
    assert all(t > 0 for t in phases.values()) and rec["peak_rss_mib"] > 0
    # medians of a partition need not sum below the median of the whole, only near it
    assert all(phases[k] <= phases["solve"] for k in parts)
    assert abs(sum(phases[k] for k in parts) - phases["solve"]) <= 0.1 * phases["solve"]
    assert phases["solve"] <= rec["wall_s"]
    json.dumps(rec, allow_nan=False)


def test_workloads_cover_the_solver_rows():
    bench = _load()
    assert [f"table-d3-n{n}" for n in range(2, 11)] == list(bench.WORKLOADS)[:9]
    others = {
        "count13-d3", "count16-d3", "count16-d2", "broken-table-d3-n9", "compatible-count4-d3"
    }
    assert others <= bench.WORKLOADS.keys()
    mset, _ = bench.measurement_set("broken-table-d3-n9")
    assert len(compat._RobustnessSdp(mset).rep) == 2**10  # the trivial group


def test_tier1_reads_the_count_line(monkeypatch):
    # the suite itself is not started here: subprocess.run hands back its output
    bench = _load()
    out = "...F.\n1 failed, 944 passed in 17.90s\n== acceptance ==\n[PASS] 3 passed in 0s\n"
    runs = []

    def run(argv, **kwargs):
        runs.append(argv)
        return subprocess.CompletedProcess(argv, 1, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    rec = bench.tier1({})
    assert (rec["passed"], rec["failed"]) == (944, 1) and rec["seconds"] >= 0
    assert runs[0][1:] == [
        "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"
    ]
