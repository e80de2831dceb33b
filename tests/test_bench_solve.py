"""The solver-phase harness scripts/bench_solve.py, on its smallest workload."""

import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import weakref
from pathlib import Path

import record_digests

import lossjm
from lossjm import compat, measurements as meas

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


def test_one_result_alive_per_call(monkeypatch):
    # peak_rss_mib counts one call: when a call starts, no Verdict of an earlier
    # call and no _RobustnessSdp (measure's own, for the sizes, or a call's) is alive
    bench = _load()
    robustness, build, made, alive = compat.robustness, compat._RobustnessSdp, [], []

    def tracked(mset):
        made.append(weakref.ref(sdp := build(mset)))
        return sdp

    def spy(mset):
        alive.append(sum(ref() is not None for ref in made))
        made.append(weakref.ref(res := robustness(mset)))
        return res

    monkeypatch.setattr(compat, "_RobustnessSdp", tracked)
    monkeypatch.setattr(compat, "robustness", spy)
    rec = bench.measure("table-d3-n2")
    assert alive == [0] * (bench.REPEATS + 1) and len(made) == 2 * bench.REPEATS + 3
    assert (rec["tuples"], rec["blocks"], rec["coordinates"]) == (8, 4, 9)


def test_workloads_cover_the_solver_rows(monkeypatch):
    bench = _load()
    assert [f"table-d3-n{n}" for n in range(2, 11)] == list(bench.WORKLOADS)[:9]
    others = {
        "count13-d3", "count16-d3", "count16-d2", "broken-table-d3-n9", "compatible-count4-d3",
        "count20-d3",
    }
    assert others <= bench.WORKLOADS.keys()
    mset, _ = bench.measurement_set("broken-table-d3-n9")
    assert len(compat._RobustnessSdp(mset).rep) == 2**10  # the trivial group
    # count 20 raises the tuple cap while it is measured, and no other workload does;
    # the solves here run on table-d3-n2's small set
    assert [n for n, spec in bench.WORKLOADS.items() if "max_tuples" in spec] == ["count20-d3"]
    small, _ = bench.measurement_set("table-d3-n2")
    _, params = bench.measurement_set("count20-d3")
    assert dataclasses.asdict(params) == {"count": 20, "r": 0.005, "tau": 1 / 19 + 5e-5, "d": 3}
    default, robustness, caps = compat.MAX_TUPLES, compat.robustness, []
    monkeypatch.setattr(bench, "measurement_set", lambda name: (small, params))
    monkeypatch.setattr(
        compat, "robustness", lambda mset: caps.append(compat.MAX_TUPLES) or robustness(mset))
    assert bench.measure("count20-d3")["params"]["count"] == 20
    assert caps == [1 << 20] * (bench.REPEATS + 1) and compat.MAX_TUPLES == default


def test_workloads_build_the_digest_records_sets(monkeypatch):
    # each set as record_digests builds it for its record, without a solve
    bench = _load()
    monkeypatch.setattr(compat, "robustness", lambda mset, max_iter: mset)
    monkeypatch.setattr(compat, "decide_table_row", meas.symmetric_family)
    sets = {
        rec: call() for group in ("table", "broken", "counts", "compatible")
        for rec, call in record_digests.GROUPS[group]()
    }
    records = {
        "count13-d3": "count13-d3", "count16-d3": "count16-d3",
        "broken-table-d3-n9": "broken d=3 n=9", "compatible-count4-d3": "compatible count4-d3",
    }
    for name in set(bench.WORKLOADS) - {"count20-d3", "count16-d2"}:
        mset, params = bench.measurement_set(name)
        rec = records.get(name, f"table d=3 n={params.count - 1} tau={params.tau!r}")
        assert mset.rows.shape == sets[rec].rows.shape, name
        assert mset.rows.tobytes() == sets[rec].rows.tobytes(), name
    # record_digests has no d=2 count: count16-d2 is its count-16 row at d=2
    _, params = bench.measurement_set("count16-d2")
    assert dataclasses.replace(params, d=3) == bench.measurement_set("count16-d3")[1]


def test_child_pins_one_cpu(monkeypatch):
    bench = _load()
    pinned = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append((pid, cpus)))
    assert bench.pin() == 5 and pinned == [(0, {5})]
    assert bench.manifest()["cpu_pinned"] == 5
    # the child pins itself before measure loads numpy
    assert bench.CHILD.index("bench_solve.pin()") < bench.CHILD.index("bench_solve.measure(")


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
