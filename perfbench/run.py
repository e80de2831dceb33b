"""Benchmark of the lossjm verdict functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs a closed loop: a single caller calls the public lossjm
functions back to back, times each call from outside and checks its output.

``--trace 0`` runs whole passes over the workload for as long as the next pass
is predicted (by the last one) to end within ``--seconds``, and always at
least one; it reports the end-to-end metrics.  ``--trace 1`` builds the inputs
and runs one pass untraced, then does both again with every public layer
function wrapped by ``spans.Tracer``; it reports the per-layer metrics and the
traced run's overhead against the untraced one.  An unreported pass before
both lets each of them run warm.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, with
the environment manifest, every operation and the percentile of the tail, is
written to perfbench/results/.  README.md explains workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# One BLAS thread on one CPU.  One thread is steadier than two on a shared
# 2-core machine and never more than nproc.  The CPU is fixed because the
# scheduler otherwise moves the process between CPUs that, on a shared host,
# run at different speeds (35% apart on the reference machine).  Applied
# before numpy loads; the inherited thread variables are kept for the manifest.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREAD_ENV = {v: os.environ.get(v) for v in THREAD_VARS}

# set-up samples per run, after one unreported warm-up that compiles the
# bytecode of a fresh checkout.  Half are taken before the passes and half
# after: the host's speed changes in phases of seconds, and samples from two
# points of the run half a minute apart pool more of them than one burst does.
SETUP_REPEATS = 22
# traced set-up and pass against the same time taken from outside the spans:
# the difference is the root span's own entry and exit
TRACE_SUM_TOL_S = 1e-3
TAIL_BEYOND = 10

# per-layer metrics: call counts, self times, and counts computed from the
# arguments and results of the calls (see spans._HOOKS)
CALLS = (
    "compat.robustness",
    "compat.jm_feasibility",
    "compat.certify",
    "parent.lon_parent",
    "fock.coherent_ket",
    "loss.apply_dual",
    "qubit.pair_test",
)
SELF_TIMES = (
    "compat.robustness",
    "compat.jm_feasibility",
    "compat.certify",
    "compat.depolarize",
    "compat.decide_table_row",
    "parent.lon_parent",
    "parent.verify_marginal_identity",
    "fock.complete_unitary",
    "loss.apply_dual",
    "measurements.symmetric_family",
    "measurements.project_set",
    "measurements.random_measurement_set",
    "qubit.pair_test",
    "usd.usd_report",
)
COMPUTED = (
    "compat.jm_feasibility.iterations",
    "compat.jm_feasibility.iterations_unproven",
    "compat.eigh_blocks",
    "parent.lon_parent.contraction_elems",
)


def pin_process() -> None:
    """One BLAS thread, and this process and its children on the last usable CPU."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    os.environ.update({v: BLAS_THREADS for v in THREAD_VARS})
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def manifest() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def _setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """One set-up, lossjm import plus input generation, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload, str(seed), str(int(tiny))],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


def _run_pass(ops, index: int, tracer=None) -> list[dict]:
    records = []
    for op in ops:
        # start every operation from an empty collector, so the garbage
        # collections inside it depend on its own allocations only
        gc.collect()
        with tracer.span("harness.op") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is recorded and counted
                seconds = time.perf_counter() - start
                rec = {"error": f"{type(exc).__name__}: {exc}", "known_failure": op.known_failure(exc)}
            else:
                seconds = time.perf_counter() - start
                rec = op.check(out)
        records.append({"pass": index, "op": op.label, "seconds": seconds, **rec})
    return records


def _timed_metrics(workload, seed, seconds, tiny) -> tuple[dict, list, dict]:
    import workloads

    _setup_seconds(workload, seed, tiny)
    setup = [_setup_seconds(workload, seed, tiny) for _ in range(SETUP_REPEATS // 2)]
    lj = workloads.import_lossjm(ROOT)
    ops = workloads.WORKLOADS[workload](lj, seed, tiny)
    passes, records = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records += _run_pass(ops, len(passes))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start + passes[-1] > seconds:
            break
    setup += [_setup_seconds(workload, seed, tiny) for _ in range(SETUP_REPEATS - len(setup))]
    # every attempted operation is a sample, failed ones included: the caller
    # waited for them too
    times = sorted(r["seconds"] for r in records)
    # with ten samples or fewer no percentile has ten beyond it: take the worst
    k = len(times) - 1 - TAIL_BEYOND if len(times) > TAIL_BEYOND else len(times) - 1
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # The operation percentiles go to the record and the printed summary, not
    # to the result line that BENCHMARK.json gates: the millisecond operations
    # of table-certified move with the host's load by up to 60% from one
    # minute to the next, beyond any bound the benchmark may set (README.md).
    extra = {
        "passes_s": passes,
        "setup_samples_s": setup,
        "op_times": {
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": times[k], "unit": "s"},
            "tail_percentile": 100.0 * (k + 1) / len(times),
            "samples": len(times),
            "samples_beyond_tail": len(times) - 1 - k,
        },
    }
    return metrics, records, extra


def _layer_metrics(tracer, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    from spans import LAYERS

    self_s = tracer.self_times()
    counts = tracer.counters
    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COMPUTED:
        m[name] = (counts[name], "count-computed")
    probes = counts["compat.jm_feasibility.calls"]
    proven = counts["compat.jm_feasibility.proven"]
    m["compat.jm_feasibility.proven_ratio"] = (proven / probes if probes else 0.0, "ratio")
    m["parent.lon_parent.blocks"] = (counts["parent.lon_parent.blocks"], "count")
    by_layer = defaultdict(float)
    for name, seconds in self_s.items():
        by_layer[name.split(".")[0]] += seconds
    for layer in LAYERS + ("harness",):
        m[f"{layer}.self_s"] = (by_layer[layer], "s")
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    extra = {
        "self_s_by_function": dict(sorted(self_s.items())),
        "counters": dict(sorted(counts.items())),
        "spans": len(tracer.spans),
        "self_s_sum": sum(by_layer.values()),
        "self_s_min": min(self_s.values()),
    }
    return m, extra


def _traced_metrics(workload, seed, tiny) -> tuple[dict, list, dict]:
    import spans
    import workloads

    lj = workloads.import_lossjm(ROOT)
    build = workloads.WORKLOADS[workload]
    # an unreported first pass, so that the untraced and the traced pass both
    # run warm: a cold first pass ran up to 20% slower than the next one
    _run_pass(build(lj, seed, tiny), -1)
    t0 = time.perf_counter()
    records = _run_pass(build(lj, seed, tiny), 0)
    untraced_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    with tracer.installed():
        # timed apart from the spans, so that the self times can be checked
        # against a wall time they did not produce
        t0 = time.perf_counter()
        with tracer.span("harness.run"):
            with tracer.span("harness.setup"):
                ops = build(lj, seed, tiny)
            records += _run_pass(ops, 1, tracer)
        traced_s = time.perf_counter() - t0
    metrics, extra = _layer_metrics(tracer, traced_s, untraced_s)
    return metrics, records, extra


def run(workload: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """Run one benchmark invocation; returns the full record.

    ``record["line"]`` is the JSON object printed last.  ``tiny`` selects the
    self-test's reduced inputs.
    """
    if traced:
        metrics, records, extra = _traced_metrics(workload, seed, tiny)
        # the layer self times must add up to the traced wall time taken
        # from outside, and none may be negative: a gap or an excess means
        # work outside the root span or spans that overlap
        gap = extra["self_s_sum"] - metrics["trace.wall_s"][0]
        sums_ok = abs(gap) <= TRACE_SUM_TOL_S and extra["self_s_min"] >= -1e-9
    else:
        metrics, records, extra = _timed_metrics(workload, seed, seconds, tiny)
        sums_ok = True
    failed = sum("error" in r for r in records)
    # every failure but the recorded one (the n=10 grid refusal) is wrong
    wrong = sum("error" in r and not r.get("known_failure") for r in records)
    line = {
        "correct": wrong == 0 and sums_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "manifest": manifest(),
        "failed_share": failed / len(records),
        "ops": records,
        **extra,
        "line": line,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lossjm" / "__init__.py").is_file():
        print(f"perfbench: no lossjm sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    pin_process()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for r in record["ops"]:
        status = f"FAILED {r['error']}" if "error" in r else "ok"
        print(f"pass {r['pass']}  {r['seconds']:10.4f} s  {r['op']}: {status}")
    if "op_times" in record:
        ops = record["op_times"]
        print(
            f"op_s_p50: {ops['op_s_p50']['value']:.6g} s; op_s_tail: {ops['op_s_tail']['value']:.6g} s "
            f"at percentile {ops['tail_percentile']:.1f} of {ops['samples']} samples "
            f"({ops['samples_beyond_tail']} beyond)"
        )
    print(f"failed_share: {record['line']['failed']}/{record['line']['attempted']} = {record['failed_share']:.4f}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
