"""Solver-phase timings of ``compat.robustness``, written to BENCH_baseline.json.

    python3 scripts/bench_solve.py

Each workload runs in a fresh Python process, at one BLAS thread and pinned
to one CPU (``pin``), on the set whose records scripts/record_digests.py
checks bit for bit: ``robustness`` is called once to warm up and then
REPEATS times.  ``wall_s`` is the median of the calls' ``seconds`` and
``phases_s`` the median of each of their ``phases``, as ``robustness``
records them:

* ``build``: ``_RobustnessSdp(mset)`` (the group, the coordinates, the
  image table of the orbits, and the per-representative arrays ``reduce``
  builds from it, the product parent among them);
* ``solve``: the Newton iteration, and the six laps that partition it, each
  summed over the steps: ``solve.residual`` (the residuals and the stop
  test), ``solve.factor`` (the Cholesky factor, its inverse and Z^-1),
  ``solve.schur`` (the Schur matrix), ``solve.direction`` (both directions
  with their linear solves, and mu), ``solve.step_length`` (the two
  ``_max_steps`` calls) and ``solve.update`` (the step).  Medians do not
  add, so the part medians sum to about the median ``solve``, not to at
  most it;
* ``repair``: ``repair_witness``;
* ``parent``: projecting the primal, mixing it with the product parent short
  of COMPATIBLE, and expanding it to all tuples as its average over each
  orbit;
* ``certify``: ``certify``, with ``depolarize``.

The record also holds the peak resident set of the process, the Newton
steps, verdict and method, and the size of the solve: outcome tuples, orbit
representatives (blocks) and dual coordinates.  The environment comes first:
Python, numpy, BLAS, nproc, the thread variables and the git commit
(``git_dirty`` when the tracked files differ from it).  ``tier1`` is one run
of the tier-1 suite (ROADMAP.md) at one BLAS thread: its seconds and its
passed and failed counts.

``count20-d3`` (count 20, 2^20 outcome tuples) raises compat.MAX_TUPLES to
2^20 while it is measured.  It takes about 17 s a call and 560 MiB at peak, so
it adds about 2 minutes to a run.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "BENCH_baseline.json"
REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREAD_ENV = {v: os.environ.get(v) for v in THREAD_VARS}

# name -> its FamilyParams, a recipe of record_digests and its arguments (n2 and n3
# are the benchmark's table-incompatible rows); "broken": the set is the recipe's
# ``broken`` copy; "max_tuples": compat.MAX_TUPLES while ``measure`` runs it
WORKLOADS = {
    **{f"table-d3-n{n}": {"params": ("table_row", 3, n)} for n in range(2, 11)},
    "count13-d3": {"params": ("count_row", 13, 3)},
    "count16-d3": {"params": ("count_row", 16, 3)},
    "count16-d2": {"params": ("count_row", 16, 2)},
    "broken-table-d3-n9": {"params": ("table_row", 3, 9), "broken": True},
    "compatible-count4-d3": {"params": ("compatible_row",)},
    "count20-d3": {"params": ("count_row", 20, 3), "max_tuples": 1 << 20},
}


def measurement_set(name: str):
    """The set of workload ``name``, with its FamilyParams."""
    import record_digests as rd

    spec = WORKLOADS[name]
    params = getattr(rd, spec["params"][0])(*spec["params"][1:])
    return (rd.broken if spec.get("broken") else rd.meas.symmetric_family)(params), params


def pin() -> int:
    """Pin this process to the last CPU it may run on, as perfbench/run.py does; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(name: str) -> dict:
    """One warm-up and REPEATS ``robustness`` calls, in this process."""
    from lossjm import compat

    default = compat.MAX_TUPLES
    compat.MAX_TUPLES = WORKLOADS[name].get("max_tuples", default)
    mset, params = measurement_set(name)
    sdp = compat._RobustnessSdp(mset)
    size = {"tuples": sdp.T, "blocks": len(sdp.rep), "coordinates": len(sdp.dv)}
    del sdp
    runs = []
    for _ in range(REPEATS + 1):
        res = compat.robustness(mset)
        runs.append({"wall": res.seconds, "phases": res.phases, "newton_steps": res.iterations,
                     "verdict": res.verdict, "method": res.method})
        del res  # so that the peak resident set counts one call's result
    runs = runs[1:]  # the first call warms up
    compat.MAX_TUPLES = default
    return {
        "params": {"count": params.count, "r": params.r, "tau": params.tau, "d": params.d},
        "repeats": REPEATS,
        "wall_s": statistics.median(run["wall"] for run in runs),
        "phases_s": {phase: statistics.median(run["phases"][phase] for run in runs)
                     for phase in runs[-1]["phases"]},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{k: runs[-1][k] for k in ("newton_steps", "verdict", "method")},
        **size,
    }


CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_solve; bench_solve.pin(); "
    "print(json.dumps(bench_solve.measure(sys.argv[2])))"
)


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def manifest() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no", "--", ".", f":!{OUT.name}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpu_pinned": max(os.sched_getaffinity(0)),  # each child's, by ``pin``
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status) if status is not None else None,
        "platform": platform.platform(),
    }


def tier1(env: dict) -> dict:
    """One run of the tier-1 suite: its seconds and its passed and failed counts."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*argv, "-p", "no:cacheprovider"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - t0
    # pytest's count line, as "1 failed, 944 passed in 17.90s"
    lines = [ln for ln in proc.stdout.splitlines() if re.match(r"=* ?(\d+ \w+, )*\d+ \w+ in ", ln)]
    if not lines:
        raise RuntimeError(f"no pytest count line in:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    counts = dict.fromkeys(("passed", "failed"), 0)
    counts.update((k, int(n)) for n, k in re.findall(r"(\d+) (passed|failed)", lines[-1]))
    return {"seconds": seconds, **counts}


def main() -> int:
    # one BLAS thread, set before numpy loads here and inherited by each child
    os.environ.update({v: "1" for v in THREAD_VARS})
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(HERE), name],
            env=env, capture_output=True, text=True, check=True,
        )
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        rec = results[name]
        print(
            f"{name}: {rec['wall_s']:.4f} s, {rec['newton_steps']} steps, "
            f"{rec['verdict']}, {rec['peak_rss_mib']:.0f} MiB",
            file=sys.stderr,
        )
    suite = tier1(env)
    print(f"tier-1: {suite['passed']} passed, {suite['failed']} failed, "
          f"{suite['seconds']:.1f} s", file=sys.stderr)
    record = {"manifest": manifest(), "workloads": results, "tier1": suite}
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
