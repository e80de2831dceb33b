"""Solver-phase timings of ``compat.robustness``, written to BENCH_baseline.json.

    python3 scripts/bench_solve.py

Each workload runs in a fresh Python process with one BLAS thread: its
measurement set is built, ``robustness`` is called once to warm up and then
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

# name -> (kind, d, n).  "table" is the d = 3 table row n: count n + 1 at
# tau = 1/n + eps (rows 2 and 3 are the benchmark's table-incompatible rows);
# "count" is count n at r = 0.005, tau = 1/(n - 1) + 5e-5; "broken" is the
# table row with one entry moved by one rounding, which the solve treats with
# the trivial group, one block per tuple; "compatible" is count n at r = 4.5,
# tau = 0.5, a near-trivial COMPATIBLE set (elements within 6e-8 of multiples
# of I) whose solve drives the noise weight to 0.
WORKLOADS = {
    **{f"table-d3-n{n}": ("table", 3, n) for n in range(2, 11)},
    "count13-d3": ("count", 3, 13),
    "count16-d3": ("count", 3, 16),
    "count16-d2": ("count", 2, 16),
    "broken-table-d3-n9": ("broken", 3, 9),
    "compatible-count4-d3": ("compatible", 3, 4),
}


def measurement_set(name: str):
    """The set of workload ``name``, with its FamilyParams."""
    import numpy as np

    from lossjm import measurements as meas
    from lossjm.cli import TABLE_POINTS

    kind, d, n = WORKLOADS[name]
    if kind == "count":
        params = meas.FamilyParams(n, 0.005, 1.0 / (n - 1) + 5e-5, d)
    elif kind == "compatible":
        params = meas.FamilyParams(n, 4.5, 0.5, d)
    else:
        r, eps = TABLE_POINTS[n]
        params = meas.FamilyParams(n + 1, r, 1.0 / n + eps, d)
    mset = meas.symmetric_family(params)
    if kind == "broken":
        povms = list(mset)
        povms[1] = E = povms[1].copy()
        E[0, 0, 0] = np.nextafter(E[0, 0, 0].real, 2.0)
        mset = meas.MeasurementSet(tuple(povms))
    return mset, params


def measure(name: str) -> dict:
    """One warm-up and REPEATS ``robustness`` calls, in this process."""
    from lossjm import compat

    mset, params = measurement_set(name)
    runs = []
    for _ in range(REPEATS + 1):
        res = compat.robustness(mset)
        runs.append({"wall": res.seconds, **res.phases})
    runs = runs[1:]  # the first call warms up
    sdp = compat._RobustnessSdp(mset)
    return {
        "params": {"count": params.count, "r": params.r, "tau": params.tau, "d": params.d},
        "repeats": REPEATS,
        "wall_s": statistics.median(run["wall"] for run in runs),
        "phases_s": {phase: statistics.median(run[phase] for run in runs) for phase in res.phases},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "newton_steps": res.iterations,
        "verdict": res.verdict,
        "method": res.method,
        "tuples": sdp.T,
        "blocks": len(sdp.rep),
        "coordinates": len(sdp.dv),
    }


CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_solve; "
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
