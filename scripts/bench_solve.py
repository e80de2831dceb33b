"""Solver-phase timings of ``compat.robustness``, written to BENCH_baseline.json.

    python3 scripts/bench_solve.py

Each workload runs in a fresh Python process with one BLAS thread: its
measurement set is built, ``robustness`` is called once to warm up and then
REPEATS times, each call timed from outside.  The phases are timed by
wrapping, in that process only, the methods of ``compat._RobustnessSdp``:

* ``build``: ``_RobustnessSdp(mset)`` (the group, its orbits, the coordinates);
* ``solve``: the Newton iteration;
* ``repair``: ``repair_witness``;
* ``rest``: the remainder of ``robustness`` (projecting the primal, expanding
  it to all tuples, ``certify``).

Each time is the median over the repeats.  The record also holds the peak
resident set of the process, the Newton steps, verdict and method, and the
size of the solve: outcome tuples, orbit representatives (blocks) and dual
coordinates.  The environment comes first: Python, numpy, BLAS, nproc, the
thread variables and the git commit (``git_dirty`` when the tracked files
differ from it).
"""

from __future__ import annotations

import json
import os
import platform
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
# the trivial group, one block per tuple.
WORKLOADS = {
    **{f"table-d3-n{n}": ("table", 3, n) for n in range(2, 11)},
    "count13-d3": ("count", 3, 13),
    "count16-d3": ("count", 3, 16),
    "count16-d2": ("count", 2, 16),
    "broken-table-d3-n9": ("broken", 3, 9),
}


def measurement_set(name: str):
    """The set of workload ``name``, with its FamilyParams."""
    import numpy as np

    from lossjm import measurements as meas
    from lossjm.cli import TABLE_POINTS

    kind, d, n = WORKLOADS[name]
    if kind == "count":
        params = meas.FamilyParams(n, 0.005, 1.0 / (n - 1) + 5e-5, d)
    else:
        r, eps = TABLE_POINTS[n]
        params = meas.FamilyParams(n + 1, r, 1.0 / n + eps, d)
    mset = meas.symmetric_family(params)
    if kind == "broken":
        povms = list(mset)
        E = povms[1].elements.copy()
        E[0, 0, 0] = np.nextafter(E[0, 0, 0].real, 2.0)
        povms[1] = meas.Povm(E)
        mset = meas.MeasurementSet(tuple(povms))
    return mset, params


def measure(name: str) -> dict:
    """One warm-up and REPEATS timed ``robustness`` calls, in this process."""
    from lossjm import compat

    mset, params = measurement_set(name)
    sdp_class = compat._RobustnessSdp
    methods = {"build": "__init__", "solve": "solve", "repair": "repair_witness"}
    originals = {phase: getattr(sdp_class, attr) for phase, attr in methods.items()}
    call = {}

    def timed(phase, func):
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(self, *args, **kwargs)
            finally:
                call[phase] = call.get(phase, 0.0) + time.perf_counter() - t0

        return wrapper

    samples = []
    try:
        for phase, attr in methods.items():
            setattr(sdp_class, attr, timed(phase, originals[phase]))
        for _ in range(REPEATS + 1):
            call.clear()
            t0 = time.perf_counter()
            res = compat.robustness(mset)
            wall = time.perf_counter() - t0
            seconds = {phase: call.get(phase, 0.0) for phase in methods}
            seconds["rest"] = wall - sum(seconds.values())
            samples.append({"wall": wall, **seconds})
    finally:
        for phase, attr in methods.items():
            setattr(sdp_class, attr, originals[phase])
    timed_runs = samples[1:]  # the first call warms up
    sdp = sdp_class(mset)
    return {
        "params": {"count": params.count, "r": params.r, "tau": params.tau, "d": params.d},
        "repeats": REPEATS,
        "wall_s": statistics.median(s["wall"] for s in timed_runs),
        "phases_s": {
            phase: statistics.median(s[phase] for s in timed_runs)
            for phase in (*methods, "rest")
        },
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
    OUT.write_text(json.dumps({"manifest": manifest(), "workloads": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
