"""In-memory span tracing of the public lossjm functions.

``Tracer.installed`` replaces every public function of the seven layer
modules, under each name a module uses to look it up (``compat.certify`` as
bound in ``compat``, ``loss.apply_dual`` as bound in ``measurements`` and in
``parent``, ...), with a wrapper that records a span.  No source file is
edited and the originals are restored on exit.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the root spans' durations.  Counters are kept beside the spans: one call count
per function plus the computed work counts of ``_HOOKS``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fock", "loss", "measurements", "compat", "parent", "qubit", "usd")

# jm_feasibility statuses of a probe that ends without a certificate
UNPROVEN = ("stalled", "maxiter")


def _tuple_count(mset) -> int:
    return math.prod(p.outcomes for p in mset)


def _count_jm_feasibility(counters: Counter, call: inspect.BoundArguments, out) -> None:
    counters["compat.jm_feasibility.iterations"] += out.iterations
    if out.status in UNPROVEN:
        counters["compat.jm_feasibility.iterations_unproven"] += out.iterations
    if out.feasible:
        counters["compat.jm_feasibility.proven"] += 1
    # one blockwise eigendecomposition of all T blocks per iteration
    counters["compat.eigh_blocks"] += out.iterations * _tuple_count(call.arguments["mset"])


def _count_lon_parent(counters: Counter, call: inspect.BoundArguments, out) -> None:
    mset, taus = call.arguments["mset"], call.arguments["taus"]
    n, d = len(mset), mset.dim
    # a transmissivity deficit adds one unmeasured arm to the network
    arms = n + (1.0 - sum(float(t) for t in taus) > 1e-12)
    T = out.blocks.shape[0]
    counters["parent.lon_parent.blocks"] += T
    # per tuple: n single-arm tensordots on a d**(arms+1) tensor, each
    # contracting an axis of length d, plus the d x d**arms x d compression
    counters["parent.lon_parent.contraction_elems"] += T * (n + 1) * d ** (arms + 2)


_HOOKS = {
    "compat.jm_feasibility": _count_jm_feasibility,
    "parent.lon_parent": _count_lon_parent,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[calls] += 1
            idx = self._open(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if hook:
                hook(self.counters, sig.bind(*args, **kwargs), out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public layer functions in every loaded lossjm module."""
        wrapped = {}
        for layer in LAYERS:
            home = sys.modules[f"lossjm.{layer}"]
            for attr, fn in vars(home).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == home.__name__
                ):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        patched = []
        modules = [m for k, m in sys.modules.items() if k == "lossjm" or k.startswith("lossjm.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        try:
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)
