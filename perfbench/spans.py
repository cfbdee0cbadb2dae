"""Spans recorded from outside the program, around calls into each layer.

`install` replaces every public function of each layer module by a
wrapper that records a span, wherever a tracebench module holds a
reference to it, and returns a function that puts the originals back.
Calls a module makes to its own public functions therefore show up as
nested spans of the same layer.  `hyperbolic` is not wrapped: it is only
called vectorised from `fuchsian` and `spectral.mesh`, so its time
counts there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# module -> span name prefix; the prefix starts with the layer's name
LAYER_MODULES = {
    "tracebench.fuchsian": "fuchsian",
    "tracebench.reps": "reps",
    "tracebench.analysis": "analysis",
    "tracebench.geomside": "geomside",
    "tracebench.spectral.mesh": "spectral.mesh",
    "tracebench.spectral.assemble": "spectral.assemble",
    "tracebench.spectral.solve": "spectral.solve",
    "tracebench.spectral.side": "spectral.side",
    "tracebench.workbench.config": "workbench.config",
    "tracebench.workbench.io": "workbench.io",
    "tracebench.workbench.cli": "workbench.cli",
    "tracebench.workbench.verify": "workbench.verify",
}


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a parent's reading and a child's
    # can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _count_solve(counts, args, out):
    _add(counts, "spectral.solve.eigenvalues", out.count)
    _add(counts, "spectral.solve.clusters", len(out.eigenvalues))
    worst = max(res for _, _, res in out.eigenvalues)
    counts["spectral.solve.max_residual"] = max(
        counts.get("spectral.solve.max_residual", 0.0), worst
    )


def _count_assemble(counts, args, out):
    _add(counts, "spectral.assemble.free_dofs", out.N_free)
    _add(counts, "spectral.assemble.nnz", out.K.nnz + out.M.nnz)


# span name -> counter update, run after the call returns
COUNTERS = {
    "fuchsian.enumerate_classes":
        lambda c, a, out: _add(c, "fuchsian.classes", len(out)),
    "reps.trace_on_class":
        lambda c, a, out: _add(c, "reps.trace_calls", 1),
    "analysis.phi_at":
        lambda c, a, out: _add(c, "analysis.phi_calls", 1),
    "geomside.geometric_side":
        lambda c, a, out: _add(c, "geomside.class_terms",
                               len(out.class_contributions)),
    "spectral.mesh.build_octagon_mesh":
        lambda c, a, out: _add(c, "spectral.mesh.vertices",
                               len(out.vertices)),
    "spectral.assemble.assemble": _count_assemble,
    "spectral.solve.solve_spectrum": _count_solve,
    "spectral.side.spectral_side":
        lambda c, a, out: _add(c, "spectral.side.terms",
                               len(a[0].eigenvalues)),
}


class Tracer:
    """Spans as [name, parent index, start, end] plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, clock(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own."""
        return self.wrap(name, fn)(*args)


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns the undo function."""
    originals = {}
    for modname, prefix in LAYER_MODULES.items():
        mod = importlib.import_module(modname)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and not attr.startswith("_")):
                originals[id(obj)] = (obj, tracer.wrap(prefix + "." + attr, obj))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "tracebench" and not modname.startswith("tracebench."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))

    def undo():
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)

    return undo
