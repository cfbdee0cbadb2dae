"""Reduction arithmetic: medians, tail percentiles, failure fractions and
span self times.  Standard library only, so the parent process of the
benchmark never imports numpy.

A span is a tuple (name, parent, start, end): `parent` is the index of
the enclosing span in the same list, or -1 for the root.  A span's layer
is the longest entry of LAYERS that prefixes its name.
"""

from __future__ import annotations

import statistics

LAYERS = (
    "fuchsian",
    "reps",
    "analysis",
    "geomside",
    "spectral.mesh",
    "spectral.assemble",
    "spectral.solve",
    "spectral.side",
    "workbench",
)

# Percentiles tried for the tail figure, highest first.
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def tail_percentile(xs, min_beyond: int = 10):
    """(p, value) for the highest percentile with at least `min_beyond`
    samples above it, or None when there are too few samples for any."""
    n = len(xs)
    for p in _TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= min_beyond:
            return p, percentile(xs, p)
    return None


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no runs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed runs must lie in [0, attempted]")
    return failed / attempted


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, parent, start, end), kids in zip(spans, children):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in kids]
        out.append((end - start) - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def layer_of(name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError("span %r belongs to no layer" % name)
    return best


def layer_times(spans) -> dict:
    """Per layer: `self` (summed self time) and `entered` (summed duration
    of the spans whose parent lies in another layer, i.e. time inside the
    layer including what it called).  Over all layers the self times add
    up to the root span's duration."""
    layers = [layer_of(s[0]) for s in spans]
    out = {layer: {"self": 0.0, "entered": 0.0} for layer in LAYERS}
    for i, (sp, st) in enumerate(zip(spans, self_times(spans))):
        name, parent, start, end = sp
        out[layers[i]]["self"] += st
        if parent < 0 or layers[parent] != layers[i]:
            out[layers[i]]["entered"] += end - start
    return out


def outermost_time(spans, accept) -> float:
    """Summed duration of spans whose name passes `accept` and whose
    parent's name does not, so nested calls are not counted twice."""
    total = 0.0
    for name, parent, start, end in spans:
        if accept(name) and (parent < 0 or not accept(spans[parent][0])):
            total += end - start
    return total


def spread(xs) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)
