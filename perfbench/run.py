"""Benchmark of the tracebench CLI on three fixed workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One run repeats the workload for about S seconds, one fresh interpreter
and one fresh output directory per repetition, one child at a time, BLAS
pinned to one thread.  Every repetition's outputs are checked and their
hashes compared with perfbench/baseline.json; a repetition that exits
non-zero, raises or fails a check counts as failed.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The seed only permutes run order.  `--all`
runs every workload both ways and prints every metric by name and unit.
Records, with the environment, go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import reduce  # noqa: E402
from perfbench.spans import clock  # noqa: E402
from perfbench.workloads import BENCH_DIR, WORKLOADS, load_baseline, sha256_of  # noqa: E402

WORK_DIR = ".perfbench"
SETUP_PROBES = 6           # extra set-up-only children per untraced run
RUN_LIMIT_S = 170.0        # a child still running this long into a run is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer_names():
    names = []
    for layer in reduce.LAYERS[:-1]:
        names += [(layer + ".s", "s"), (layer + ".self_s", "s")]
    return names + [
        ("workbench.self_s", "s"),
        ("workbench.io.write_s", "s"),
        ("workbench.io.read_s", "s"),
        ("fuchsian.enumerate_s", "s"),
        ("fuchsian.classes", "count"),
        ("reps.trace_s", "s"),
        ("reps.trace_calls", "count"),
        ("analysis.phi_s", "s"),
        ("analysis.phi_calls", "count"),
        ("analysis.identity_s", "s"),
        ("geomside.class_terms", "count"),
        ("spectral.mesh.vertices", "count"),
        ("spectral.assemble.free_dofs", "count"),
        ("spectral.assemble.nnz", "count"),
        ("spectral.solve.eigenvalues", "count"),
        ("spectral.solve.clusters", "count"),
        ("spectral.solve.max_residual", "norm"),
        ("spectral.side.terms", "count"),
        ("max_rel_residual", "ratio"),
        ("lambda1_rel_err", "ratio"),
        ("trace.root_s", "s"),
        ("trace.unaccounted_s", "s"),
        ("trace.overhead_s", "s"),
    ]


PER_LAYER = tuple(_per_layer_names())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _child_env(t0: float) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PERFBENCH_T0"] = repr(t0)
    return env


def _run_child(workload, out_dir, timeout, trace=False, setup_only=False) -> dict:
    """One repetition: spawn, wait, check.  Returns its sample record."""
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload.name, "--out", out_dir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    rec = {"trace": trace, "setup_only": setup_only, "problems": []}
    with open(os.path.join(out_dir, "child.log"), "w") as log:
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(t0))
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    rec["elapsed_s"] = clock() - t0
    if code != 0:
        rec["problems"].append("child exited with %s" % code)
        return rec
    with open(os.path.join(out_dir, "result.json")) as fh:
        res = json.load(fh)
    rec.update(setup_s=res["setup_s"], peak_rss_mb=res["peak_rss_mb"],
               env=res["env"])
    if setup_only:
        return rec
    rec.update(wall_s=res["wall_s"], exit_codes=res["exit_codes"])
    if any(res["exit_codes"]):
        rec["problems"].append("CLI exit codes %s" % res["exit_codes"])
        return rec
    try:
        problems, accuracy = workload.check(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        problems, accuracy = ["outputs unreadable: %r" % exc], {}
    rec["problems"] += problems
    rec["accuracy"] = accuracy
    expect = load_baseline()[workload.name]["sha256"]
    for name in workload.hashed:
        got = sha256_of(os.path.join(out_dir, name))
        if got != expect[name]:
            rec["problems"].append("%s hashes to %s, baseline %s"
                                   % (name, got[:12], expect[name][:12]))
    if trace:
        spans = [tuple(s) for s in res["spans"]]
        rec["layer"] = _layer_metrics(spans, res["counts"], accuracy)
    return rec


def _layer_metrics(spans, counts, accuracy) -> dict:
    """Per-layer metrics of one traced repetition.  Layers and accuracy
    figures that the workload does not reach read 0."""
    times = reduce.layer_times(spans)
    out = {}
    for layer in reduce.LAYERS[:-1]:
        out[layer + ".s"] = times[layer]["entered"]
        out[layer + ".self_s"] = times[layer]["self"]
    out["workbench.self_s"] = times["workbench"]["self"]

    def fn_time(*names):
        return reduce.outermost_time(spans, lambda n: n in names)

    out["workbench.io.write_s"] = reduce.outermost_time(
        spans, lambda n: n.startswith("workbench.io.write"))
    out["workbench.io.read_s"] = fn_time("workbench.io.read_csv",
                                         "workbench.io.cache_state")
    out["fuchsian.enumerate_s"] = fn_time("fuchsian.enumerate_classes")
    out["reps.trace_s"] = fn_time("reps.trace_on_class")
    out["analysis.phi_s"] = fn_time("analysis.phi_at")
    out["analysis.identity_s"] = fn_time("analysis.identity_term")
    root = spans[0][3] - spans[0][2]
    out["trace.root_s"] = root
    out["trace.unaccounted_s"] = root - sum(t["self"] for t in times.values())
    out.update(accuracy)
    for name, _ in PER_LAYER:
        out.setdefault(name, counts.get(name, 0))
    return out


def _environment(seed, samples) -> dict:
    child = next((s["env"] for s in samples if "env" in s), None)
    return {
        "seed": seed,
        "python": platform.python_version(),
        "child": child,
        "threads": {v: "1" for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def run_workload(name, seed, seconds, trace) -> dict:
    """Repeat one workload for about `seconds`; returns the run record.

    Repetitions start while the slowest so far would still end inside the
    budget, and at least one runs.  Untraced runs add SETUP_PROBES
    set-up-only children; traced runs pair every traced repetition with
    an untraced one, so the difference gives the tracing overhead.
    """
    w = WORKLOADS[name]
    rng = random.Random(seed)
    base = os.path.join(WORK_DIR, "%s-seed%d-trace%d-%d"
                        % (name, seed, trace, os.getpid()))
    load_start = os.getloadavg()
    samples = []
    limit = time.monotonic() + RUN_LIMIT_S

    def child(**kw):
        out_dir = os.path.join(base, str(len(samples)))
        samples.append(_run_child(w, out_dir, limit - time.monotonic(), **kw))

    probes_first = rng.randint(0, SETUP_PROBES) if not trace else 0
    for _ in range(probes_first):
        child(setup_only=True)
    deadline = time.monotonic() + seconds
    longest = 0.0
    while not longest or time.monotonic() + longest <= deadline:
        began = time.monotonic()
        order = [False, True] if trace else [False]
        rng.shuffle(order)
        for traced in order:
            child(trace=traced)
        longest = max(longest, time.monotonic() - began)
    if not trace:
        for _ in range(SETUP_PROBES - probes_first):
            child(setup_only=True)

    good = [s for s in samples if not s["problems"]]
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "env": _environment(seed, samples),
        "loadavg": {"start": load_start, "end": os.getloadavg()},
        "samples": samples,
    }
    record["metrics"] = _metrics(good, trace)
    if len(good) == len(samples):
        shutil.rmtree(base)
    return record


def _metrics(samples, trace) -> dict:
    """Medians over the passing samples; empty if a kind is missing."""
    runs = [s for s in samples if not s["setup_only"]]
    plain = [s for s in runs if not s["trace"]]
    traced = [s for s in runs if s["trace"]]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        values = {
            "wall_s": reduce.median([s["wall_s"] for s in plain]),
            "setup_s": reduce.median([s["setup_s"] for s in samples]),
            "peak_rss_mb": reduce.median([s["peak_rss_mb"] for s in plain]),
        }
        units = END_TO_END
    else:
        values = {name: reduce.median([s["layer"][name] for s in traced])
                  for name, _ in PER_LAYER}
        values["trace.overhead_s"] = values["trace.root_s"] - reduce.median(
            [s["wall_s"] for s in plain])
        units = PER_LAYER
    return {n: {"value": values[n], "unit": u} for n, u in units}


def _save(record) -> None:
    path = os.path.join(WORK_DIR, "results")
    os.makedirs(path, exist_ok=True)
    fname = "%s-seed%d-trace%d.json" % (
        record["workload"], record["env"]["seed"], record["trace"])
    with open(os.path.join(path, fname), "w") as fh:
        json.dump(record, fh, indent=1)


def _print_problems(record) -> None:
    for i, s in enumerate(record["samples"]):
        for p in s["problems"]:
            print("%s rep %d: %s" % (record["workload"], i, p), file=sys.stderr)


def _summary(records) -> None:
    """Every metric by name and unit, pooled over each workload's runs."""
    for name in WORKLOADS:
        recs = [r for r in records if r["workload"] == name]
        samples = [s for r in recs for s in r["samples"]]
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        print("\n== %s (%d repetitions, %d set-up probes)" % (
            name, sum(not s["setup_only"] for s in samples),
            sum(s["setup_only"] for s in samples)))
        print("  %-28s %-6s %s" % ("fail_frac", "1",
                                    reduce.fail_frac(attempted, failed)))
        plain = [s for s in samples if not s["setup_only"] and not s["trace"]
                 and not s["problems"]]
        pools = {
            "wall_s": [s["wall_s"] for s in plain],
            "setup_s": [s["setup_s"] for s in samples if "setup_s" in s],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        for metric, unit in END_TO_END:
            xs = pools[metric]
            if not xs:
                continue
            tail = reduce.tail_percentile(xs)
            tail_s = ("p%g %.4f" % tail) if tail else "no tail percentile"
            print("  %-28s %-6s median %.4f, %s, n=%d"
                  % (metric, unit, reduce.median(xs), tail_s, len(xs)))
        for acc in ("max_rel_residual", "lambda1_rel_err"):
            vals = [s["accuracy"][acc] for s in plain if acc in s["accuracy"]]
            if vals:
                print("  %-28s %-6s %.6e" % (acc, "ratio", max(vals)))
        for r in recs:
            if r["trace"] and r["metrics"]:
                m = {k: v["value"] for k, v in r["metrics"].items()}
                root = m["trace.root_s"]
                print("  traced root %.3f s; share of root by layer:" % root)
                for layer in reduce.LAYERS[:-1]:
                    if m[layer + ".s"]:
                        print("    %-24s %6.1f%%" % (layer, 100 * m[layer + ".s"] / root))
                print("    %-24s %6.1f%% (self)" % (
                    "workbench", 100 * m["workbench.self_s"] / root))
                for k, v in r["metrics"].items():
                    print("  %-28s %-6s %.6g" % (k, v["unit"], v["value"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if bool(args.workload) == args.all:
        ap.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join("src", "tracebench", "__init__.py")):
        print("run from the root of a tracebench checkout: no src/tracebench",
              file=sys.stderr)
        return 2

    if args.all:
        names = sorted(WORKLOADS)
        random.Random(args.seed).shuffle(names)
        records = []
        for name in names:
            for trace in (0, 1):
                rec = run_workload(name, args.seed, args.seconds, trace)
                _save(rec)
                _print_problems(rec)
                records.append(rec)
        _summary(records)
        return 0 if not any(r["failed"] for r in records) else 1

    rec = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _save(rec)
    _print_problems(rec)
    print(json.dumps({"workload": rec["workload"], "env": rec["env"],
                      "loadavg": rec["loadavg"]}))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
