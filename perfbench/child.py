"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --out DIR [--trace] [--setup-only]

The parent passes its CLOCK_MONOTONIC reading at spawn in PERFBENCH_T0
and pins BLAS to one thread in the environment.  Set-up runs from that
instant through the imports, the config parse and `bolza_preset()`.  The
workload's CLI commands then run in order through `cli.main`, the same
entry point the `tracebench` script calls.  The result goes to
DIR/result.json, and with --trace the spans go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.spans import Tracer, clock, install  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy < 1.26 prints and takes no mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    t0 = float(os.environ["PERFBENCH_T0"])
    w = WORKLOADS[args.workload]

    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    from tracebench.fuchsian import bolza_preset
    from tracebench.workbench import cli, config, io, verify  # noqa: F401

    config.load_config(w.config_path)
    bolza_preset()
    setup_end = clock()
    result = {"setup_s": setup_end - t0, "env": _environment(np, scipy)}

    if not args.setup_only:
        tracer = Tracer()
        undo = install(tracer) if args.trace else None
        codes = []

        def commands():
            for cmd in w.commands:
                codes.append(cli.main(["--config", w.config_path,
                                       "--out", args.out, cmd]))

        start = clock()
        if args.trace:
            tracer.call("workbench.root", commands)
            undo()
        else:
            commands()
        result.update(
            wall_s=clock() - start,
            exit_codes=codes,
            spans=tracer.spans,
            counts=tracer.counts,
        )

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
