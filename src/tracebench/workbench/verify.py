"""Confront the two sides of the trace identity for a configured run."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import __version__
from ..fuchsian import SurfaceGroup
from ..geomside import geometric_side
from ..reps import Representation, character_rep, rep_from_json
from ..spectral import assemble, build_octagon_mesh, solve_spectrum, spectral_side
from .config import ExperimentConfig


@dataclass(frozen=True)
class TraceReport:
    entries: tuple  # one dict per test function
    provenance: dict
    threshold: float

    @property
    def ok(self) -> bool:
        return all(e["rel_residual"] <= self.threshold for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "entries": list(self.entries),
            "provenance": self.provenance,
            "threshold": self.threshold,
            "ok": self.ok,
        }


def build_representation(cfg: ExperimentConfig):
    if cfg.rep_kind == "character":
        return character_rep(cfg.rep_character)
    import json

    with open(cfg.rep_path) as fh:
        return rep_from_json(json.load(fh))


def build_spectrum(cfg: ExperimentConfig, g: SurfaceGroup, r: Representation):
    """Mesh, assemble and solve: the twisted spectrum of a configured run."""
    mesh = build_octagon_mesh(cfg.level, g)
    return solve_spectrum(assemble(mesh, r), cfg.count, cfg.shift)


def run_verify(
    cfg: ExperimentConfig, g: SurfaceGroup, r: Representation, classes, spectrum
) -> TraceReport:
    """Confront the spectral side of `spectrum` with the geometric side of
    `classes` (enumerated up to cfg.L_max) for every configured test
    function."""
    lams = np.array([lam for lam, _, _ in spectrum.eigenvalues])
    spectrum_real = bool(
        np.all(np.abs(lams.imag) <= 1e-8 * (1.0 + np.abs(lams)))
    )

    entries = []
    for name, f in cfg.test_functions:
        diag: dict = {}
        s = spectral_side(spectrum, f, g.covolume, diagnostics=diag)
        rep = geometric_side(g, classes, r, f, L_max=cfg.L_max)
        gval = rep.total
        abs_res = abs(s - gval)
        entries.append({
            "name": name,
            "T": f.T,
            "k": f.k,
            "spectral_re": float(s.real),
            "spectral_im": float(s.imag),
            "geometric_re": float(gval.real),
            "geometric_im": float(gval.imag),
            "identity_term": float(rep.identity_term),
            "n_class_terms": len(rep.class_contributions),
            "abs_residual": float(abs_res),
            "rel_residual": float(abs_res / max(abs(gval), 1e-300)),
            "tail_estimate": float(diag["tail_estimate"]),
            "strict_decay_test": bool(diag["strict_decay_test"]),
            "window_complete": bool(rep.exactness_flag),
        })

    provenance = {
        "tool_version": __version__,
        "preset": cfg.preset,
        "mesh_level": cfg.level,
        "mesh_h": float(spectrum.mesh_h),
        "eigen_count": int(sum(m for _, m, _ in spectrum.eigenvalues)),
        "L_max": cfg.L_max,
        "rep_kind": cfg.rep_kind,
        "rep_dim": r.dim,
        "spectrum_real": spectrum_real,
        "max_im_lambda": float(np.abs(lams.imag).max()),
        "lambda_scale": float(np.abs(lams).max()),
        "advisory_short_window": bool(cfg.advisory_short_window),
    }
    return TraceReport(tuple(entries), provenance, cfg.threshold)


def format_table(report: TraceReport) -> str:
    head = "%-10s %6s %3s  %22s  %22s  %10s  %s" % (
        "function", "T", "k", "spectral", "geometric", "rel.resid", "ok",
    )
    lines = [head, "-" * len(head)]
    for e in report.entries:
        s = complex(e["spectral_re"], e["spectral_im"])
        gv = complex(e["geometric_re"], e["geometric_im"])
        lines.append(
            "%-10s %6g %3d  %22.15g  %22.15g  %10.3e  %s"
            % (
                e["name"], e["T"], e["k"], s.real, gv.real,
                e["rel_residual"],
                "yes" if e["rel_residual"] <= report.threshold else "NO",
            )
        )
    p = report.provenance
    lines.append(
        "mesh level %d (h=%.4f), %d eigenvalues, L_max=%g, spectrum_real=%s"
        % (p["mesh_level"], p["mesh_h"], p["eigen_count"], p["L_max"],
           p["spectrum_real"])
    )
    return "\n".join(lines)
