"""The three workloads and the checks made on every repetition's outputs.

Inputs are fixed by the acceptance cases; only run order depends on the
seed.  Standard library only: the checks run in the parent process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Bolza lambda_1 (Strohmaier & Uski, Comm. Math. Phys. 317, 2013)
LAMBDA1_BOLZA = 3.83888725884
# relative error of the level-5 triple's mean, 1.36e-3 at the seed commit
LAMBDA1_REL_ERR_MAX = 1.5e-3
SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
RESIDUAL_GATE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    config: str        # INI file under inputs/
    commands: tuple    # CLI subcommands, run in order in one interpreter
    hashed: tuple      # outputs that must hash to the recorded baseline
    check: object      # out_dir -> (problems, accuracy metrics)

    @property
    def config_path(self) -> str:
        return os.path.join(BENCH_DIR, "inputs", self.config)


def _verify_check(out_dir):
    with open(os.path.join(out_dir, "verify.json")) as fh:
        report = json.load(fh)
    problems = []
    worst = max(e["rel_residual"] for e in report["entries"])
    if worst > RESIDUAL_GATE:
        problems.append("rel_residual %.3e above %.2f" % (worst, RESIDUAL_GATE))
    prov = report["provenance"]
    if not prov["max_im_lambda"] > 1e-4 * prov["lambda_scale"]:
        problems.append("spectrum not visibly complex: max|Im| %.3e"
                        % prov["max_im_lambda"])
    return problems, {"max_rel_residual": worst}


def _spectrum_check(out_dir):
    with open(os.path.join(out_dir, "spectrum.csv")) as fh:
        rows = list(csv.DictReader(fh))
    lams = []
    for row in rows:
        lams += [float(row["re"])] * int(row["multiplicity"])
    problems = []
    if len(lams) != 900:
        problems.append("%d eigenvalues, expected 900" % len(lams))
    err = abs(sum(lams[1:4]) / 3.0 - LAMBDA1_BOLZA) / LAMBDA1_BOLZA
    if not err <= LAMBDA1_REL_ERR_MAX:
        problems.append("lambda1 rel. error %.3e above %.1e"
                        % (err, LAMBDA1_REL_ERR_MAX))
    return problems, {"lambda1_rel_err": err}


def _lengths_check(out_dir):
    with open(os.path.join(out_dir, "lengths.csv")) as fh:
        lengths = [float(row["length"]) for row in csv.DictReader(fh)]
    with open(os.path.join(out_dir, "geomside.json")) as fh:
        summary = json.load(fh)
    problems = []
    if len(lengths) != 216:
        problems.append("%d classes, expected 216" % len(lengths))
    if not abs(min(lengths) - SYSTOLE) <= 1e-9:
        problems.append("systole %.12f, expected %.12f" % (min(lengths), SYSTOLE))
    short = sorted(n for n, s in summary.items() if not s["window_complete"])
    if short or len(summary) != 3:
        problems.append("window incomplete or missing for %s" % short)
    return problems, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-l4-e03", "verify-l4-e03.ini", ("verify",),
                 ("verify.json",), _verify_check),
        Workload("spectrum-l5-trivial", "spectrum-l5-trivial.ini",
                 ("spectrum",), ("spectrum.csv",), _spectrum_check),
        Workload("lengths-l7-rank2", "lengths-l7-rank2.ini",
                 ("enumerate", "geomside"), ("lengths.csv",), _lengths_check),
    )
}


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_baseline() -> dict:
    with open(os.path.join(BENCH_DIR, "baseline.json")) as fh:
        return json.load(fh)
