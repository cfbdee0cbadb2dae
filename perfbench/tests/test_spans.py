"""Span recording around a small in-process CLI run, and the inputs."""

import json
import math
import os

import numpy as np
import pytest

from perfbench import reduce, spans
from perfbench.workloads import BENCH_DIR, LAMBDA1_BOLZA, WORKLOADS

CONFIG = """\
[run]
L_max = 3.5

[representation]
kind = character
values = (1.2+0j), (1+0j), (1+0j), (1+0j)

[test_function.main]
T = 3.5
k = 2
"""


def test_traced_cli_run_accounts_for_root(tmp_path):
    from tracebench import fuchsian
    from tracebench.workbench import cli

    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    original = fuchsian.enumerate_classes
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert fuchsian.enumerate_classes is not original
        codes = tracer.call("workbench.root", lambda: [
            cli.main(["--config", str(cfg), "--out", str(tmp_path), cmd])
            for cmd in ("enumerate", "geomside")
        ])
    finally:
        undo()
    assert fuchsian.enumerate_classes is original
    assert codes == [0, 0]

    recs = [tuple(s) for s in tracer.spans]
    names = [s[0] for s in recs]
    assert names[0] == "workbench.root"
    assert names.count("fuchsian.enumerate_classes") == 1
    assert "workbench.io.read_csv" in names  # geomside read the cache
    for name, parent, start, end in recs[1:]:
        assert parent >= 0
        assert recs[parent][2] <= start <= end <= recs[parent][3]
    times = reduce.layer_times(recs)
    root = recs[0][3] - recs[0][2]
    assert sum(t["self"] for t in times.values()) == pytest.approx(root, abs=1e-9)
    assert times["fuchsian"]["entered"] > 0.0
    assert times["spectral.solve"]["entered"] == 0.0

    n_classes = tracer.counts["fuchsian.classes"]
    assert n_classes == sum(1 for _ in open(tmp_path / "lengths.csv")) - 1
    assert tracer.counts["reps.trace_calls"] == 2 * tracer.counts["geomside.class_terms"]


def test_rank2_input_is_the_bolza_fuchsian_representation():
    from tracebench.fuchsian import bolza_preset

    with open(os.path.join(BENCH_DIR, "inputs", "bolza_fuchsian.json")) as fh:
        obj = json.load(fh)
    images = np.array([[complex(re, im) for re, im in m] for m in obj["images"]])
    assert obj["dim"] == 2
    assert np.array_equal(images.reshape(4, 2, 2), bolza_preset().generators)


def test_spectrum_check_counts_multiplicity(tmp_path):
    lam = LAMBDA1_BOLZA * 1.001
    rows = ["re,im,multiplicity,residual", "0,0,1,0", "%r,0,3,0" % lam]
    rows += ["%d,0,1,0" % (10 + i) for i in range(896)]
    (tmp_path / "spectrum.csv").write_text("\n".join(rows) + "\n")
    problems, acc = WORKLOADS["spectrum-l5-trivial"].check(str(tmp_path))
    assert problems == []
    assert acc["lambda1_rel_err"] == pytest.approx(1e-3)

    (tmp_path / "spectrum.csv").write_text("\n".join(rows[:-1]) + "\n")
    problems, _ = WORKLOADS["spectrum-l5-trivial"].check(str(tmp_path))
    assert problems == ["899 eigenvalues, expected 900"]


def test_lengths_check_flags_wrong_systole(tmp_path):
    systole = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    rows = ["length,trace,power,primitive_length,word"]
    rows += ["%r,0,1,0,+1" % (systole + 1e-6 * i) for i in range(216)]
    (tmp_path / "lengths.csv").write_text("\n".join(rows) + "\n")
    summary = {n: {"window_complete": True} for n in ("t3", "t5", "t7")}
    (tmp_path / "geomside.json").write_text(json.dumps(summary))
    check = WORKLOADS["lengths-l7-rank2"].check
    assert check(str(tmp_path)) == ([], {})

    rows[1] = "%r,0,1,0,+1" % (systole - 1e-8)
    (tmp_path / "lengths.csv").write_text("\n".join(rows) + "\n")
    assert len(check(str(tmp_path))[0]) == 1
