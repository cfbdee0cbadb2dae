import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tracebench.analysis import TestFunction
from tracebench.errors import CacheMismatch, ConfigError
from tracebench.workbench import io as wio
from tracebench.workbench.config import ExperimentConfig, parse_config

SAMPLE = """
[run]
preset = bolza
L_max = 6.0
level = 4
count = 250
threshold = 0.05
out_dir = {out}

[representation]
kind = character
values = (1+0j), (1+0j), (1+0j), (1+0j)

[test_function.narrow]
T = 2.0
k = 2

[test_function.wide]
T = 4.0
k = 2
"""


@pytest.mark.parametrize(
    "mangle",
    [
        lambda s: s.replace("preset = bolza", "preset = torus"),
        lambda s: s.replace("level = 4", "level = 9"),
        lambda s: s.replace("T = 2.0", "T = -1.0"),
        lambda s: s.replace("count = 250", "count = 0"),
        lambda s: s.replace("[run]", "[run]\nunknown_key = 3"),
        lambda s: s + "\n[mystery]\nx = 1\n",
        lambda s: s.replace("(1+0j), (1+0j), (1+0j), (1+0j)", "0, 1, 1, 1"),
        lambda s: s.replace("L_max = 6.0", "L_max = 7.5"),
        lambda s: s.replace("T = 2.0\nk = 2", "T = 2.0\nk = 2\nfamily = mollifier"),
    ],
)
def test_config_validation(mangle):
    with pytest.raises(ConfigError):
        parse_config(mangle(SAMPLE.format(out="runs")))


def test_short_window_advisory():
    cfg = ExperimentConfig(
        L_max=3.0, test_functions=(("wide", TestFunction(T=5.5, k=2)),)
    )
    assert cfg.advisory_short_window
    assert not ExperimentConfig().advisory_short_window


def test_csv_roundtrips_doubles(tmp_path):
    path = str(tmp_path / "t.csv")
    val = 3.0571418389619964
    wio.write_csv(path, ("a", "b"), [(val, 7)])
    _, rows = wio.read_csv(path)
    assert float(rows[0][0]) == val  # 17 significant digits round-trip
    assert rows[0][1] == "7"


def test_cache_states(tmp_path):
    path = str(tmp_path / "x.csv")
    expect = {"kind": "demo", "L_max": 6.0}
    assert wio.cache_state(path, expect) == "absent"
    wio.write_csv(path, ("a",), [(1.0,)])
    wio.write_meta(path, expect)
    assert wio.cache_state(path, expect) == "fresh"
    with pytest.raises(CacheMismatch):
        wio.cache_state(path, {"kind": "demo", "L_max": 4.0})  # stale field
    with open(path, "a") as fh:
        fh.write("tampered\n")
    with pytest.raises(CacheMismatch):
        wio.cache_state(path, expect)


# ---------------------------------------------------------------------------
# CLI, through real subprocesses

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _run(args, **kw):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-m", "tracebench.workbench.cli", *args],
        capture_output=True, text=True, env=env, **kw,
    )


@pytest.fixture(scope="module")
def cli_conf(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    conf = root / "exp.ini"
    conf.write_text(SAMPLE.format(out=out))
    return str(conf), str(out)


def test_cli_enumerate_cache_byte_identity(cli_conf):
    conf, out = cli_conf
    assert _run(["--config", conf, "enumerate"]).returncode == 0
    first = open(os.path.join(out, "lengths.csv"), "rb").read()
    assert _run(["--config", conf, "enumerate"]).returncode == 0
    second = open(os.path.join(out, "lengths.csv"), "rb").read()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == "length,trace,power,primitive_length,word"


def test_cli_corrupt_cache_is_hard_error(cli_conf, tmp_path):
    conf, _ = cli_conf
    out = str(tmp_path / "corrupt")
    r = _run(["--config", conf, "--out", out, "enumerate"])
    assert r.returncode == 0
    path = os.path.join(out, "lengths.csv")
    with open(path, "a") as fh:
        fh.write("oops\n")
    r = _run(["--config", conf, "--out", out, "enumerate"])
    assert r.returncode == 2
    assert "checksum" in r.stderr
    # --refresh rebuilds without complaint
    r = _run(["--config", conf, "--out", out, "--refresh", "enumerate"])
    assert r.returncode == 0


def test_cli_geomside_no_compute(cli_conf, tmp_path):
    conf, _ = cli_conf
    out = str(tmp_path / "empty")
    r = _run(["--config", conf, "--out", out, "geomside", "--no-compute"])
    assert r.returncode == 2
    assert "no usable length-spectrum cache" in r.stderr


def test_cli_empty_window_has_valid_header(cli_conf, tmp_path):
    # L_max below the systole: empty file, header intact
    conf, _ = cli_conf
    short = str(tmp_path / "short.ini")
    text = open(conf).read().replace("L_max = 6.0", "L_max = 1.0")
    with open(short, "w") as fh:
        fh.write(text)
    out = str(tmp_path / "shortout")
    r = _run(["--config", short, "--out", out, "enumerate"])
    assert r.returncode == 0
    lines = open(os.path.join(out, "lengths.csv")).read().splitlines()
    assert lines == ["length,trace,power,primitive_length,word"]


def test_cli_spectrum_rerun_byte_identity(cli_conf, tmp_path):
    conf, _ = cli_conf
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert _run(["--config", conf, "--out", out1, "spectrum"]).returncode == 0
    assert _run(["--config", conf, "--out", out2, "spectrum"]).returncode == 0
    a = open(os.path.join(out1, "spectrum.csv"), "rb").read()
    b = open(os.path.join(out2, "spectrum.csv"), "rb").read()
    assert a == b
    assert a.decode().splitlines()[0] == "re,im,multiplicity,residual"


def test_cli_verify_report_and_exit_codes(cli_conf, tmp_path):
    conf, _ = cli_conf
    out = str(tmp_path / "verify")
    r = _run(["--config", conf, "--out", out, "verify"])
    assert r.returncode == 0, r.stderr
    report = json.load(open(os.path.join(out, "verify.json")))
    assert report["ok"] is True
    assert report["provenance"]["spectrum_real"] is True
    names = [e["name"] for e in report["entries"]]
    assert names == ["narrow", "wide"]
    for e in report["entries"]:
        assert e["rel_residual"] <= 0.05

    # rerunning writes byte-identical payload (timestamp only in sidecar)
    blob = open(os.path.join(out, "verify.json"), "rb").read()
    assert _run(["--config", conf, "--out", out, "verify"]).returncode == 0
    assert open(os.path.join(out, "verify.json"), "rb").read() == blob

    # impossible threshold flips the exit code to 4
    strict = str(tmp_path / "strict.ini")
    with open(strict, "w") as fh:
        fh.write(open(conf).read().replace(
            "threshold = 0.05", "threshold = 0.0000001"))
    r = _run(["--config", strict, "--out", str(tmp_path / "v2"), "verify"])
    assert r.returncode == 4


def _verify(cfg, group, classes):
    from tracebench.workbench.verify import (
        build_representation,
        build_spectrum,
        run_verify,
    )

    r = build_representation(cfg)
    return run_verify(cfg, group, r, classes, build_spectrum(cfg, group, r))


def test_rank2_trivial_residual_matches_rank1(group, classes_L6, tmp_path):
    # both sides of the identity scale by the fiber dimension, so the
    # relative residual must not move

    rep_path = str(tmp_path / "rep2.json")
    eye_flat = [[1, 0], [0, 0], [0, 0], [1, 0]]
    with open(rep_path, "w") as fh:
        json.dump({"dim": 2, "images": [eye_flat] * 4}, fh)

    tf = (("wide", TestFunction(T=4.0, k=2)),)
    cfg1 = ExperimentConfig(level=3, count=40, test_functions=tf,
                            out_dir=str(tmp_path))
    cfg2 = ExperimentConfig(level=3, count=80, test_functions=tf,
                            rep_kind="file", rep_path=rep_path,
                            out_dir=str(tmp_path))
    rep1 = _verify(cfg1, group, classes_L6)
    rep2 = _verify(cfg2, group, classes_L6)
    r1 = rep1.entries[0]["rel_residual"]
    r2 = rep2.entries[0]["rel_residual"]
    assert rep2.provenance["rep_dim"] == 2
    assert abs(r1 - r2) <= 1e-8
    assert abs(rep2.entries[0]["geometric_re"]
               - 2 * rep1.entries[0]["geometric_re"]) <= 1e-12


def test_verify_and_geomside_agree_on_window(group, tmp_path):
    # the classes below L_max 4.5 all have the systole's length 3.057, so
    # the window reaches T = 4.2 only when the cutoff itself is used
    from tracebench.fuchsian import enumerate_classes
    from tracebench.spectral.solve import SpectrumResult
    from tracebench.workbench.verify import build_representation, run_verify

    conf = str(tmp_path / "window.ini")
    with open(conf, "w") as fh:
        fh.write("[run]\nL_max = 4.5\n\n[test_function.w]\nT = 4.2\nk = 2\n")
    out = str(tmp_path / "window")
    r = _run(["--config", conf, "--out", out, "geomside"])
    assert r.returncode == 0, r.stderr
    geo = json.load(open(os.path.join(out, "geomside.json")))["w"]

    cfg = ExperimentConfig(L_max=4.5, out_dir=out,
                           test_functions=(("w", TestFunction(T=4.2, k=2)),))
    spec = SpectrumResult(eigenvalues=((0j, 1, 0.0), (420.0 + 0j, 1, 0.0)),
                          mesh_h=0.1, d=1)
    report = run_verify(cfg, group, build_representation(cfg),
                        enumerate_classes(group, 4.5), spec)
    assert report.entries[0]["window_complete"] is geo["window_complete"] is True


def test_lengths_cache_roundtrip_is_field_for_field(group, classes_L62, tmp_path):
    # what geomside reads back from lengths.csv must be the classes that
    # enumerate wrote; L_max 6.2 includes the power-2 classes
    from dataclasses import fields

    from tracebench.fuchsian import ConjugacyClass
    from tracebench.hyperbolic import psl_close
    from tracebench.workbench.cli import _class_rows, _classes_from_rows

    assert any(c.power == 2 for c in classes_L62)
    path = str(tmp_path / "lengths.csv")
    wio.write_csv(path, ("length", "trace", "power", "primitive_length", "word"),
                  _class_rows(classes_L62))
    _, rows = wio.read_csv(path)
    cached = _classes_from_rows(group, rows)
    assert len(cached) == len(classes_L62)
    for fresh, back in zip(classes_L62, cached):
        for fld in fields(ConjugacyClass):
            a, b = getattr(fresh, fld.name), getattr(back, fld.name)
            if fld.name == "rep_matrix":
                assert psl_close(a, b, 1e-7 * (1.0 + np.max(np.abs(a))))
            else:
                assert a == b, fld.name


def test_cli_weyl_window(cli_conf, tmp_path):
    conf, _ = cli_conf
    out = str(tmp_path / "weyl")
    r = _run(["--config", conf, "--out", out, "weyl"])
    assert r.returncode == 0
    _, rows = wio.read_csv(os.path.join(out, "weyl.csv"))
    assert len(rows) == 11
    ratios = [float(row[3]) for row in rows]
    # level-4 window is noisy; just pin sane bounds here, the calibrated
    # band lives in the acceptance suite
    assert all(0.7 < q < 1.3 for q in ratios)


def test_cli_bad_config_exit_code(tmp_path):
    conf = str(tmp_path / "bad.ini")
    with open(conf, "w") as fh:
        fh.write("[run]\nlevel = 99\n\n[test_function.x]\nT = 2.0\n")
    r = _run(["--config", conf, "enumerate"])
    assert r.returncode == 2
    assert "level" in r.stderr
