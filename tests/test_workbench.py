import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference import sym2
from tracebench import TRUST_DIVISOR
from tracebench.analysis import TestFunction
from tracebench.errors import CacheMismatch, ConfigError
from tracebench.reps import Representation, character_rep
from tracebench.spectral import assemble, build_octagon_mesh, solve_spectrum
from tracebench.workbench import cli
from tracebench.workbench import io as wio
from tracebench.workbench.config import ExperimentConfig, parse_config, validate

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
        lambda s: s.replace("values =", "valuez ="),
        lambda s: s.replace("kind = character", "kind = character\npath = rep.json"),
        lambda s: s.replace("kind = character\nvalues = (1+0j), (1+0j), (1+0j), (1+0j)",
                            "kind = file\npath = no/such/rep.json"),
        lambda s: s.replace("(1+0j), (1+0j), (1+0j), (1+0j)", "nan, 1, 1, 1"),
        # retired [run] keys are unknown keys now
        lambda s: s.replace("[run]", "[run]\nshift = 150"),
        lambda s: s.replace("[run]", "[run]\nbudget = 1000"),
        lambda s: s.replace("level = 4", "level = four"),
        # past the solver's trust region: 1022 free dofs at level 4
        lambda s: s.replace("count = 250", "count = 256"),
        # test functions float64 cannot run, and a name that is no file name
        lambda s: s.replace("T = 2.0", "T = nan"),
        lambda s: s.replace("T = 2.0", "T = inf"),
        lambda s: s.replace("T = 2.0", "T = 1e300"),
        lambda s: s.replace("T = 2.0\nk = 2", "T = 2.0\nk = 1" + "0" * 400),
        lambda s: s.replace("T = 2.0\nk = 2", "T = 2.0\nk = 2.5"),
        lambda s: s.replace("[test_function.narrow]", "[test_function.a/b]"),
        lambda s: s.replace("[test_function.narrow]", "[test_function.]"),
    ],
)
def test_config_validation(mangle):
    with pytest.raises(ConfigError):
        parse_config(mangle(SAMPLE.format(out="runs")))


def test_trust_region_at_load_matches_the_solver(group):
    # validate predicts N_free from level and d; the solver's own guard on
    # the assembled system must agree at every level, for d = 1 and 2
    reps = (character_rep((1, 1, 1, 1)), Representation(group.generators))
    for level in range(6):
        mesh = build_octagon_mesh(level, group)
        for r in reps:
            sys = assemble(mesh, r)
            limit = sys.N_free // TRUST_DIVISOR
            cfg = ExperimentConfig(level=level, representation=r)
            if limit >= 1:
                validate(replace(cfg, count=limit))
            with pytest.raises(ConfigError, match="N_free/4"):
                validate(replace(cfg, count=limit + 1))
            with pytest.raises(ValueError, match="trust region"):
                solve_spectrum(sys, limit + 1)


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


@pytest.mark.parametrize("sidecar", [b"[1]", b"\xff\xfe\x00"], ids=["list", "not-utf8"])
def test_cli_unreadable_sidecar_is_hard_error(tmp_path, sidecar):
    # a sidecar that is JSON but not an object, or not text at all, is a
    # corrupt cache like any other: exit 2 with the sidecar named
    conf = tmp_path / "short.ini"
    conf.write_text("[run]\nL_max = 3.5\n")
    out = tmp_path / "out"
    assert _run(["--config", str(conf), "--out", str(out), "enumerate"]).returncode == 0
    meta = out / "lengths.csv.meta.json"
    meta.write_bytes(sidecar)
    r = _run(["--config", str(conf), "--out", str(out), "geomside"])
    assert r.returncode == 2, r.stderr
    assert "unreadable cache sidecar %s" % meta in r.stderr
    assert "Traceback" not in r.stderr
    with pytest.raises(CacheMismatch, match="unreadable cache sidecar"):
        wio.cache_state(str(out / "lengths.csv"), {})


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
    path = Path(out, "lengths.csv")
    first = path.read_bytes()
    assert _run(["--config", conf, "enumerate"]).returncode == 0
    second = path.read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == "length,trace,power,primitive_length,word"


def test_cli_enumerate_loads_no_scipy(cli_conf, tmp_path):
    # the config's count check needs only the trust divisor, and enumeration
    # needs no eigensolver, so neither imports scipy's solvers
    conf, _ = cli_conf
    short = tmp_path / "short.ini"
    short.write_text(Path(conf).read_text().replace("L_max = 6.0", "L_max = 4.0"))
    code = ("import sys\n"
            "from tracebench.workbench import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    r = subprocess.run(
        [sys.executable, "-c", code, "--config", str(short),
         "--out", str(tmp_path / "out"), "enumerate"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


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


def test_suite_runs_blas_on_one_thread():
    # conftest.py pins BLAS by the CLI's rule, whatever the caller set
    assert {v: os.environ[v] for v in cli._BLAS_VARS} == dict.fromkeys(
        cli._BLAS_VARS, "1")


def test_suite_overrides_the_callers_blas_threads():
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "%s::test_suite_runs_blas_on_one_thread" % __file__],
        capture_output=True, text=True, cwd=os.path.dirname(_SRC),
        env=dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="2"),
    )
    assert r.returncode == 0, r.stdout


def test_cli_empty_window_has_valid_header(cli_conf, tmp_path):
    # L_max below the systole: empty file, header intact
    conf, _ = cli_conf
    short = str(tmp_path / "short.ini")
    Path(short).write_text(Path(conf).read_text().replace("L_max = 6.0", "L_max = 1.0"))
    out = str(tmp_path / "shortout")
    r = _run(["--config", short, "--out", out, "enumerate"])
    assert r.returncode == 0
    lines = Path(out, "lengths.csv").read_text().splitlines()
    assert lines == ["length,trace,power,primitive_length,word"]


def test_cli_spectrum_rerun_byte_identity(cli_conf, tmp_path):
    conf, _ = cli_conf
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert _run(["--config", conf, "--out", out1, "spectrum"]).returncode == 0
    assert _run(["--config", conf, "--out", out2, "spectrum"]).returncode == 0
    a = Path(out1, "spectrum.csv").read_bytes()
    b = Path(out2, "spectrum.csv").read_bytes()
    assert a == b
    assert a.decode().splitlines()[0] == "re,im,multiplicity,residual"


def test_cli_verify_report_and_exit_codes(cli_conf, tmp_path):
    conf, _ = cli_conf
    out = str(tmp_path / "verify")
    r = _run(["--config", conf, "--out", out, "verify"])
    assert r.returncode == 0, r.stderr
    report = json.loads(Path(out, "verify.json").read_text())
    assert report["ok"] is True
    assert report["provenance"]["spectrum_real"] is True
    names = [e["name"] for e in report["entries"]]
    assert names == ["narrow", "wide"]
    for e in report["entries"]:
        assert e["rel_residual"] <= 0.05

    # rerunning writes byte-identical payload (timestamp only in sidecar)
    blob = Path(out, "verify.json").read_bytes()
    assert _run(["--config", conf, "--out", out, "verify"]).returncode == 0
    assert Path(out, "verify.json").read_bytes() == blob

    # impossible threshold flips the exit code to 4
    strict = str(tmp_path / "strict.ini")
    Path(strict).write_text(Path(conf).read_text().replace(
        "threshold = 0.05", "threshold = 0.0000001"))
    r = _run(["--config", strict, "--out", str(tmp_path / "v2"), "verify"])
    assert r.returncode == 4


def _verify(cfg, group, classes):
    from tracebench.workbench.verify import build_spectrum, run_verify

    r = cfg.representation
    return run_verify(cfg, group, r, classes, build_spectrum(cfg, group, r))


def test_rank2_trivial_residual_matches_rank1(group, classes_L6, tmp_path):
    # both sides of the identity scale by the fiber dimension, so the
    # relative residual must not move

    rep_file = tmp_path / "rep2.json"
    eye_flat = [[1, 0], [0, 0], [0, 0], [1, 0]]
    rep_file.write_text(json.dumps({"dim": 2, "images": [eye_flat] * 4}))
    rank2 = parse_config("[representation]\nkind = file\npath = %s\n" % rep_file)

    tf = (("wide", TestFunction(T=4.0, k=2)),)
    cfg1 = ExperimentConfig(level=3, count=40, test_functions=tf,
                            out_dir=str(tmp_path))
    cfg2 = ExperimentConfig(level=3, count=80, test_functions=tf,
                            rep_kind="file", representation=rank2.representation,
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
    from tracebench.workbench.verify import run_verify

    conf = str(tmp_path / "window.ini")
    with open(conf, "w") as fh:
        fh.write("[run]\nL_max = 4.5\n\n[test_function.w]\nT = 4.2\nk = 2\n")
    out = str(tmp_path / "window")
    r = _run(["--config", conf, "--out", out, "geomside"])
    assert r.returncode == 0, r.stderr
    geo = json.loads(Path(out, "geomside.json").read_text())["w"]

    cfg = ExperimentConfig(L_max=4.5, out_dir=out,
                           test_functions=(("w", TestFunction(T=4.2, k=2)),))
    spec = SpectrumResult(eigenvalues=((0j, 1, 0.0), (420.0 + 0j, 1, 0.0)),
                          mesh_h=0.1, d=1)
    report = run_verify(cfg, group, cfg.representation,
                        enumerate_classes(group, 4.5), spec)
    assert report.entries[0]["window_complete"] is geo["window_complete"] is True


def test_lengths_cache_roundtrip_is_field_for_field(classes_L62, tmp_path):
    # what geomside reads back from lengths.csv must be the classes that
    # enumerate wrote; L_max 6.2 includes the power-2 classes
    from tracebench.workbench.cli import _class_rows, _classes_from_rows

    assert any(c.power == 2 for c in classes_L62)
    path = str(tmp_path / "lengths.csv")
    wio.write_csv(path, ("length", "trace", "power", "primitive_length", "word"),
                  _class_rows(classes_L62))
    _, rows = wio.read_csv(path)
    cached = _classes_from_rows(rows)
    assert cached == classes_L62      # every field, float bits included
    for fresh, back in zip(classes_L62, cached):
        assert back.primitive_length == fresh.primitive_length
        assert back.discriminant == fresh.discriminant


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


def test_cli_count_past_trust_region_fails_at_load(tmp_path):
    # level 3 has 254 free dofs, so count 100 is past N_free/4 = 63: exit 2
    # before enumeration writes lengths.csv, not from the solver after it
    out = tmp_path / "out"
    conf = tmp_path / "big.ini"
    conf.write_text(SAMPLE.format(out=out).replace("level = 4", "level = 3")
                    .replace("count = 250", "count = 100"))
    r = _run(["--config", str(conf), "verify"])
    assert r.returncode == 2
    assert "count must lie in [1, N_free/4 = 63] at level 3, got 100" in r.stderr
    assert not (out / "lengths.csv").exists()


def _rep_json(images) -> str:
    """The JSON input format of the (4, d, d) images."""
    images = np.asarray(images, dtype=complex)
    return json.dumps({"dim": images.shape[1], "images": [
        [[float(z.real), float(z.imag)] for z in m.ravel()] for m in images]})


def test_cli_bad_representation_file_fails_at_load(tmp_path):
    # a missing file, a JSON without "images" or with boolean entries, and
    # images that fail the representation's gate (a zero or rank-1 image, a
    # NaN, three images, a broken relator) are config errors: exit 2
    # before any enumeration, with the section and the path named and no
    # output written
    missing = tmp_path / "missing.json"
    no_images = tmp_path / "no_images.json"
    no_images.write_text(json.dumps({"dim": 2}))
    cases = [(missing, cmd) for cmd in
             ("enumerate", "spectrum", "geomside", "weyl", "verify")]
    cases.append((no_images, "geomside"))
    eye, shear = np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]])
    for i, images in enumerate((
        [eye, eye, eye, np.zeros((2, 2))],
        [eye, np.ones((2, 2)), eye, eye],
        [eye, eye, np.diag([1.0, np.nan]), eye],
        [eye, eye, eye],
        [shear, shear.T, eye, eye],
    )):
        rep = tmp_path / ("bad%d.json" % i)
        rep.write_text(_rep_json(images))
        cases.append((rep, "verify"))
    # JSON true and false are not numbers, though Python reads them as 1, 0
    booleans = tmp_path / "booleans.json"
    booleans.write_text(json.dumps({"dim": 1, "images": [[[True, False]]] * 4}))
    cases.append((booleans, "enumerate"))
    for i, (rep, cmd) in enumerate(cases):
        conf = tmp_path / ("rep%d.ini" % i)
        conf.write_text("[run]\nL_max = 3.5\n\n[representation]\nkind = file\n"
                        "path = %s\n" % rep)
        out = tmp_path / ("out%d" % i)
        r = _run(["--config", str(conf), "--out", str(out), cmd])
        assert r.returncode == 2, (cmd, r.stderr)
        assert "[representation] path %s" % rep in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()


def test_cli_zero_character_fails_at_load(tmp_path):
    # the character kind goes through the same gate: a zero value exits 2
    # at load with the section named, like a zero image in a file
    conf = tmp_path / "zero.ini"
    conf.write_text("[run]\nL_max = 3.5\n\n[representation]\n"
                    "kind = character\nvalues = 0, 1, 1, 1\n")
    out = tmp_path / "out"
    r = _run(["--config", str(conf), "--out", str(out), "verify"])
    assert r.returncode == 2, r.stderr
    assert "[representation]: image of a1 is numerically singular" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_overflowing_pairing_image_fails_at_load(tmp_path):
    # the relator residual of 1, 1e-200, 1, 1e-200 is 0, but the side
    # pairing g2 = b1^-1 a2 b2^-1 is 1e400: exit 2 at load, no warning
    conf = tmp_path / "big.ini"
    conf.write_text("[run]\nL_max = 3.5\nlevel = 2\ncount = 10\n\n"
                    "[representation]\nkind = character\n"
                    "values = 1, 1e-200, 1, 1e-200\n")
    out = tmp_path / "out"
    r = _run(["--config", str(conf), "--out", str(out), "verify"])
    assert r.returncode == 2, r.stderr
    assert "[representation]: image of side pairing g2 is not finite" in r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_pairing_image_without_float64_inverse_fails_at_load(tmp_path):
    # 1, 1e160, 1, 1e150 has relator residual 0 and finite pairing images,
    # but g2 = b1^-1 a2 b2^-1 is 1e-310, a subnormal that matrix_rank calls
    # full rank and whose float64 inverse is nan: exit 2 at load, no warning
    conf = tmp_path / "tiny.ini"
    conf.write_text("[run]\nL_max = 3.5\nlevel = 2\ncount = 10\n\n"
                    "[representation]\nkind = character\n"
                    "values = 1, 1e160, 1, 1e150\n")
    out = tmp_path / "out"
    r = _run(["--config", str(conf), "--out", str(out), "verify"])
    assert r.returncode == 2, r.stderr
    assert ("[representation]: inverse of the image of side pairing g2 is not "
            "finite" in r.stderr)
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.slow
def test_cli_verify_sym2_holonomy(group, tmp_path):
    # Sym^2 of the holonomy (relator residual 3.1e-9) at level 4 with
    # count N_free/4: a few roots at T = 5.5 and 7 never pass their own
    # settle test but move by under 2.3e-15 at 512 panels, far inside
    # 1e-12 of the batch's largest |phi|.  Measured residuals: 4.411e-2,
    # 1.886e-2 and 3.416e-3, margins of 0.12, 0.62 and 0.93 of the gate.
    rep = tmp_path / "sym2.json"
    rep.write_text(_rep_json(sym2(Representation(group.generators)).images))
    conf = tmp_path / "sym2.ini"
    conf.write_text(
        "[run]\nL_max = 7\nlevel = 4\ncount = 766\n\n"
        "[representation]\nkind = file\npath = %s\n\n" % rep
        + "".join("[test_function.%s]\nT = %s\nk = 2\n\n" % (name, T)
                  for name, T in (("a", 4), ("b", 5.5), ("c", 7))))
    out = tmp_path / "out"
    assert cli.main(["--config", str(conf), "--out", str(out), "verify"]) == 0
    report = json.loads((out / "verify.json").read_text())
    residuals = [e["rel_residual"] for e in report["entries"]]
    assert len(residuals) == 3
    assert all(res <= report["threshold"] == 0.05 for res in residuals)


@pytest.mark.parametrize("which", ["tiny", "scaled", "far"])
def test_cli_spectrum_far_from_the_unitary_locus(group, tmp_path, which):
    # a representation is judged by its rank and its relator alone, so
    # each of these loads, assembles and solves at level 3: a character
    # value of 1e-13 and the holonomy with a1 scaled by 1e-7, both in a
    # file and both with a determinant below 1e-12, and a character whose
    # pairing images reach 1e8
    holonomy = np.array(group.generators, dtype=complex)
    holonomy[0] *= 1e-7  # a scalar factor leaves every commutator alone
    files = {"tiny": [[[1e-13]], [[1]], [[1]], [[1]]], "scaled": holonomy}
    if which in files:
        rep = tmp_path / "rep.json"
        rep.write_text(_rep_json(files[which]))
        body = "kind = file\npath = %s\n" % rep
    else:
        body = "kind = character\nvalues = 1e4, 1e-4, 1e-4, 1e-4\n"
    conf = tmp_path / "far.ini"
    conf.write_text("[run]\nlevel = 3\ncount = 60\n\n[representation]\n"
                    + body)
    out = tmp_path / "out"
    r = _run(["--config", str(conf), "--out", str(out), "spectrum"])
    assert r.returncode == 0, r.stderr
    assert len(wio.read_csv(str(out / "spectrum.csv"))[1]) >= 1


def test_file_character_matches_the_character_kind(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(_rep_json([[[1e-13]], [[1]], [[1]], [[1]]]))
    by_file = parse_config("[representation]\nkind = file\npath = %s\n" % rep)
    by_value = parse_config("[representation]\nkind = character\n"
                            "values = 1e-13, 1, 1, 1\n")
    a, b = by_file.representation, by_value.representation
    assert a.images.dtype == b.images.dtype == complex
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a._images_inv, b._images_inv)


@pytest.mark.parametrize("which", ["missing-config", "config-is-a-directory",
                                   "out-is-a-file"])
def test_cli_bad_path_at_load_is_a_config_error(tmp_path, which):
    conf = tmp_path / "exp.ini"
    conf.write_text("[run]\nL_max = 3.5\n")
    out = tmp_path / "out"
    if which == "missing-config":
        conf = tmp_path / "no_such.ini"
        bad = conf
    elif which == "config-is-a-directory":
        conf = bad = tmp_path
    else:
        out.write_text("")
        bad = out
    r = _run(["--config", str(conf), "--out", str(out), "enumerate"])
    assert r.returncode == 2, r.stderr
    assert str(bad) in r.stderr
    assert "Traceback" not in r.stderr
