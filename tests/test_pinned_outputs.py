"""The benchmark's hashed outputs, byte for byte.

Each case runs the CLI in-process on a benchmark input, from the repository
root (the inputs name the representation file relative to it), and compares
the sha256 of the output the benchmark hashes with the one recorded in
`perfbench/baseline.json`.  A change to the bits of `lengths.csv`,
`verify.json` or `spectrum.csv` fails here before the benchmark rejects it.
`perfbench/` is read, never written: outputs go to a temporary directory.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tracebench.workbench import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize(
    "workload, command, output",
    [
        ("lengths-l7-rank2", "enumerate", "lengths.csv"),
        ("verify-l4-e03", "verify", "verify.json"),
        pytest.param("spectrum-l5-trivial", "spectrum", "spectrum.csv",
                     marks=pytest.mark.slow),
    ],
    ids=["lengths-l7-rank2", "verify-l4-e03", "spectrum-l5-trivial"],
)
def test_output_hashes_as_recorded(workload, command, output, tmp_path, monkeypatch):
    want = json.loads((BENCH / "baseline.json").read_text())[workload]["sha256"][output]
    monkeypatch.chdir(ROOT)
    config = BENCH / "inputs" / ("%s.ini" % workload)
    assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == want


# sha256 of lengths.csv from `tracebench enumerate` at the largest accepted
# cutoff, L_max 7.25, with the default config otherwise; recorded from the
# quadratic axis filter that the hyperboloid's linear form replaced.  The
# benchmark hashes the class table at L_max 7 only.
CAP_LENGTHS_SHA256 = "b430ac8239109e1c1856e9f82aca46bc6119070d53f56594112cc0fc73a7d7ef"


def test_class_table_at_the_cap_hashes_as_recorded(tmp_path):
    from tracebench.fuchsian import L_MAX_CAP

    config = tmp_path / "cap.ini"
    config.write_text("[run]\nL_max = %r\n" % L_MAX_CAP)
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "enumerate"]) == 0
    got = hashlib.sha256((out / "lengths.csv").read_bytes()).hexdigest()
    assert got == CAP_LENGTHS_SHA256
