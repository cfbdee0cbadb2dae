# Pin BLAS threading before numpy gets imported anywhere, so test runs are
# reproducible regardless of the host's core count.
import os

for _v in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_v, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tracebench.fuchsian import bolza_preset, enumerate_classes  # noqa: E402


@pytest.fixture(scope="session")
def group():
    return bolza_preset()


@pytest.fixture(scope="session")
def classes_L6(group):
    return enumerate_classes(group, 6.0)


@pytest.fixture(scope="session")
def classes_L62(group):
    # just past twice the systole: the first power-2 classes appear
    return enumerate_classes(group, 6.2)


@pytest.fixture()
def rng():
    # fresh generator per test so draws do not depend on execution order
    return np.random.default_rng(20240817)
