# Pin BLAS to one thread before numpy gets imported anywhere, by the CLI's
# own rule (it overrides the caller's setting), so test runs reproduce CLI
# runs bit for bit.  The cli module imports no numpy at its top level.
from tracebench.workbench.cli import _pin_threads

_pin_threads()

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
