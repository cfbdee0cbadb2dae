"""Non-split extensions of characters: an exact oracle for the rank-2,
non-unitary, non-semisimple path (ROADMAP item 14).

rho = [[chi1, c], [0, chi2]] is block triangular (`reference.extension_rep`),
so its twisted spectrum is spec(chi1) and spec(chi2) together and
tr rho = chi1 + chi2 on every class.  Both sides of the identity then have
an exact answer made of two rank-1 runs at the same level, with no
Richardson step and no discretization tolerance.  Measured at level 3:
the kept spectra match the unions to 1.3e-12, and the geometric sides add
up to 1.7e-15.
"""

import functools

import numpy as np
import pytest

from reference import extension_rep, flat_spectrum, nearest_gap, pencil_eigenvalues

from tracebench.analysis import TestFunction
from tracebench.errors import RelatorViolation
from tracebench.fuchsian import enumerate_classes
from tracebench.geomside import geometric_side
from tracebench.reps import character_rep
from tracebench.spectral import assemble, build_octagon_mesh, solve_spectrum

E03, UNITARY, SKEW = np.exp(0.3), np.exp(1j * np.pi / 3), 1.1 * np.exp(0.4j)

# (chi1, chi2) as values on a1; 1 on b1, a2, b2.  Equal characters give
# the unipotent twist [[1, c], [0, 1]]
_PAIRS = {"e03-unitary": (E03, UNITARY), "skew-e03": (SKEW, E03),
          "unipotent": (1, 1)}
_SEED = 7


def _character(z):
    return character_rep((z, 1, 1, 1))


def _extension(pair, **kwargs):
    z1, z2 = _PAIRS[pair]
    return extension_rep((z1, 1, 1, 1), (z2, 1, 1, 1), _SEED, **kwargs)


@pytest.fixture(scope="module")
def mesh3(group):
    return build_octagon_mesh(3, group)


@pytest.fixture(scope="module")
def classes7(group):
    return enumerate_classes(group, 7.0)


@pytest.fixture(scope="module")
def union(mesh3):
    """Every eigenvalue of the pencils of chi1 and chi2 together."""
    @functools.cache
    def spectrum(z):
        return pencil_eigenvalues(assemble(mesh3, _character(z)))

    return lambda z1, z2: np.concatenate([spectrum(z1), spectrum(z2)])


def _least(w, count):
    return w[np.lexsort((w.imag, w.real, np.abs(w)))[:count]]


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_spectrum_is_the_union_of_the_characters(mesh3, union, pair):
    z1, z2 = _PAIRS[pair]
    sys = assemble(mesh3, _extension(pair))
    count = sys.N_free // 4
    spec = solve_spectrum(sys, count)
    kept = flat_spectrum(spec)
    assert nearest_gap(kept, _least(union(z1, z2), count)) <= 1e-11
    if pair == "e03-unitary":
        # the check can fail: one character changed moves the union
        assert nearest_gap(kept, _least(union(np.exp(0.2), z2), count)) > 1e-3


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_geometric_sides_add_up(group, classes7, pair):
    z1, z2 = _PAIRS[pair]
    reps = (_extension(pair), _character(z1), _character(z2))
    for T in (4.0, 5.5, 7.0):
        f = TestFunction(T=T, k=2)
        total, one, two = (geometric_side(group, classes7, r, f, L_max=7.0).total
                           for r in reps)
        assert abs(total - one - two) <= 1e-13 * abs(total)


def test_broken_cocycle_is_rejected():
    with pytest.raises(RelatorViolation):
        _extension("e03-unitary", cocycle=False)
