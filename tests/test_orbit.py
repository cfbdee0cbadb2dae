"""The octagon's rotation and reflection as exact checks on both sides.

The rotation sigma by pi/4 maps the mesh onto itself and each side
pairing onto the next, so it acts on twists: (sigma.chi)(g_k) =
chi(g_{k-1}).  The twisted Laplacians of chi and sigma.chi are unitarily
equivalent, and sigma permutes the conjugacy classes without changing
their lengths, so the spectrum and the geometric side are constant on
every orbit, to rounding, whether or not chi is unitary.  The twist moves
from one side pairing to the next, so an error in one pairing's gluing,
one class family's traces or the pairing words breaks the equality.  The
reflection rho: z -> -conj(z) acts the same way, (rho.chi)(g_k) =
chi(g_{-k}).
"""

import numpy as np
import pytest

from reference import (
    character_of_pairings,
    nearest_gap,
    pairing_values,
    pencil_eigenvalues,
    reflect_character,
    rotate_character,
)

from tracebench.analysis import TestFunction
from tracebench.fuchsian import enumerate_classes
from tracebench.geomside import geometric_side
from tracebench.reps import character_rep
from tracebench.spectral import assemble, build_octagon_mesh

_L_MAX = 7.0
_FNS = [TestFunction(T=t, k=2) for t in (4.0, 5.5, 7.0)]


@pytest.fixture(scope="module")
def classes_L7(group):
    return enumerate_classes(group, _L_MAX)


@pytest.fixture(scope="module")
def mesh3(group):
    return build_octagon_mesh(3, group)


def _spectrum(mesh, r):
    return pencil_eigenvalues(assemble(mesh, r))


def _geometric(group, classes, r):
    return np.array(
        [geometric_side(group, classes, r, f, _L_MAX).total for f in _FNS]
    )


def test_pairing_values_round_trip(group):
    c = (1.1 * np.exp(0.4j), 1.2, 0.8 * np.exp(-0.3j), 0.9)
    assert np.allclose(pairing_values(group, character_of_pairings(c)), c,
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "chi", [np.exp(0.3), np.exp(1j * np.pi / 3), 1.1 * np.exp(0.4j)],
    ids=["e03", "unitary", "mixed"],
)
def test_both_sides_constant_on_the_orbit(group, classes_L7, mesh3, chi):
    r = character_rep((chi, 1, 1, 1))
    spec = _spectrum(mesh3, r)
    geo = _geometric(group, classes_L7, r)
    member = r
    for _ in range(7):
        member = rotate_character(group, member)
        assert nearest_gap(spec, _spectrum(mesh3, member)) <= 1e-11
        dev = np.abs(_geometric(group, classes_L7, member) - geo) / np.abs(geo)
        assert dev.max() <= 1e-12
    # eight steps close the orbit
    back = rotate_character(group, member)
    assert np.allclose(back.images, r.images, rtol=1e-14, atol=0)


def test_a_twist_outside_the_orbit_differs(group, classes_L7, mesh3):
    # pairing values (1, e^0.3, 1, e^-0.3) move two pairings, no member of
    # e^0.3's orbit moves more than one, so the check can fail
    r = character_rep((np.exp(0.3), 1, 1, 1))
    out = character_of_pairings((1, np.exp(0.3), 1, np.exp(-0.3)))
    spec_gap = nearest_gap(_spectrum(mesh3, r), _spectrum(mesh3, out))
    geo, geo_out = (_geometric(group, classes_L7, x) for x in (r, out))
    geo_gap = np.max(np.abs(geo_out - geo) / np.abs(geo))
    print("outside the orbit: spectrum %.2e, geometric side %.2e"
          % (spec_gap, geo_gap))
    assert spec_gap > 1e-3
    assert geo_gap > 1e-3


@pytest.mark.parametrize(
    "chi", [np.exp(0.3), np.exp(1j * np.pi / 3), 1.1 * np.exp(0.4j)],
    ids=["e03", "unitary", "mixed"],
)
def test_both_sides_invariant_under_the_reflection(group, classes_L7, mesh3,
                                                   chi):
    # the twist sits on b1: a twist on a1 alone has pairing values
    # (z, 1, 1, 1), which the reflection fixes, so it would test nothing.
    # On b1 the values are (1, 1/z, 1/z, 1/z) and rho.chi is chi^-1
    r = character_rep((1, chi, 1, 1))
    ref = reflect_character(group, r)
    assert not np.allclose(ref.images, r.images)
    spec, spec_ref = _spectrum(mesh3, r), _spectrum(mesh3, ref)
    assert nearest_gap(spec, spec_ref) <= 1e-11
    geo, geo_ref = (_geometric(group, classes_L7, x) for x in (r, ref))
    assert np.max(np.abs(geo_ref - geo) / np.abs(geo)) <= 1e-12
    back = reflect_character(group, ref)
    assert np.allclose(back.images, r.images, rtol=1e-14, atol=0)
    # the same twist on a2 is not a reflection of it: the check can fail
    off = _spectrum(mesh3, character_rep((1, 1, chi, 1)))
    assert nearest_gap(spec_ref, off) > 1e-3


def test_a_reflection_that_is_not_the_inverse(group, classes_L7, mesh3):
    # a twist on two pairings: the reflection reverses their order, so
    # (1, e^0.3, e^0.2i, 1) goes to (1, 1, e^-0.2i, e^-0.3), while chi^-1
    # has (1, e^-0.3, e^-0.2i, 1)
    c = (1, np.exp(0.3), np.exp(0.2j), 1)
    r = character_of_pairings(c)
    ref = reflect_character(group, r)
    values = pairing_values(group, ref)
    assert np.allclose(values, (1, 1, np.exp(-0.2j), np.exp(-0.3)),
                       rtol=1e-14, atol=0)
    assert not np.allclose(values, np.reciprocal(c))
    spec = _spectrum(mesh3, r)
    assert nearest_gap(spec, _spectrum(mesh3, ref)) <= 1e-11
    geo, geo_ref = (_geometric(group, classes_L7, x) for x in (r, ref))
    assert np.max(np.abs(geo_ref - geo) / np.abs(geo)) <= 1e-12
    # the same two values one pairing apart: no symmetry of the octagon
    # makes them adjacent, so the check can fail
    out = character_of_pairings((1, np.exp(0.3), 1, np.exp(0.2j)))
    assert nearest_gap(spec, _spectrum(mesh3, out)) > 1e-3
