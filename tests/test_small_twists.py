"""A second-order anchor for non-unitary characters (ROADMAP item 12).

For chi = exp(t p) with small real periods p on (a1, b1, a2, b2),
conjugating the flat Laplacian by the exponential of a primitive of the
harmonic 1-form alpha with periods t p gives Delta# ~ Delta - 2<alpha, grad>
- |alpha|^2, so lambda0 = -t^2 p^T Q p / (4 pi) + O(t^4), and the unitary
exp(i t p) gives +t^2 p^T Q p / (4 pi).  Q is the Gram matrix of the
harmonic 1-forms indexed by their periods.  Q* below is what the P1
solves measure; it is symplectic with eigenvalues sqrt(2) +- 1, as such a
Gram matrix must be, but it is not yet derived from the period matrix of
the Bolza curve.

The lowest eigenvalue comes from one shift-invert ARPACK call with k = 1:
`solve_spectrum` would run the dense path, about a minute at level 5 for
a non-Hermitian pencil.
"""

import sys

import numpy as np
import pytest

from tracebench.reps import character_rep
from tracebench.spectral import solve
from tracebench.spectral.assemble import assemble
from tracebench.spectral.mesh import build_octagon_mesh

Q_STAR = np.array([[2, 0, -1, -1], [0, 2, -1, 1],
                   [-1, -1, 2, 0], [-1, 1, 0, 2]]) / np.sqrt(2)


@pytest.fixture(scope="module")
def meshes(group):
    return {level: build_octagon_mesh(level, group) for level in (4, 5)}


def _lambda0(mesh, values):
    pencil = assemble(mesh, character_rep(values))
    w, _ = solve._sparse_eig(pencil.K, pencil.M, pencil.is_hermitian, 1)
    return complex(w[0])


def _coefficient(meshes, p, t=0.05):
    """-4 pi lambda0 / t^2 for exp(t p) at levels 4 and 5, Richardson-
    extrapolated at order 2 (h halves from one level to the next)."""
    q4, q5 = (-4 * np.pi * _lambda0(meshes[level], np.exp(t * p)).real / t**2
              for level in (4, 5))
    return (4 * q5 - q4) / 3


# measured: sqrt(2) + 8.4e-5 and 2 sqrt(2) + 2.0e-4
@pytest.mark.parametrize("p", [(1, 0, 0, 0), (1, 1, 0, 0)], ids=["e1", "e1+e2"])
def test_lowest_eigenvalue_follows_the_period_gram_matrix(meshes, p):
    p = np.array(p, dtype=float)
    assert abs(_coefficient(meshes, p) - p @ Q_STAR @ p) <= 5e-4


def test_real_and_unitary_twists_cancel_to_fourth_order(meshes):
    # |lambda0(e^t) + lambda0(e^{it})| on a1, level 4: 2.123e-7 at t = 0.1,
    # 1.327e-8 at t = 0.05, a ratio of 16.0
    def gap(t):
        return abs(_lambda0(meshes[4], (np.exp(t), 1, 1, 1))
                   + _lambda0(meshes[4], (np.exp(1j * t), 1, 1, 1)))

    assert 14 <= gap(0.1) / gap(0.05) <= 18


def test_anchor_catches_galerkin_test_side(meshes, monkeypatch):
    # the planted defect of ROADMAP item 7: the test constraints carry chi,
    # not its inverse-adjoint, because every twist counts as unitary.  The
    # pencil is then symmetric, lambda0 > 0, and the coefficient comes out
    # near -1.41305, 2.8 off.  `tracebench.spectral.assemble` is the
    # function that the package re-exports, so the module is looked up here
    module = sys.modules["tracebench.spectral.assemble"]
    monkeypatch.setattr(module, "unitarity_defect", lambda r: 0.0)
    p = np.array([1.0, 0, 0, 0])
    assert abs(_coefficient(meshes, p) - p @ Q_STAR @ p) > 5e-4
