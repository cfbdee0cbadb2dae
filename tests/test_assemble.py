import numpy as np
import pytest

from tracebench.errors import RelatorViolation
from tracebench.reps import Representation, character_rep, from_generator_images
from tracebench.spectral.assemble import assemble
from tracebench.spectral.mesh import build_octagon_mesh


def _trivial():
    return character_rep((1, 1, 1, 1))


def test_free_dof_count_and_constant_kernel(group):
    for level in (1, 2, 3):
        sys = assemble(build_octagon_mesh(level, group), _trivial())
        assert sys.N_free == 4 * 4**level - 2
        # constants lie in the kernel of the glued stiffness
        row_sums = np.abs(np.asarray(sys.K.sum(axis=1))).max()
        assert row_sums <= 1e-12 * np.abs(sys.K.data).max()
        assert sys.is_hermitian


def test_total_mass_is_hyperbolic_area(group):
    # sum over the constrained basis is the constant 1, so 1^T M 1 is the
    # area of the (polygonally approximated) fundamental domain
    for level, tol in ((3, 0.02), (4, 0.005)):
        sys = assemble(build_octagon_mesh(level, group), _trivial())
        ones = np.ones(sys.N_free)
        area = float(np.real(ones @ (sys.M @ ones)))
        assert abs(area - 4 * np.pi) <= tol * 4 * np.pi


def test_unitary_character_exactly_hermitian(group):
    mesh = build_octagon_mesh(2, group)
    sys = assemble(mesh, character_rep((np.exp(1j * np.pi / 3), 1, 1, 1)))
    assert sys.is_hermitian
    K = sys.K.toarray()
    M = sys.M.toarray()
    assert np.abs(K - K.conj().T).max() == 0.0
    assert np.abs(M - M.conj().T).max() == 0.0
    np.linalg.cholesky(M)  # positive definite


def test_nonunitary_breaks_hermitian_symmetry(group):
    mesh = build_octagon_mesh(2, group)
    sys = assemble(mesh, character_rep((np.exp(0.3), 1, 1, 1)))
    assert not sys.is_hermitian
    K = sys.K.toarray()
    rel = np.abs(K - K.conj().T).max() / np.abs(K).max()
    assert rel > 1e-3  # genuine, not roundoff


def test_rank2_trivial_decouples(group):
    mesh = build_octagon_mesh(2, group)
    eye = np.eye(2)
    sys2 = assemble(mesh, from_generator_images([eye, eye, eye, eye]))
    sys1 = assemble(mesh, _trivial())
    assert sys2.N_free == 2 * sys1.N_free
    K2 = sys2.K.toarray()
    assert np.array_equal(K2[0::2, 0::2], sys1.K.toarray())
    assert np.abs(K2[0::2, 1::2]).max() == 0.0


def test_fuchsian_rep_passes_corner_cycle(group):
    # the 2-dim defining rep has relator residual ~1e-15, so the corner
    # cycle consistency check must accept it
    mesh = build_octagon_mesh(1, group)
    sys = assemble(mesh, from_generator_images(group.generators))
    assert sys.d == 2
    assert sys.N_free == 2 * (4 * 4 - 2)


def test_sloppy_relator_rejected(group):
    gens = [m.copy() for m in group.generators]
    gens[0][0, 1] += 3e-6
    gens[1][1, 0] += 2e-6
    # the record itself is the gate, so no such rep reaches assembly
    with pytest.raises(RelatorViolation, match="relator residual"):
        Representation(gens)


def test_assembly_deterministic(group):
    mesh = build_octagon_mesh(2, group)
    r = character_rep((np.exp(0.3), 1, 1, 1))
    a = assemble(mesh, r)
    b = assemble(mesh, r)
    assert np.array_equal(a.K.toarray(), b.K.toarray())
    assert np.array_equal(a.M.toarray(), b.M.toarray())
