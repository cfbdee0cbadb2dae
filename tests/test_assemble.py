import numpy as np
import pytest

from reference import nearest_gap, pencil_eigenvalues

from tracebench.errors import RelatorViolation
from tracebench.reps import Representation, _word_image, character_rep
from tracebench.spectral.assemble import _constraint, _identifications, assemble
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


@pytest.mark.parametrize(
    "chi, dtype",
    [(1, np.float64), (np.exp(0.3), np.float64), (None, np.float64),
     (np.exp(1j * np.pi / 3), np.complex128)],
    ids=["trivial", "e03", "holonomy", "unitary"],
)
def test_pencil_field_is_decided_at_assembly(group, chi, dtype):
    # a real representation gives a real pencil, stored as float64 with
    # contiguous data (SuperLU refuses a strided view); a complex one stays
    # complex128.  None stands for the rank-2 holonomy representation
    if chi is None:
        r = Representation(group.generators)
    else:
        r = character_rep((chi, 1, 1, 1))
    sys = assemble(build_octagon_mesh(2, group), r)
    for m in (sys.K, sys.M):
        assert m.dtype == dtype
        assert m.data.flags["C_CONTIGUOUS"]


def test_rank2_trivial_decouples(group):
    mesh = build_octagon_mesh(2, group)
    eye = np.eye(2)
    sys2 = assemble(mesh, Representation([eye, eye, eye, eye]))
    sys1 = assemble(mesh, _trivial())
    assert sys2.N_free == 2 * sys1.N_free
    K2 = sys2.K.toarray()
    assert np.array_equal(K2[0::2, 0::2], sys1.K.toarray())
    assert np.abs(K2[0::2, 1::2]).max() == 0.0


def test_fuchsian_rep_passes_corner_cycle(group):
    # the 2-dim defining rep has relator residual ~1e-15, and the corner
    # cycle is the relator, so it glues into one corner fibre
    mesh = build_octagon_mesh(1, group)
    sys = assemble(mesh, Representation(group.generators))
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


@pytest.mark.parametrize("which", ["character", "holonomy", "far"])
def test_slave_carries_inverse_pairing_image(group, which):
    # the gluing convention: a slave node of side k carries chi(g_k)^-1
    # times its master's value, on every side, tree and cycle edges alike;
    # with chi(g_0) = a1 = 2 the slaves of side 0 get half their masters'.
    # "far" is a character whose pairing images reach 1e8
    if which == "character":
        r = character_rep((2.0, 3.0, 1.5j, 0.7 * np.exp(0.4j)))
    elif which == "far":
        r = character_rep((1e4, 1e-4, 1e-4, 1e-4))
    else:
        r = Representation(group.generators)
    mesh = build_octagon_mesh(2, group)
    _, factor = _identifications(mesh, r)
    for k, master, slave in mesh.boundary_pairing:
        chi_inv = np.linalg.inv(_word_image(r, group.pairing_words[k]))
        want = chi_inv @ factor[master]
        assert np.abs(factor[slave] - want).max() <= 1e-12 * np.abs(want).max()
    if which == "character":
        _, master, slave = mesh.boundary_pairing[0]
        assert np.allclose(factor[slave] / factor[master], 0.5)


def test_inverse_character_has_the_same_spectrum(group):
    # chi and chi^-1 glue transposed problems, so the trace identity cannot
    # tell the gluing convention from its inverse (ROADMAP item 7)
    vals = (1.1 * np.exp(0.4j), 1.2, 0.8 * np.exp(-0.3j), 0.9)
    mesh = build_octagon_mesh(3, group)
    spectra = [pencil_eigenvalues(assemble(mesh, character_rep(v)))
               for v in (vals, [1 / v for v in vals])]
    assert nearest_gap(*spectra) <= 1e-11


@pytest.mark.parametrize("which", ["unitary", "holonomy"])
def test_constraint_maps_free_to_nodal_values(group, which, rng):
    # C x reproduces u[node] = X[node] @ u[root[node]] on every node, for
    # the trial factors and the inverse-adjoint test factors alike
    if which == "unitary":
        r = character_rep((np.exp(1j * np.pi / 3), 1, 1, 1))
    else:
        r = Representation(group.generators)
    mesh = build_octagon_mesh(3, group)
    root, factor = _identifications(mesh, r)
    n, d = root.size, r.dim
    free = np.flatnonzero(root == np.arange(n))
    for X in (factor, np.linalg.inv(factor.conj().transpose(0, 2, 1))):
        C = _constraint(root, X)
        assert C.shape == (n * d, free.size * d)
        x = rng.standard_normal((free.size, d, 2)) @ np.array([1, 1j])
        u = np.zeros((n, d), dtype=complex)
        u[free] = x
        want = np.einsum("nij,nj->ni", X, u[root])
        got = (C @ x.ravel()).reshape(n, d)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
