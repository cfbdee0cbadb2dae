import numpy as np
import pytest
import scipy.sparse as sp

from tracebench.errors import ShiftTooCloseToEigenvalue, SolverNotConverged
from tracebench.reps import (
    character_rep,
    conjugate_rep,
    from_generator_images,
    similar_rep,
)
from tracebench.spectral.assemble import AssembledSystem, assemble
from tracebench.spectral.mesh import build_octagon_mesh
from tracebench.spectral.solve import solve_spectrum


def _flat(spec):
    return np.concatenate([[lam] * m for lam, m, _ in spec.eigenvalues])


@pytest.fixture(scope="module")
def sys3(group):
    return assemble(build_octagon_mesh(3, group), character_rep((1, 1, 1, 1)))


def test_trivial_ground_state(sys3):
    spec = solve_spectrum(sys3, 30)
    lam0, m0, res0 = spec.eigenvalues[0]
    scale = np.abs(sys3.K.data).max()
    assert abs(lam0) <= 1e-8 * scale
    assert m0 == 1
    assert res0 <= 1e-8 * scale


def test_count_and_ordering_and_residuals(sys3):
    spec = solve_spectrum(sys3, 40)
    assert sum(m for _, m, _ in spec.eigenvalues) == 40
    flat = _flat(spec)
    keys = [(z.real, z.imag) for z in flat]
    assert keys == sorted(keys)
    scale = np.abs(sys3.K.data).max()
    for lam, _, res in spec.eigenvalues:
        assert res <= 1e-8 * (1 + abs(lam)) * scale


def test_trust_region_guard(sys3):
    with pytest.raises(ValueError):
        solve_spectrum(sys3, sys3.N_free // 4 + 1)
    with pytest.raises(ValueError):
        solve_spectrum(sys3, 0)


def test_d_copies_double_multiplicities(group):
    mesh = build_octagon_mesh(3, group)
    s1 = solve_spectrum(assemble(mesh, character_rep((1, 1, 1, 1))), 30)
    eye = np.eye(2)
    s2 = solve_spectrum(assemble(mesh, from_generator_images([eye] * 4)), 60)
    assert len(s1.eigenvalues) == len(s2.eigenvalues)
    for (l1, m1, _), (l2, m2, _) in zip(s1.eigenvalues, s2.eigenvalues):
        assert m2 == 2 * m1
        assert abs(l1 - l2) <= 1e-9 * (1 + abs(l1))


def test_conjugate_rep_mirrors_spectrum(group):
    r = character_rep((1.1 * np.exp(0.4j), 1, 1, 1))
    mesh = build_octagon_mesh(3, group)
    s = solve_spectrum(assemble(mesh, r), 40)
    sc = solve_spectrum(assemble(mesh, conjugate_rep(r)), 40)
    a = _flat(s)
    b = np.conj(_flat(sc))
    b = b[np.lexsort((b.imag, b.real))]
    assert np.all(np.abs(a - b) <= 1e-8 * (1 + np.abs(a)))


def test_similarity_leaves_spectrum(group, rng):
    r = from_generator_images(group.generators)
    p = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    cond = np.linalg.cond(p)
    mesh = build_octagon_mesh(2, group)
    s1 = _flat(solve_spectrum(assemble(mesh, r), 20))
    s2 = _flat(solve_spectrum(assemble(mesh, similar_rep(r, p)), 20))
    assert np.all(np.abs(s1 - s2) <= 1e-7 * (1 + np.abs(s1)) * cond)


def test_unitary_spectrum_real_and_bounded_below(group):
    mesh = build_octagon_mesh(3, group)
    sys = assemble(mesh, character_rep((np.exp(1j * np.pi / 3), 1, 1, 1)))
    spec = solve_spectrum(sys, 40)
    flat = _flat(spec)
    scale = np.abs(sys.K.data).max()
    assert np.all(np.abs(flat.imag) <= 1e-8 * (1 + np.abs(flat)))
    assert flat.real.min() >= -1e-8 * scale


def test_agmon_strip_stable_across_refinement(group):
    # empirical spectral-sector bound for a fixed non-unitary character:
    # the fitted strip max |Im sqrt(lam)| should not drift by more than
    # a factor of two between successive levels
    r = character_rep((np.exp(0.3), 1, 1, 1))
    strips = []
    for level, count in ((3, 60), (4, 250)):
        spec = solve_spectrum(assemble(build_octagon_mesh(level, group), r), count)
        roots = np.sqrt(_flat(spec) - 0.25)
        strips.append(np.abs(roots.imag).max())
    assert 0.5 <= strips[1] / strips[0] <= 2.0


# first nonzero eigenvalue of the Bolza surface, a triple (Strohmaier &
# Uski, Comm. Math. Phys. 317, 2013); an anchor independent of this code
LAMBDA1_BOLZA = 3.83888725884


def test_lambda1_converges_to_bolza_value(group, sys3):
    # the mean of eigenvalues 2-4 approaches the triple; per-cluster
    # multiplicities are split by the discretization, so only the mean
    # is compared
    r = character_rep((1, 1, 1, 1))
    errs = []
    for sys in (sys3, assemble(build_octagon_mesh(4, group), r)):
        mean = _flat(solve_spectrum(sys, 20))[1:4].real.mean()
        errs.append(abs(mean - LAMBDA1_BOLZA) / LAMBDA1_BOLZA)
    assert errs[1] <= 6e-3
    assert errs[0] / errs[1] >= 3.0


def test_sparse_path_matches_dense(sys3):
    dense = _flat(solve_spectrum(sys3, 6, shift=0.0))
    sparse = _flat(solve_spectrum(sys3, 6, shift=0.0, dense_cutoff=0))
    assert np.all(np.abs(dense - sparse) <= 1e-7 * (1 + np.abs(dense)))


def test_shift_on_eigenvalue_exhausts_retries():
    # diag pencil with eigenvalues 1 and 1.002: the initial shift and the
    # nudged retry both make K - shift*M exactly singular
    n = 50
    diag = np.arange(2.0, n + 2.0)
    diag[0] = 1.0
    diag[1] = 1.002
    K = sp.diags(diag).tocsr().astype(complex)
    M = sp.identity(n, format="csr", dtype=complex)
    sys = AssembledSystem(K=K, M=M, d=1, N_free=n, is_hermitian=True,
                          mesh_h=0.1)
    with pytest.raises(ShiftTooCloseToEigenvalue):
        solve_spectrum(sys, 5, shift=1.0, dense_cutoff=0)


def test_arnoldi_iteration_cap(sys3):
    with pytest.raises(SolverNotConverged):
        solve_spectrum(sys3, 6, shift=0.05, dense_cutoff=0, maxiter=1)
