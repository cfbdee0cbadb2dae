import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackNoConvergence

from tracebench.errors import ShiftTooCloseToEigenvalue, SolverNotConverged
from tracebench.reps import character_rep, from_generator_images
from tracebench.spectral import solve
from tracebench.spectral.assemble import AssembledSystem, assemble
from tracebench.spectral.mesh import build_octagon_mesh
from tracebench.spectral.solve import solve_spectrum
from tracebench.workbench.cli import main

from reference import conjugate_rep, dense_eig_copying, similar_rep

# one twist per dense branch: real Hermitian, real non-Hermitian (a
# non-unitary character), complex Hermitian (a unitary one), complex
# non-Hermitian (a non-unitary complex one)
_TWISTS = {"trivial": 1, "e03": np.exp(0.3), "unitary": np.exp(1j * np.pi / 3),
           "skew": 1.1 * np.exp(0.4j)}


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


@pytest.mark.parametrize("twist", ["trivial", "e", "fuchsian"])
def test_sparse_path_matches_dense(group, twist, monkeypatch):
    # the non-unitary twists give a pencil whose M is not Hermitian, which
    # ARPACK's generalized mode cannot take
    if twist == "fuchsian":
        r = from_generator_images(group.generators)
    else:
        r = character_rep((np.e if twist == "e" else 1, 1, 1, 1))
    sys = assemble(build_octagon_mesh(3, group), r)
    dense = _flat(solve_spectrum(sys, 40))
    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    sparse = _flat(solve_spectrum(sys, 40))
    assert sparse.size == dense.size
    # nearest-neighbour match both ways: (Re, Im) order can swap the two
    # members of a conjugate pair whose real parts tie
    gap = np.abs(sparse[:, None] - dense[None, :])
    assert np.all(gap.min(axis=1) <= 1e-10 * (1 + np.abs(sparse)))
    assert np.all(gap.min(axis=0) <= 1e-10 * (1 + np.abs(dense)))


def test_real_pencil_factors_and_iterates_in_float64(group, monkeypatch):
    # a real non-Hermitian pencil takes real SuperLU and real ARPACK
    # (dnaupd), not their complex forms
    sys = assemble(build_octagon_mesh(3, group),
                   character_rep((np.exp(0.3), 1, 1, 1)))
    seen = {}
    splu, eigs = spla.splu, spla.eigs

    def spy_splu(A, *args, **kwargs):
        seen["splu"] = A.dtype
        return splu(A, *args, **kwargs)

    def spy_eigs(A, *args, **kwargs):
        seen["eigs"] = A.dtype
        return eigs(A, *args, **kwargs)

    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    monkeypatch.setattr(spla, "splu", spy_splu)
    monkeypatch.setattr(spla, "eigs", spy_eigs)
    solve_spectrum(sys, 40)
    assert seen == {"splu": np.float64, "eigs": np.float64}


def test_shift_on_eigenvalue_exhausts_retries(monkeypatch):
    # diag pencil with eigenvalues 0 and 1e-3: the shift 0 and the nudged
    # retry 1e-3 both make K - shift*M exactly singular
    n = 50
    diag = np.arange(2.0, n + 2.0)
    diag[0] = 0.0
    diag[1] = 1e-3
    K = sp.diags(diag).tocsr()
    M = sp.identity(n, format="csr")
    sys = AssembledSystem(K=K, M=M, d=1, N_free=n, is_hermitian=True,
                          mesh_h=0.1)
    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    with pytest.raises(ShiftTooCloseToEigenvalue):
        solve_spectrum(sys, 5)


def test_arnoldi_iteration_cap(sys3, monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("iteration cap reached", np.empty(0),
                                  np.empty((0, 0)))

    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    monkeypatch.setattr(spla, "eigsh", stalled)
    with pytest.raises(SolverNotConverged):
        solve_spectrum(sys3, 6)


@pytest.mark.parametrize("routine", ["eigsh", "eigs"])
def test_arpack_error_is_not_a_shift_failure(group, routine, monkeypatch):
    # an ARPACK failure other than no convergence must not be retried with
    # a nudged shift and then blamed on the shift
    def failed(*args, **kwargs):
        raise spla.ArpackError(3, {3: "No shifts could be applied"})

    hermitian = routine == "eigsh"
    r = character_rep((1 if hermitian else np.e, 1, 1, 1))
    sys = assemble(build_octagon_mesh(2, group), r)
    assert sys.is_hermitian == hermitian
    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    monkeypatch.setattr(spla, routine, failed)
    with pytest.raises(SolverNotConverged, match="No shifts could be applied"):
        solve_spectrum(sys, 6)


# counts at level 3 that keep the lower member of a conjugate pair of the
# e^0.3 pencil and drop the upper one
_SPLIT_COUNTS = (11, 13, 15, 24, 36, 40, 47, 49, 62)


@pytest.mark.parametrize(
    "twist,count",
    [pytest.param(t, None, id=t) for t in sorted(_TWISTS) + ["holonomy"]]
    + [pytest.param("e03", c, id="e03-%d" % c) for c in _SPLIT_COUNTS],
)
def test_in_place_dense_solve_is_bit_identical(group, twist, count):
    # holonomy: the real non-Hermitian pencil of a d = 2 representation
    if twist == "holonomy":
        r = from_generator_images(group.generators)
    else:
        r = character_rep((_TWISTS[twist], 1, 1, 1))
    sys = assemble(build_octagon_mesh(3, group), r)
    count = count or sys.N_free // 4
    w, v = solve._dense_eig(sys.K, sys.M, sys.is_hermitian, count)
    w_ref, v_ref = dense_eig_copying(sys.K, sys.M, sys.is_hermitian, count)
    assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    if count in _SPLIT_COUNTS:
        lone = [z for z in w if z.imag != 0 and np.conj(z) not in w]
        assert lone and all(z.imag < 0 for z in lone)


@pytest.mark.parametrize("twist", sorted(_TWISTS))
def test_dense_solve_peak_memory(group, twist):
    # a Hermitian pencil: one dense copy each of K and M plus LAPACK's
    # workspace and outputs, about 4 n^2 items (6 n^2 when f2py copies the
    # inputs).  A non-Hermitian one holds M^-1 K and the eigenvectors, and
    # a real one builds complex vectors only for the kept columns: 2.13 n^2
    sys = assemble(build_octagon_mesh(4, group),
                   character_rep((_TWISTS[twist], 1, 1, 1)))
    item = sys.K.dtype.itemsize
    bound = 4.25 if sys.is_hermitian else 2.25
    tracemalloc.start()
    try:
        solve._dense_eig(sys.K, sys.M, sys.is_hermitian, sys.N_free // 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * sys.N_free**2 * item


_FAILING_CONF = """
[run]
level = 2
count = 10
out_dir = {out}

[representation]
kind = character
values = 1.35, 1, 1, 1

[test_function.narrow]
T = 2.0
k = 2
"""


def test_dense_solve_failure_is_a_solver_error(group, tmp_path, monkeypatch):
    # a geev that does not converge reports info > 0: a numerical failure,
    # exit 3, not a validation error
    get = sla.get_lapack_funcs

    def failing(names, arrays):
        geev, geev_lwork = get(names, arrays)

        def stalled(*args, **kwargs):
            return geev(*args, **kwargs)[:-1] + (1,)

        stalled.typecode = geev.typecode
        return stalled, geev_lwork

    monkeypatch.setattr(sla, "get_lapack_funcs", failing)
    sys = assemble(build_octagon_mesh(2, group),
                   character_rep((np.exp(0.3), 1, 1, 1)))
    with pytest.raises(SolverNotConverged, match="geev"):
        solve_spectrum(sys, 10)
    conf = tmp_path / "exp.ini"
    conf.write_text(_FAILING_CONF.format(out=tmp_path / "out"))
    assert main(["--config", str(conf), "spectrum"]) == 3


def test_hermitian_dense_failure_is_a_solver_error(sys3, monkeypatch):
    def failed(*args, **kwargs):
        raise np.linalg.LinAlgError("the leading minor of order 3 of B is "
                                    "not positive definite")

    monkeypatch.setattr(sla, "eigh", failed)
    with pytest.raises(SolverNotConverged, match="leading minor"):
        solve_spectrum(sys3, 10)
