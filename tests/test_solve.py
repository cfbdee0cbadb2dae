import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackNoConvergence

from tracebench.errors import SolverNotConverged
from tracebench.reps import Representation, character_rep
from tracebench.spectral import solve
from tracebench.spectral.assemble import AssembledSystem, assemble
from tracebench.spectral.mesh import build_octagon_mesh
from tracebench.spectral.solve import solve_spectrum
from tracebench.workbench.cli import main

from reference import (conjugate_rep, dense_eig_copying, flat_spectrum,
                       pencil_residuals_complex, similar_rep)

# scipy's ARPACK wrapper, whose eigsh factors K - sigma M with its own splu
_ARPACK = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")

# one twist per dense branch: real Hermitian, real non-Hermitian (a
# non-unitary character), complex Hermitian (a unitary one), complex
# non-Hermitian (a non-unitary complex one)
_TWISTS = {"trivial": 1, "e03": np.exp(0.3), "unitary": np.exp(1j * np.pi / 3),
           "skew": 1.1 * np.exp(0.4j)}

# a unitary d = 2 representation that is not real: a complex Hermitian
# pencil of twice a character's size
_UNITARY_D2 = Representation(
    [np.diag(np.exp(1j * np.pi / np.array([3, 5]))), np.eye(2),
     np.diag([1, np.exp(0.7j)]), np.eye(2)])


def _twist_rep(twist):
    if twist == "unitary-d2":
        return _UNITARY_D2
    return character_rep((_TWISTS[twist], 1, 1, 1))


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
    flat = flat_spectrum(spec)
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
    s2 = solve_spectrum(assemble(mesh, Representation([eye] * 4)), 60)
    assert len(s1.eigenvalues) == len(s2.eigenvalues)
    for (l1, m1, _), (l2, m2, _) in zip(s1.eigenvalues, s2.eigenvalues):
        assert m2 == 2 * m1
        assert abs(l1 - l2) <= 1e-9 * (1 + abs(l1))


def test_conjugate_rep_mirrors_spectrum(group):
    r = character_rep((1.1 * np.exp(0.4j), 1, 1, 1))
    mesh = build_octagon_mesh(3, group)
    s = solve_spectrum(assemble(mesh, r), 40)
    sc = solve_spectrum(assemble(mesh, conjugate_rep(r)), 40)
    a = flat_spectrum(s)
    b = np.conj(flat_spectrum(sc))
    b = b[np.lexsort((b.imag, b.real))]
    assert np.all(np.abs(a - b) <= 1e-8 * (1 + np.abs(a)))


def test_similarity_leaves_spectrum(group, rng):
    r = Representation(group.generators)
    p = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    cond = np.linalg.cond(p)
    mesh = build_octagon_mesh(2, group)
    s1 = flat_spectrum(solve_spectrum(assemble(mesh, r), 20))
    s2 = flat_spectrum(solve_spectrum(assemble(mesh, similar_rep(r, p)), 20))
    assert np.all(np.abs(s1 - s2) <= 1e-7 * (1 + np.abs(s1)) * cond)


def test_unitary_spectrum_real_and_bounded_below(group):
    mesh = build_octagon_mesh(3, group)
    sys = assemble(mesh, character_rep((np.exp(1j * np.pi / 3), 1, 1, 1)))
    spec = solve_spectrum(sys, 40)
    flat = flat_spectrum(spec)
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
        roots = np.sqrt(flat_spectrum(spec) - 0.25)
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
        mean = flat_spectrum(solve_spectrum(sys, 20))[1:4].real.mean()
        errs.append(abs(mean - LAMBDA1_BOLZA) / LAMBDA1_BOLZA)
    assert errs[1] <= 6e-3
    assert errs[0] / errs[1] >= 3.0


@pytest.mark.parametrize("twist", ["trivial", "e", "fuchsian"])
def test_sparse_path_matches_dense(group, twist, monkeypatch):
    # the non-unitary twists give a pencil whose M is not Hermitian, which
    # ARPACK's generalized mode cannot take
    if twist == "fuchsian":
        r = Representation(group.generators)
    else:
        r = character_rep((np.e if twist == "e" else 1, 1, 1, 1))
    sys = assemble(build_octagon_mesh(3, group), r)
    dense = flat_spectrum(solve_spectrum(sys, 40))
    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    sparse = flat_spectrum(solve_spectrum(sys, 40))
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


@pytest.mark.parametrize("hermitian", [True, False])
def test_shift_on_eigenvalue_fails_after_one_factorization(hermitian, monkeypatch):
    # diag pencil with eigenvalue 0: K - 0 M is exactly singular, and the
    # shift-invert solve stops at its one factorization (eigsh factors K
    # through the ARPACK module's own splu)
    n = 50
    diag = np.arange(2.0, n + 2.0)
    diag[0] = 0.0
    sys = AssembledSystem(K=sp.diags(diag).tocsr(), M=sp.identity(n, format="csr"),
                          d=1, N_free=n, is_hermitian=hermitian, mesh_h=0.1)
    calls = []
    splu = spla.splu

    def spy(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    monkeypatch.setattr(spla, "splu", spy)
    monkeypatch.setattr(_ARPACK, "splu", spy)
    with pytest.raises(SolverNotConverged, match="at shift 0 failed: .*singular"):
        solve_spectrum(sys, 5)
    assert calls == [(n, n)]


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
    # an ARPACK failure other than no convergence is reported as ARPACK's,
    # not blamed on the shift-invert factorization
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


# counts at level 4 where a back-transform of the kept columns only, in
# place of sygvd's full-width trsm, changes the bits of the last column
# tile; the padded prefix of `solve._prefix` keeps those tiles
_TILE_COUNTS = (250, 255)


@pytest.mark.parametrize(
    "twist,count,level",
    [pytest.param(t, None, 3, id=t) for t in sorted(_TWISTS) + ["holonomy"]]
    + [pytest.param("e03", c, 3, id="e03-%d" % c) for c in _SPLIT_COUNTS]
    + [pytest.param(t, c, 4, id="%s-l4-%d" % (t, c))
       for t in ("trivial", "unitary") for c in _TILE_COUNTS],
)
def test_in_place_dense_solve_is_bit_identical(group, twist, count, level):
    # holonomy: the real non-Hermitian pencil of a d = 2 representation
    if twist == "holonomy":
        r = Representation(group.generators)
    else:
        r = character_rep((_TWISTS[twist], 1, 1, 1))
    sys = assemble(build_octagon_mesh(level, group), r)
    count = count or sys.N_free // 4
    w, v = solve._dense_eig(sys.K, sys.M, sys.is_hermitian, count)
    w_ref, v_ref = dense_eig_copying(sys.K, sys.M, sys.is_hermitian, count)
    assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    if level == 3 and count in _SPLIT_COUNTS:
        lone = [z for z in w if z.imag != 0 and np.conj(z) not in w]
        assert lone and all(z.imag < 0 for z in lone)


@pytest.mark.parametrize("twist,level", [
    ("unitary", 3), ("unitary", 4), ("unitary-d2", 3),
    pytest.param("unitary-d2", 4, marks=pytest.mark.slow)],
    ids=["unitary-3", "unitary-4", "unitary-d2-3", "unitary-d2-4"])
def test_complex_hermitian_solve_is_near_the_full_solve(group, twist, level,
                                                        monkeypatch):
    # hegvx finds only the kept pairs, and zhegvd without eigenvectors
    # finds every eigenvalue: the same ones to 1e-10, not the same bits.
    # The kept pairs pass solve_spectrum's residual gate
    sys = assemble(build_octagon_mesh(level, group), _twist_rep(twist))
    assert sys.is_hermitian and sys.K.dtype == np.complex128
    count = sys.N_free // 4
    seen = {}
    dense_eig = solve._dense_eig

    def spy(*args):
        seen["w"], _ = out = dense_eig(*args)
        return out

    monkeypatch.setattr(solve, "_dense_eig", spy)
    solve_spectrum(sys, count)  # raises unless every kept pair passes
    w_ref = sla.eigh(sys.K.toarray(), sys.M.toarray(), eigvals_only=True)[:count]
    assert np.all(np.abs(seen["w"] - w_ref) <= 1e-10 * (1 + np.abs(w_ref)))


# n <= 2: no packed reflector; n <= 25: dstevd's dstedc runs steqr; n = 70:
# dsyevd's workspace shrinks dormqr's block to 14; n = 200: blocked throughout
@pytest.mark.parametrize("n", (1, 2, 3, 25, 26, 70, 200), ids="float64-{}-1.0".format)
def test_evd_steps_match_syevd_and_heevd(n, rng):
    x = rng.standard_normal((n, n))
    a = np.asfortranarray(x + x.T)
    w_ref, v_ref, info = sla.lapack.dsyevd(a, lower=1)
    assert info == 0
    w, v = solve._evd([a.copy(order="F")], n)
    assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_evd_takes_float64_only(rng):
    # a complex Hermitian pencil goes to hegvx, never through _evd
    with pytest.raises(ValueError, match="not a square float64 matrix"):
        solve._evd([np.eye(3, dtype=complex)], 3)


def _symmetric(rng, n, shift=0.0):
    x = rng.standard_normal((n, n))
    return np.asfortranarray(x + x.T + shift * np.eye(n))


def _narrow_mismatches(a, counts, rng):
    """Counts whose kept eigenpairs, from `_evd(a, count)` and then a trsm
    on its prefix of columns, differ in any bit from those of the
    full-width `_evd(a, n)` and trsm; one narrowed solve per prefix width."""
    n = len(a)
    # any triangular factor: only sizes decide which kernels OpenBLAS runs
    L = np.asfortranarray(np.tril(rng.standard_normal((n, n))) + n * np.eye(n))
    trsm = sla.get_blas_funcs("trsm", (a,))
    w_full, v_full = solve._evd([a.copy(order="F")], n)
    v_full = trsm(1.0, L, v_full, lower=1, trans_a=1)
    widest = {}  # prefix width -> the largest count that needs it
    for c in counts:
        width = solve._prefix(n, solve._keep(w_full, c))
        widest[width] = max(widest.get(width, 0), c)
    bad = []
    for width, c in sorted(widest.items()):
        w, v = solve._evd([a.copy(order="F")], c)
        assert v.shape == (n, width)
        v = trsm(1.0, L, v, lower=1, trans_a=1, overwrite_b=1)
        keep = solve._keep(w, c)  # every smaller count's kept set is in it
        if not (np.array_equal(w, w_full)
                and np.array_equal(v[:, keep], v_full[:, keep])):
            bad.append(c)
    return bad


# n = 254 and 1022 are the level-3 and level-4 pencils of a character: every
# count up to n/4; 508, 762, 2044 and 3066 those of d = 2 and d = 3
_SWEEP = [(n, range(1, n // 4 + 1), False) for n in (254, 1022)] + [
    (508, (1, 64, 127), False), (762, (5, 72, 136, 190), False),
    (2044, (5, 140, 511), True), (3066, (5, 150, 766), True)]


@pytest.mark.parametrize(
    "n,counts",
    [pytest.param(n, c, id="%d-float64" % n, marks=[pytest.mark.slow] * slow)
     for n, c, slow in _SWEEP])
def test_prefix_back_transform_keeps_the_kept_bits(n, counts, rng):
    # positive definite, as the flat Laplacian: the kept columns lead
    a = _symmetric(rng, n, shift=4.0 * n)
    assert _narrow_mismatches(a, counts, rng) == []


@pytest.mark.parametrize("n", [762], ids=["float64"])
def test_prefix_covers_kept_columns_inside_the_spectrum(n, rng):
    # indefinite: the eigenvalues of least modulus sit mid-spectrum, so the
    # prefix reaches far past `count` columns
    a = _symmetric(rng, n)
    w, _ = solve._evd([a.copy(order="F")], 100)
    assert solve._keep(w, 100).min() > 250
    assert _narrow_mismatches(a, (1, 100, 190), rng) == []


@pytest.mark.parametrize("twist", sorted(_TWISTS) + ["unitary-d2"])
def test_dense_solve_peak_memory(group, twist):
    # a real Hermitian pencil: while dstevd runs, its n x n eigenvectors,
    # its n^2 workspace and the packed Householder vectors (n^2 / 2); the
    # reduced K is dropped before dstevd, the Cholesky factor and M before
    # the eigensolve, and the factor is rebuilt after it: 2.51 n^2 items
    # (3.01 with syevd, which keeps the vectors in place, 4 with the
    # factor kept as sygvd does, 6 when f2py copies the inputs).  A complex
    # Hermitian one: hegvx works in K's and M's memory and adds the kept
    # quarter of the eigenvectors, 2.29 n^2 (2.33 for d = 2 at level 3).  A
    # non-Hermitian one holds M^-1 K and the eigenvectors, and a real one
    # builds complex vectors only for the kept columns: 2.13 n^2
    level = 3 if twist == "unitary-d2" else 4
    sys = assemble(build_octagon_mesh(level, group), _twist_rep(twist))
    item = sys.K.dtype.itemsize
    if not sys.is_hermitian:
        bound = 2.25
    else:
        bound = 2.35 if sys.K.dtype == np.complex128 else 2.6
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
values = {values}, 1, 1, 1

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
    conf.write_text(_FAILING_CONF.format(out=tmp_path / "out", values=1.35))
    assert main(["--config", str(conf), "spectrum"]) == 3


def test_hermitian_dense_failure_is_a_solver_error(group, tmp_path, monkeypatch):
    # a potrf that finds M not positive definite reports info > 0: a
    # numerical failure, exit 3, not a validation error
    get = sla.get_lapack_funcs

    def failing(names, arrays):
        potrf, *rest = get(names, arrays)

        def indefinite(*args, **kwargs):
            return potrf(*args, **kwargs)[0], 3

        return (indefinite, *rest)

    monkeypatch.setattr(sla, "get_lapack_funcs", failing)
    sys = assemble(build_octagon_mesh(2, group), character_rep((1, 1, 1, 1)))
    assert sys.is_hermitian
    with pytest.raises(SolverNotConverged, match="leading minor"):
        solve_spectrum(sys, 10)
    conf = tmp_path / "exp.ini"
    conf.write_text(_FAILING_CONF.format(out=tmp_path / "out", values=1))
    assert main(["--config", str(conf), "spectrum"]) == 3


def test_complex_hermitian_dense_failure_is_a_solver_error(group, tmp_path,
                                                          monkeypatch):
    # hegvx on a pencil whose M is not positive definite raises LinAlgError:
    # a numerical failure, exit 3, not a validation error
    eigh = sla.eigh
    monkeypatch.setattr(sla, "eigh", lambda a, b, **kwargs: eigh(a, -b, **kwargs))
    sys = assemble(build_octagon_mesh(2, group), _twist_rep("unitary"))
    assert sys.is_hermitian and sys.K.dtype == np.complex128
    with pytest.raises(SolverNotConverged, match="hegvx.*not positive definite"):
        solve_spectrum(sys, 10)
    conf = tmp_path / "exp.ini"
    conf.write_text(_FAILING_CONF.format(out=tmp_path / "out",
                                         values=_TWISTS["unitary"]))
    assert main(["--config", str(conf), "spectrum"]) == 3


def _stall(monkeypatch, routine, info):
    """Make the scipy wrapper `routine` (stevd or ormqr) run, then report
    `info`, as a LAPACK call that fails does."""
    get = sla.get_lapack_funcs

    def failing(names, arrays):
        funcs = get(names, arrays)
        if routine not in names:
            return funcs
        i = names.index(routine)
        fn = funcs[i]

        def stalled(*args, **kwargs):
            return fn(*args, **kwargs)[:-1] + (info,)

        return funcs[:i] + [stalled] + funcs[i + 1:]

    monkeypatch.setattr(sla, "get_lapack_funcs", failing)


def _real_hermitian_fails(group, tmp_path, match):
    sys = assemble(build_octagon_mesh(2, group), character_rep((1, 1, 1, 1)))
    with pytest.raises(SolverNotConverged, match=match):
        solve_spectrum(sys, 10)
    conf = tmp_path / "exp.ini"
    conf.write_text(_FAILING_CONF.format(out=tmp_path / "out", values=1))
    assert main(["--config", str(conf), "spectrum"]) == 3


def test_stedc_failure_is_a_solver_error(group, tmp_path, monkeypatch):
    # a dstevd whose dstedc does not converge reports info > 0: a numerical
    # failure, exit 3, not a validation error
    _stall(monkeypatch, "stevd", 7)
    _real_hermitian_fails(group, tmp_path, "LAPACK dstevd failed: info 7")


def test_back_transform_failure_is_a_solver_error(group, tmp_path, monkeypatch):
    # a failed back-transform (dormqr reports a bad argument as info < 0)
    # is a solver error too, exit 3
    _stall(monkeypatch, "ormqr", -5)
    _real_hermitian_fails(group, tmp_path, "LAPACK dormqr failed: info -5")


@pytest.mark.parametrize("twist", ["trivial", "e03", "unitary"])
def test_residuals_match_complex_arithmetic(group, twist, monkeypatch):
    # solve_spectrum forms the residuals in the eigenpairs' own field; numpy
    # divides a complex number by n + 0i as a multiply by 1/n, so the bits
    # are those of the computation with both cast to complex first
    sys = assemble(build_octagon_mesh(3, group),
                   character_rep((_TWISTS[twist], 1, 1, 1)))
    count = sys.N_free // 4
    seen = {}
    cluster = solve._cluster

    def spy(vals, res):
        seen["res"] = res
        return cluster(vals, res)

    monkeypatch.setattr(solve, "_cluster", spy)
    solve_spectrum(sys, count)
    vals, v = solve._dense_eig(sys.K, sys.M, sys.is_hermitian, count)
    assert np.array_equal(seen["res"], pencil_residuals_complex(sys.K, sys.M, vals, v))


def test_arpack_eigenvalues_carry_no_negative_zero(group, monkeypatch):
    # 1/nu of a negative real nu = x + 0j has imaginary part -0.0 (at e, the
    # lowest eigenvalue -0.1145); the dense path gives +0.0.  The clusters'
    # mean hides the sign, so the spy reads what solve_spectrum hands them
    sys = assemble(build_octagon_mesh(3, group), character_rep((np.e, 1, 1, 1)))
    seen = {}
    cluster = solve._cluster

    def spy(vals, res):
        seen["vals"] = vals
        return cluster(vals, res)

    monkeypatch.setattr(solve, "_cluster", spy)
    monkeypatch.setattr(solve, "_DENSE_CUTOFF", 0)
    solve_spectrum(sys, 40)
    vals = seen["vals"]
    assert vals[0].real == pytest.approx(-0.1145, abs=1e-4)
    assert not np.any(np.signbit(vals.imag[vals.imag == 0]))


def test_nan_eigenpair_fails_the_residual_gate(sys3, monkeypatch):
    # a NaN residual compares False against any tolerance, so the gate must
    # ask whether each residual passes, not whether it fails
    n = sys3.N_free
    monkeypatch.setattr(solve, "_dense_eig",
                        lambda *args: (np.array([np.nan]), np.ones((n, 1))))
    with pytest.raises(SolverNotConverged, match="residual nan"):
        solve_spectrum(sys3, 1)


@pytest.mark.parametrize("cutoff", [solve._DENSE_CUTOFF, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("twist", ["trivial", "e03", "unitary"])
def test_nan_pencil_is_rejected_before_either_backend(group, twist, cutoff,
                                                      monkeypatch):
    sys = assemble(build_octagon_mesh(2, group),
                   character_rep((_TWISTS[twist], 1, 1, 1)))
    K = sys.K.copy()
    K.data[0] = np.nan
    monkeypatch.setattr(solve, "_DENSE_CUTOFF", cutoff)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solve_spectrum(replace(sys, K=K), 10)
