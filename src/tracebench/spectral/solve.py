"""Generalized eigensolvers for the assembled pencil, in its own field.

Assembly gives float64 K and M for a real representation and complex128
otherwise; the LAPACK and the ARPACK path both run in that dtype.

Up to 8000 free dofs the dense path reduces K x = lam M x to an ordinary
eigenproblem and runs the QR algorithm; a Hermitian pencil goes through
the symmetric-definite reduction instead.  A LAPACK failure raises
SolverNotConverged, as an ARPACK one does.

Memory: K and M are made dense once each, in Fortran order, and LAPACK
works in that memory (overwrite flags, so f2py copies nothing).  Real
Hermitian: sygvd's steps run one by one through scipy's f2py wrappers
(potrf, sygst, then syevd's three steps sytrd, stevd and ormqr, then
trsm), the Cholesky factor of M is dropped with M while the eigensolve
runs and rebuilt for the back-transform (potrf is deterministic).  While
dstevd runs, the reduced K is gone and the Householder vectors sit packed
in (n-1)(n-2)/2 items, so n free dofs peak near 2.5 n^2 items (those
vectors, dstevd's n x n eigenvectors and its n^2 workspace) where syevd
holds 3 n^2.  dstevd scales only a tridiagonal whose largest entry lies
outside [1e-146, 1e146], and that entry is 7.8e3 at level 5.  The kept
set is chosen from dstevd's eigenvalues, and ormqr and the trsm run on
only the leading W = min(n, max(256, 16 ceil((width + 8) / 16))) columns,
width being one past the last kept column: the kept columns come out bit
for bit as at full width (measured, see `_evd`).
Complex Hermitian (a unitary twist that is not real): LAPACK's hegvx
computes only the kept eigenpairs, in K's and M's memory, near 2.3 n^2
items.  Non-Hermitian: the LU factor and M go before the QR algorithm,
M^-1 K when it returns, and only the kept real eigenvector columns become
complex: near 2 n^2 items.

Above 8000 dofs ARPACK runs once, in shift-invert mode at 0 from a fixed
start vector.  A Hermitian pencil uses ARPACK's generalized mode, which
needs a Hermitian M.  The Petrov-Galerkin M of a non-unitary twist is not
Hermitian, so that pencil runs in standard mode on K^-1 M, whose
eigenvalue nu gives lam = 1/nu (Ericsson & Ruhe, Math. Comp. 35, 1980).
A singular factor of K, an eigenvalue on the shift, raises
SolverNotConverged.

Both backends take (K, M, hermitian, count) and return the requested
number of eigenvalues of least modulus, sorted by (Re, Im).  K and M are
checked finite before either runs, and only the kept pairs are checked
after: each kept eigenvector is normalized to unit 2-norm, its pencil
residual ||K x - lam M x||_2 must pass a relative gate, and the clusters
of algebraic multiplicity carry the worst residual over their members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .. import TRUST_DIVISOR
from ..errors import SolverNotConverged
from .assemble import AssembledSystem

_CLUSTER_BASE = 1e-6
_DENSE_CUTOFF = 8000
_POTRF = "potrf (M's leading minor of order info is not positive definite)"


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple  # ((lam, multiplicity, residual), ...) sorted by (Re, Im)
    mesh_h: float
    d: int

    @property
    def count(self) -> int:
        return sum(m for _, m, _ in self.eigenvalues)


def _keep(w: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` eigenvalues of least modulus, ties broken by
    (Re, Im), in (Re, Im) order."""
    order = np.lexsort((w.imag, w.real, np.abs(w)))[:count]
    return order[np.lexsort((w[order].imag, w[order].real))]


def _check(info: int, step: str) -> None:
    if info != 0:
        raise SolverNotConverged("LAPACK %s failed: info %d" % (step, info))


def _reflector_spans(n: int):
    """(j, slice) pairs: Householder vector j, rows j + 2.. of column j of
    sytrd's lower output, in one packed array of (n-1)(n-2)/2 items."""
    lo = 0
    for j in range(n - 2):
        yield j, slice(lo, lo + n - 2 - j)
        lo += n - 2 - j


def _prefix(n: int, keep: np.ndarray) -> int:
    """How many leading columns of dstevd's output to back-transform so that
    the columns in `keep` come out as at full width: keep's span rounded
    up past a column tile of 16, at least 256, at most n."""
    return min(n, max(256, 16 * -(-(int(keep.max()) + 9) // 16)))


def _evd(held: list, count: int):
    """Every eigenvalue w of the real symmetric matrix in the lower triangle
    of the n x n float64 array popped from the one-item list `held`, and
    the eigenvectors v that hold the `count` kept ones, bit for bit as
    syevd(lower=1) computes them for a matrix it does not scale.

    syevd's own steps through scipy's f2py wrappers: dsytrd in the
    array's memory, dstevd (dstedc('I') behind a norm check) into an n x n
    array of its own, and dormqr, as dormtr('L', 'L') calls it, from the
    reflectors.  The reflectors are packed while
    dstevd runs, and the popped array is dropped before it, so that only
    the packed reflectors, dstevd's eigenvectors and its n^2 workspace are
    alive: 2.5 n^2 items at peak, not 3 n^2.  Workspace lengths are
    syevd's wherever they set a block size.  dstevd scales a tridiagonal
    whose largest entry lies outside [1e-146, 1e146] first, as syevd does
    the matrix; no assembled pencil comes near (that entry is 2.2 at
    level 0, 624 at level 3 and 7.8e3 at level 5).

    Only the leading W = `_prefix(n, keep)` columns are back-transformed,
    keep being the `_keep` set of w, and v is that n x W view of dstevd's
    eigenvectors (all n columns when count = n).  The rule is measured on
    OpenBLAS 0.3.31 (AVX-512), not derived: a bare prefix changes the bits
    of its last column tile, and one narrower than about 150 columns
    changes every column (kernels are picked by size).  With the padding
    and the 256 floor, the kept columns, after this back-transform and a
    trsm on the same prefix, equal full-width ones at n = 254 and 1022 for
    every count up to n/4 and at sampled counts for n = 508, 762, 2044,
    3066 and 4094; `tests/test_solve.py` keeps the sweep.
    """
    a = np.asfortranarray(held.pop())
    n = len(a)
    if a.dtype != np.float64 or a.shape != (n, n):
        raise ValueError("not a square float64 matrix: %s %s" % (a.dtype, a.shape))
    sytrd, sytrd_lwork, stevd, ormqr = sla.get_lapack_funcs(
        ("sytrd", "sytrd_lwork", "stevd", "ormqr"), (a,))

    lwork, info = sytrd_lwork(n, lower=1)  # n nb: the blocked reduction
    _check(info, "dsytrd")
    a, d, e, tau, info = sytrd(a, lower=1, lwork=int(lwork), overwrite_a=1)
    _check(info, "dsytrd")
    refl = np.empty((n - 1) * (n - 2) // 2)
    for j, s in _reflector_spans(n):
        refl[s] = a[j + 2:, j]
    del a

    # f2py wants max(n - 1, 1) off-diagonal items; dstevd reads n - 1
    d, z, info = stevd(d, e if n > 1 else np.zeros(1),
                       overwrite_d=1, overwrite_e=1)
    _check(info, "dstevd")
    cols = _prefix(n, _keep(d, count))

    # dormtr('L', 'L') runs dormqr on rows 1.. of the reflectors and of z
    q = np.zeros((n - 1, n - 1), order="F")
    for j, s in _reflector_spans(n):
        q[j + 1:, j] = refl[s]
    del refl
    # dormqr blocks by nb <= 64 with a 65 x 64 T block, out of dsyevd's
    # 1 + 4n + n^2 items (nb shrinks below n = 80, where cols is n).  A
    # workspace short of nb sets nb = (lwork - 65 * 64) / cols, so dsyevd's
    # lwork keeps nb on fewer columns
    lwork = min(1 + 4 * n + n * n, 64 * n + 65 * 64)
    if n > 1:  # f2py rejects a 0 x 0 q, and dormtr returns at once there
        c, _, info = ormqr(b"L", b"N", q, tau, z[1:, :cols], lwork,
                           overwrite_c=1)
        _check(info, "dormqr")
        z[1:, :cols] = c
    return d, z[:, :cols]


def _dense_eig(K, M, hermitian: bool, count: int):
    """The kept eigenpairs (`_keep`) of the pencil, by dense LAPACK."""
    Kd, Md = K.toarray(order="F"), M.toarray(order="F")
    if hermitian and Kd.dtype.kind == "c":
        # hegvx; Delta is positive semidefinite here, so the `count`
        # smallest eigenvalues are those of least modulus, in (Re, Im) order
        try:
            return sla.eigh(Kd, Md, subset_by_index=(0, count - 1),
                            overwrite_a=True, overwrite_b=True,
                            check_finite=False)
        except sla.LinAlgError as exc:  # M not positive definite included
            raise SolverNotConverged("LAPACK hegvx failed: %s" % exc) from exc
    if hermitian:
        # sygvd's four steps in place; the Cholesky factor L is dropped while
        # the eigensolve runs and rebuilt for trsm (potrf is deterministic:
        # same bits)
        potrf, sygst = sla.get_lapack_funcs(("potrf", "sygst"), (Kd,))
        L, info = potrf(Md, lower=1, overwrite_a=1)
        _check(info, _POTRF)
        Kd, info = sygst(Kd, L, lower=1, overwrite_a=1)
        _check(info, "sygst")
        held = [Kd]  # _evd drops the reduced K before dstevd runs
        del Kd, L, Md
        w, v = _evd(held, count)  # only the columns that hold the kept ones
        L, info = potrf(M.toarray(order="F"), lower=1, overwrite_a=1)
        _check(info, _POTRF)
        trsm = sla.get_blas_funcs("trsm", (v,))
        v = trsm(1.0, L, v, lower=1, trans_a=1, overwrite_b=1)
        keep = _keep(w, count)
        return w[keep], v[:, keep]
    lu = sla.lu_factor(Md, overwrite_a=True)
    Kd = sla.lu_solve(lu, Kd, overwrite_b=True)
    del lu, Md  # only M^-1 K, in K's memory, is alive while geev runs

    # geev as scipy.linalg.eig calls it, right eigenvectors only
    geev, geev_lwork = sla.get_lapack_funcs(("geev", "geev_lwork"), (Kd,))
    work, info = geev_lwork(Kd.shape[0], compute_vl=0, compute_vr=1)
    if info == 0:
        *out, info = geev(np.asarray_chkfinite(Kd), lwork=int(work.real),
                          compute_vl=0, compute_vr=1, overwrite_a=1)
    _check(info, "geev")
    del Kd
    if geev.typecode in "cz":
        w, _, vr = out
        keep = _keep(w, count)
        return w[keep], vr[:, keep]
    wr, wi, _, vr = out
    w = wr + 1j * wi
    keep = _keep(w, count)
    # A real geev stores the pair w[j], w[j + 1] = conj(w[j]) as Re x in
    # column j of vr and Im x in column j + 1.  j opens a pair when Im w[j]
    # > 0 or Im w[j + 1] < 0, the rule of scipy.linalg.eig; a kept member
    # whose partner is dropped is built from both columns all the same.
    opens = w.imag > 0
    opens[:-1] |= w.imag[1:] < 0
    closes = np.r_[False, opens[:-1]] & ~opens
    o, c = opens[keep], closes[keep]
    v = vr[:, keep - c].astype(complex)
    v.imag[:, o] = vr[:, keep[o] + 1]
    v.imag[:, c] = -vr[:, keep[c]]
    return w[keep], v


def _sparse_eig(K, M, hermitian: bool, count: int):
    """The kept eigenpairs (`_keep`) of the pencil, by one shift-invert
    ARPACK call at 0."""
    n = K.shape[0]
    v0 = np.ones(n) / np.sqrt(n)  # fixed start vector for reproducibility
    try:
        if hermitian:
            w, v = spla.eigsh(K, k=count, M=M, sigma=0.0, v0=v0)
        else:
            lu = spla.splu(K.tocsc())
            op = spla.LinearOperator(K.shape, lambda x: lu.solve(M @ x),
                                     dtype=K.dtype)
            nu, v = spla.eigs(op, k=count, v0=v0)
            w = 1.0 / nu
    except spla.ArpackError as exc:  # no convergence included
        raise SolverNotConverged("ARPACK failed: %s" % exc) from exc
    except RuntimeError as exc:  # SuperLU: K has an eigenvalue on the shift
        raise SolverNotConverged("factorization of K - sigma M at shift 0 "
                                 "failed: %s" % exc) from exc
    keep = _keep(w, count)
    return w[keep], v[:, keep]


def _cluster(vals: np.ndarray, res: np.ndarray):
    out = []
    i = 0
    while i < len(vals):
        anchor = vals[i]
        tol = _CLUSTER_BASE * (1.0 + abs(anchor))
        j = i + 1
        while j < len(vals) and abs(vals[j] - anchor) <= tol:
            j += 1
        out.append(
            (complex(vals[i:j].mean()), j - i, float(res[i:j].max()))
        )
        i = j
    return tuple(out)


def solve_spectrum(sys: AssembledSystem, count: int) -> SpectrumResult:
    if count < 1:
        raise ValueError("count must be positive")
    limit = sys.N_free // TRUST_DIVISOR
    if count > limit:
        raise ValueError(
            "count %d exceeds trust region N_free/4 = %d" % (count, limit)
        )

    np.asarray_chkfinite(sys.K.data), np.asarray_chkfinite(sys.M.data)
    eig = _dense_eig if sys.N_free <= _DENSE_CUTOFF else _sparse_eig
    vals, v = eig(sys.K, sys.M, sys.is_hermitian, count)
    # pencil residuals with unit-norm eigenvectors, in the pairs' own field
    v = v * (1.0 / np.linalg.norm(v, axis=0, keepdims=True))
    res = np.linalg.norm(sys.K @ v - (sys.M @ v) * vals, axis=0)
    # + 0.0 turns the -0.0 parts of ARPACK's 1 / nu into the dense path's +0.0
    vals = vals.astype(complex, copy=False) + 0.0

    scale = np.abs(sys.K.data).max()
    bad = ~(res <= 1e-8 * (1.0 + np.abs(vals)) * scale)  # NaN fails too
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SolverNotConverged(
            "residual %.3e at eigenvalue %s exceeds tolerance"
            % (res[k], vals[k])
        )

    return SpectrumResult(
        eigenvalues=_cluster(vals, res),
        mesh_h=sys.mesh_h,
        d=sys.d,
    )
