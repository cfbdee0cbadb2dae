"""Generalized eigensolvers for the assembled pencil.

Up to 8000 free dofs the dense path reduces K x = lam M x to an ordinary
eigenproblem and runs the QR algorithm; a Hermitian pencil goes through
the symmetric-definite reduction instead.  Either runs in real arithmetic
when neither K nor M has a nonzero imaginary part.

Memory: K and M are made dense once each, in Fortran order, and LAPACK
works in that memory (overwrite flags on every call, so f2py copies
nothing); the LU factor and M are dropped before the QR algorithm runs.
For n free dofs the peak is near 4 n^2 items: the two matrices and the
symmetric-definite workspace, or M^-1 K with the real and the complex
eigenvectors (a complex non-Hermitian pencil stays near 2.5 n^2).

Above 8000 dofs ARPACK runs in shift-invert mode at 0 from a fixed start
vector.  A Hermitian pencil uses ARPACK's generalized mode, which needs a
Hermitian M.  The Petrov-Galerkin M of a non-unitary twist is not
Hermitian, so that pencil runs in standard mode on (K - sigma M)^-1 M,
whose eigenvalue nu gives lam = sigma + 1/nu (Ericsson & Ruhe, Math.
Comp. 35, 1980).

The requested number of eigenvalues of least modulus is kept, sorted by
(Re, Im), and only those are checked: each kept eigenvector is
normalized to unit 2-norm, its pencil residual ||K x - lam M x||_2 must
pass a relative gate, and the clusters of algebraic multiplicity carry
the worst residual over their members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from ..errors import ShiftTooCloseToEigenvalue, SolverNotConverged
from .assemble import AssembledSystem

_CLUSTER_BASE = 1e-6
_DENSE_CUTOFF = 8000


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple  # ((lam, multiplicity, residual), ...) sorted by (Re, Im)
    mesh_h: float
    d: int

    @property
    def count(self) -> int:
        return sum(m for _, m, _ in self.eigenvalues)


def _dense_eig(K, M, hermitian: bool):
    if not (np.any(K.data.imag) or np.any(M.data.imag)):
        K, M = K.real, M.real
    Kd, Md = K.toarray(order="F"), M.toarray(order="F")
    if hermitian:
        return sla.eigh(Kd, Md, overwrite_a=True, overwrite_b=True)
    lu = sla.lu_factor(Md, overwrite_a=True)
    Kd = sla.lu_solve(lu, Kd, overwrite_b=True)
    del lu, Md  # only M^-1 K, in K's memory, is alive while eig runs
    return sla.eig(Kd, overwrite_a=True)


def _sparse_eig(K, M, count, hermitian: bool):
    n = K.shape[0]
    v0 = np.ones(n) / np.sqrt(n)  # fixed start vector for reproducibility
    sigma = 0j
    last = None
    for _ in range(2):
        try:
            if hermitian:
                return spla.eigsh(
                    K, k=count, M=M, sigma=float(sigma.real), v0=v0
                )
            lu = spla.splu((K - sigma * M).tocsc())
            op = spla.LinearOperator(
                K.shape, matvec=lambda x: lu.solve(M @ x), dtype=complex
            )
            nu, v = spla.eigs(op, k=count, v0=v0)
            return sigma + 1.0 / nu, v
        except spla.ArpackError as exc:
            # every ARPACK failure, no convergence included; a singular
            # factor raises a plain RuntimeError, handled below
            raise SolverNotConverged("ARPACK failed: %s" % exc) from exc
        except RuntimeError as exc:
            # shift-invert factorization hit a (near-)singular pivot;
            # retry once with a nudged shift before giving up
            last = exc
            sigma = sigma + 1e-3 * (1.0 + abs(sigma))
    raise ShiftTooCloseToEigenvalue(
        "factorization of (K - shift M) failed twice: %s" % last
    )


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
    if count > sys.N_free // 4:
        raise ValueError(
            "count %d exceeds trust region N_free/4 = %d"
            % (count, sys.N_free // 4)
        )

    if sys.N_free <= _DENSE_CUTOFF:
        w, v = _dense_eig(sys.K, sys.M, sys.is_hermitian)
    else:
        w, v = _sparse_eig(sys.K, sys.M, count, sys.is_hermitian)
    w = w.astype(complex, copy=False)

    order = np.lexsort((w.imag, w.real, np.abs(w)))[:count]
    keep = order[np.lexsort((w[order].imag, w[order].real))]
    vals, v = w[keep], v[:, keep].astype(complex, copy=False)

    # pencil residuals with unit-norm eigenvectors
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    R = sys.K @ v - (sys.M @ v) * vals[None, :]
    res = np.linalg.norm(R, axis=0)

    scale = np.abs(sys.K.data).max()
    bad = res > 1e-8 * (1.0 + np.abs(vals)) * scale
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
