"""Generalized eigensolvers for the assembled pencil.

Dense path (default up to 8000 dofs): reduce K x = lam M x to an
ordinary eigenproblem and run the QR algorithm, with the Hermitian
branch going through the symmetric-definite reduction instead.  Above
the cutoff: ARPACK shift-invert with a fixed start vector.  Either way
the requested number of eigenvalues nearest the shift is returned,
sorted by (Re, Im), clustered into algebraic multiplicities, and each
cluster carries the worst pencil residual ||K x - lam M x||_2 over its
members (eigenvectors normalized to unit 2-norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackNoConvergence

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


def _as_real_if_possible(a: np.ndarray) -> np.ndarray:
    if np.abs(a.imag).max(initial=0.0) == 0.0:
        return np.ascontiguousarray(a.real)
    return a


def _dense_eig(K, M, hermitian: bool):
    Kd = _as_real_if_possible(K.toarray())
    Md = _as_real_if_possible(M.toarray())
    if Kd.dtype != Md.dtype:
        Kd, Md = Kd.astype(complex), Md.astype(complex)
    if hermitian:
        w, v = sla.eigh(Kd, Md)
        return w.astype(complex), v.astype(complex)
    lu = sla.lu_factor(Md)
    A = sla.lu_solve(lu, Kd)
    w, v = sla.eig(A)
    return w, v


def _sparse_eig(K, M, count, shift, hermitian: bool, maxiter):
    n = K.shape[0]
    v0 = np.ones(n) / np.sqrt(n)  # fixed start vector for reproducibility
    sigma = complex(shift)
    last = None
    for _ in range(2):
        try:
            if hermitian:
                w, v = spla.eigsh(
                    K, k=count, M=M, sigma=float(sigma.real), v0=v0,
                    maxiter=maxiter,
                )
            else:
                w, v = spla.eigs(
                    K, k=count, M=M, sigma=sigma, v0=v0, maxiter=maxiter,
                )
            return w.astype(complex), v.astype(complex)
        except ArpackNoConvergence as exc:
            raise SolverNotConverged(
                "Arnoldi iteration did not converge (%s)" % exc
            ) from exc
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


def solve_spectrum(
    sys: AssembledSystem,
    count: int,
    shift: complex = 0.0,
    dense_cutoff: int = _DENSE_CUTOFF,
    maxiter=None,
) -> SpectrumResult:
    if count < 1:
        raise ValueError("count must be positive")
    if count > sys.N_free // 4:
        raise ValueError(
            "count %d exceeds trust region N_free/4 = %d"
            % (count, sys.N_free // 4)
        )

    if sys.N_free <= dense_cutoff:
        w, v = _dense_eig(sys.K, sys.M, sys.is_hermitian)
    else:
        w, v = _sparse_eig(
            sys.K, sys.M, count, shift, sys.is_hermitian, maxiter
        )

    # pencil residuals with unit-norm eigenvectors
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    R = sys.K @ v - (sys.M @ v) * w[None, :]
    res = np.linalg.norm(R, axis=0)

    dist = np.abs(w - shift)
    order = np.lexsort((w.imag, w.real, dist))[:count]
    keep = order[np.lexsort((w[order].imag, w[order].real))]
    vals, res = w[keep], res[keep]

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
