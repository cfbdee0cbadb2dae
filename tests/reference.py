"""Reference operations that only the tests use.

They build checks out of the package's own pieces: the complex conjugate
and similarity transforms of a representation, whose spectra and traces
are known functions of the original's, the inverse cosine transform
that confirms the transform convention of `tracebench.analysis`, and two
one-at-a-time forms that the package's batched or in-place ones must
match bit for bit: a word product letter by letter, and the copying
dense eigensolve.
"""

import numpy as np
import scipy.linalg as sla

from tracebench.analysis import _SQRT_2PI, TestFunction, _gauss_nodes, _phi_many
from tracebench.errors import QuadratureNotConverged, SingularImage
from tracebench.hyperbolic import canonical_sign, mat_inv, renormalize
from tracebench.reps import Representation

_COND_CEIL = 1e12


def conjugate_rep(r: Representation) -> Representation:
    return Representation(r.images.conj())


def similar_rep(r: Representation, P) -> Representation:
    P = np.atleast_2d(np.asarray(P, dtype=complex))
    if P.shape != (r.dim, r.dim):
        raise ValueError("P must be %dx%d" % (r.dim, r.dim))
    cond = np.linalg.cond(P)
    if not np.isfinite(cond) or cond > _COND_CEIL:
        raise SingularImage("similarity transform condition %.3e too large" % cond)
    Pinv = np.linalg.inv(P)
    return Representation(np.stack([P @ m @ Pinv for m in r.images]))


def fourier_roundtrip(f: TestFunction) -> float:
    """Worst reconstruction error of phihat over a fixed 64-point grid.

    Applies the same cosine transform to phi (the convention is its own
    inverse on even functions) and compares against f.hat.
    """
    tgrid = np.linspace(-f.T, f.T, 64)
    x, w = _gauss_nodes(64)
    # integrate phi(lam) cos(t lam) out to where phi has decayed; extend
    # segments until the last one stops mattering
    total = np.zeros_like(tgrid)
    lo = 0.0
    seg = max(4.0 / f.T, 2.0)
    for _ in range(60):
        hi = lo + seg
        mid, half = 0.5 * (lo + hi), 0.5 * seg
        nodes = mid + half * x
        phis = _phi_many(f, nodes).real
        piece = (2.0 / _SQRT_2PI) * np.sum(
            (half * w * phis)[None, :] * np.cos(tgrid[:, None] * nodes[None, :]),
            axis=1,
        )
        total += piece
        worst_piece = float(np.max(np.abs(piece)))
        if worst_piece <= 1e-12 * max(float(np.max(np.abs(total))), 1e-300) + 1e-14:
            break
        lo = hi
        # widen slowly; 64 nodes must keep resolving cos(T*lam)
        seg = min(seg * 1.3, 10.0)
    else:
        raise QuadratureNotConverged("roundtrip tail did not settle")
    return float(np.max(np.abs(total - f.hat(tgrid))))


def evaluate_word_by_letter(g, w) -> np.ndarray:
    """One word's generator product, one matrix at a time."""
    out = np.eye(2)
    for l in w:
        m = g.generators[abs(l) - 1]
        out = renormalize(out @ (m if l > 0 else mat_inv(m)))
    return canonical_sign(out)


def dense_eig_copying(K, M, hermitian: bool):
    """The dense pencil solve with C-order matrices and no overwrites.

    The same LAPACK calls as `tracebench.spectral.solve._dense_eig` on the
    same data, but each call works on a Fortran-order copy of its inputs.
    """
    Kd, Md = K.toarray(), M.toarray()
    if hermitian:
        return sla.eigh(Kd, Md)
    return sla.eig(sla.lu_solve(sla.lu_factor(Md), Kd))
