"""Reference operations that only the tests use.

They build checks out of the package's own pieces: the complex conjugate
and similarity transforms of a representation, whose spectra and traces
are known functions of the original's, the inverse cosine transform
that confirms the transform convention of `tracebench.analysis`, and
plain forms that the package's batched, in-place or pruned ones must
match bit for bit: a word product letter by letter, the copying dense
eigensolve, and the element ball searched through every child, the step
back to the parent included.
"""

import numpy as np
import scipy.linalg as sla

from tracebench.analysis import _SQRT_2PI, TestFunction, _gauss_nodes, _phi_many
from tracebench.errors import QuadratureNotConverged, SingularImage
from tracebench.fuchsian import _add_rows, _round_keys
from tracebench.hyperbolic import canonical_sign, displacement, mat_inv, renormalize
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


def dense_eig_copying(K, M, hermitian: bool, count: int):
    """The dense pencil solve with C-order matrices and no overwrites.

    The same LAPACK calls as `tracebench.spectral.solve._dense_eig` on the
    same data, but each call works on a Fortran-order copy of its inputs,
    and `scipy.linalg.eig` builds every complex eigenvector.  Returns the
    `count` eigenpairs of least modulus, sorted by (Re, Im).
    """
    Kd, Md = K.toarray(), M.toarray()
    if hermitian:
        w, v = sla.eigh(Kd, Md)
    else:
        w, v = sla.eig(sla.lu_solve(sla.lu_factor(Md), Kd))
    wc = w.astype(complex)
    order = np.lexsort((wc.imag, wc.real, np.abs(wc)))[:count]
    keep = order[np.lexsort((wc[order].imag, wc[order].real))]
    return w[keep], v[:, keep]


def bfs_ball_every_child(pairings: np.ndarray, radius: float):
    """`tracebench.fuchsian._bfs_ball` without its skip of the child that
    steps back to the parent: every child of the frontier is formed, and
    kept when its key row is new.  Same return values."""
    mats = [np.eye(2)[None]]
    disp = [np.zeros(1)]
    parent = [np.array([-1], dtype=np.int64)]
    letter = [np.array([-1], dtype=np.int8)]
    seen = set()
    _add_rows(seen, _round_keys(mats[0]))
    total = 1
    q2_max = np.tanh((radius + 1e-6) / 2.0) ** 2
    p = pairings.reshape(1, 8, 4)
    while True:
        f = mats[-1].reshape(-1, 1, 4)
        n = f.shape[0]
        a = (f[..., 0] * p[..., 0] + f[..., 1] * p[..., 2]).ravel()
        b = (f[..., 0] * p[..., 1] + f[..., 1] * p[..., 3]).ravel()
        c = (f[..., 2] * p[..., 0] + f[..., 3] * p[..., 2]).ravel()
        d = (f[..., 2] * p[..., 1] + f[..., 3] * p[..., 3]).ravel()
        beta2 = (a - d) ** 2 + (b + c) ** 2
        alpha2 = (a + d) ** 2 + (b - c) ** 2
        near = np.flatnonzero(beta2 <= q2_max * alpha2)
        child = np.stack([a[near], b[near], c[near], d[near]], axis=1).reshape(-1, 2, 2)
        child = canonical_sign(renormalize(child))
        cdisp = displacement(child)
        ok = cdisp <= radius
        near, child, cdisp = near[ok], child[ok], cdisp[ok]
        fresh = _add_rows(seen, _round_keys(child))
        if fresh.size == 0:
            break
        mats.append(child[fresh])
        disp.append(cdisp[fresh])
        parent.append(total - n + near[fresh] // 8)
        letter.append((near[fresh] % 8).astype(np.int8))
        total += fresh.size
    return (
        np.concatenate(mats),
        np.concatenate(disp),
        np.concatenate(parent),
        np.concatenate(letter),
    )
