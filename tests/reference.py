"""Reference operations that only the tests use.

They build checks out of the package's own pieces: the complex conjugate
and similarity transforms of a representation, whose spectra and traces
are known functions of the original's, the non-split extension of one
character by another, whose spectrum and traces are the two characters'
together, the symmetric square of a rank-2 representation, the rotation
of a character around the octagon, which must leave both sides of the
identity unchanged, every eigenvalue of a pencil matched to its nearest partner
in another, a solved spectrum with each eigenvalue repeated by its
multiplicity, the inverse cosine transform
that confirms the transform convention of `tracebench.analysis`, the
distance from the basepoint to an element's axis by its displacement (the
full canonical search's rule, against which the package's one-product
axis test is checked), and
plain forms that the package's batched, in-place or pruned ones must
match bit for bit: a word product letter by letter, the copying dense
eigensolve, the pencil residuals in complex arithmetic, and the element
ball searched through every child, the step back to the parent
included.
"""

import numpy as np
import scipy.linalg as sla

from tracebench.analysis import _SQRT_2PI, TestFunction, _gauss_nodes, _phi_many
from tracebench.errors import QuadratureNotConverged, SingularImage
from tracebench.fuchsian import RELATOR
from tracebench.hyperbolic import (
    canonical_sign,
    displacement,
    mat_inv,
    renormalize,
    translation_length,
)
from tracebench.reps import Representation, _word_image, character_rep

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


def extension_rep(z1, z2, seed: int, cocycle: bool = True) -> Representation:
    """rho = [[chi1, c], [0, chi2]] for the characters with values z1 and z2
    on a1, b1, a2, b2, with a fixed random complex c drawn from `seed`.

    The (1, 2) entry of rho(relator) is linear in c = (c_1, .., c_4), each
    term a product of diagonal entries around one c_k, so c is projected
    onto the null space of that linear form (the cocycle condition);
    `cocycle=False` skips the projection and the relator fails.  The chi1
    sections form an invariant subspace with quotient chi2, so the twisted
    spectrum is spec(chi1) and spec(chi2) together, algebraic
    multiplicities counted, and tr rho = chi1 + chi2 on every class.  Two
    equal characters give a unipotent twist: the form is 0 and any c
    passes.
    """
    def images(c):
        m = np.zeros((4, 2, 2), complex)
        m[:, 0, 0], m[:, 0, 1], m[:, 1, 1] = z1, c, z2
        return m

    def corner(c):  # the (1, 2) entry of rho(relator), linear in c
        m, out = images(c), np.eye(2, dtype=complex)
        for letter in RELATOR:
            out = out @ (m[letter - 1] if letter > 0 else np.linalg.inv(m[-letter - 1]))
        return out[0, 1]

    rng = np.random.default_rng(seed)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    form = np.array([corner(e) for e in np.eye(4)])
    if cocycle and np.any(form):
        c -= form.conj() * (form @ c) / (form @ form.conj())
    return Representation(images(c))


def sym2(r: Representation) -> Representation:
    """The symmetric square of a rank-2 representation: each image g acts
    on symmetric 2x2 matrices S (quadratic forms) by S -> g S g^T, in the
    basis E11, E12 + E21, E22.

    Sym^2(-g) = Sym^2(g), so a PSL(2, R) holonomy whose relator closes to
    -1 gives a representation whose relator closes to 1.
    """
    if r.dim != 2:
        raise ValueError("sym2 needs a rank-2 representation, got d = %d" % r.dim)
    out = []
    for (a, b), (c, d) in r.images:
        out.append([[a * a, 2 * a * b, b * b],
                    [a * c, a * d + b * c, b * d],
                    [c * c, 2 * c * d, d * d]])
    return Representation(out)


def pairing_values(g, r: Representation) -> list:
    """A character's values c_k = chi(g_k) on the side pairings g_0..g_3."""
    return [complex(_word_image(r, w)[0, 0]) for w in g.pairing_words[:4]]


def character_of_pairings(c) -> Representation:
    """The character with pairing values c_0..c_3.

    The pairings of `bolza_preset` are g_0 = a1, g_1 = b1^-1 a2,
    g_2 = b1^-1 a2 b2^-1 and g_3 = b1^-1 b2^-1, so a1 = c0,
    b1 = c2/(c1 c3), a2 = c2/c3 and b2 = c1/c2.
    """
    c0, c1, c2, c3 = (complex(v) for v in c)
    return character_rep((c0, c2 / (c1 * c3), c2 / c3, c1 / c2))


def rotate_character(g, r: Representation) -> Representation:
    """sigma.chi for the rotation sigma of the octagon by pi/4.

    sigma sends each side pairing to the next, so (sigma.chi)(g_k) =
    chi(g_{k-1}), with g_{-1} = g_3^-1 (g_{k+4} = g_k^-1): c_k -> c_{k-1}.
    Eight steps return to chi.
    """
    c = pairing_values(g, r)
    return character_of_pairings((1 / c[3], c[0], c[1], c[2]))


def reflect_character(g, r: Representation) -> Representation:
    """rho.chi for the reflection rho: z -> -conj(z) of the octagon.

    rho conjugates each side pairing g_k to g_{-k}, with g_{-k} = g_{4-k}^-1
    (g_{k+4} = g_k^-1), so (rho.chi)(g_k) = chi(g_{-k}): (c0, c1, c2, c3)
    -> (c0, 1/c3, 1/c2, 1/c1).  Two reflections return to chi.
    """
    c = pairing_values(g, r)
    return character_of_pairings((c[0], 1 / c[3], 1 / c[2], 1 / c[1]))


def pencil_eigenvalues(sys) -> np.ndarray:
    """Every eigenvalue of an assembled pencil, as those of dense M^-1 K."""
    return np.linalg.eigvals(np.linalg.solve(sys.M.toarray(), sys.K.toarray()))


def flat_spectrum(spec) -> np.ndarray:
    """A solved spectrum's eigenvalues, each repeated by its multiplicity."""
    return np.concatenate([[lam] * m for lam, m, _ in spec.eigenvalues])


def nearest_gap(a, b) -> float:
    """Largest distance from an eigenvalue of either list to its nearest
    partner in the other, relative to 1 + |eigenvalue|.

    Sorted lists would misalign near-equal real parts; nearest partners
    do not.
    """
    a, b = np.asarray(a), np.asarray(b)
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(np.max(dist.min(axis=1) / (1 + np.abs(a))),
                     np.max(dist.min(axis=0) / (1 + np.abs(b)))))


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


def axis_dist_to_origin(m: np.ndarray):
    """Distance from the basepoint (disk center) to the translation axis.

    Uses sinh(d(0, m.0)/2) = cosh(dist) * sinh(l/2), which needs no axis
    endpoints and vectorizes cheaply.  Arguments are clipped at 1 from
    below to absorb rounding on elements whose axis passes through 0.
    """
    ell = translation_length(m)
    arg = np.sinh(displacement(m) / 2.0) / np.sinh(ell / 2.0)
    return np.arccosh(np.maximum(arg, 1.0))


def evaluate_word_by_letter(g, w) -> np.ndarray:
    """One word's generator product, one matrix at a time."""
    out = np.eye(2)
    for l in w:
        m = g.generators[abs(l) - 1]
        out = renormalize(out @ (m if l > 0 else mat_inv(m)))
    return canonical_sign(out)


def dense_eig_copying(K, M, hermitian: bool, count: int):
    """The dense pencil solve with C-order matrices and no overwrites.

    For a real Hermitian or a non-Hermitian pencil, the same LAPACK calls
    as `tracebench.spectral.solve._dense_eig` on the same data, but each
    call works on a Fortran-order copy of its inputs, and
    `scipy.linalg.eig` builds every complex eigenvector.  A complex
    Hermitian pencil runs hegvx for the `count` smallest eigenpairs, as
    `_dense_eig` does, on copies.  Returns the `count` eigenpairs of least
    modulus, sorted by (Re, Im).
    """
    Kd, Md = K.toarray(), M.toarray()
    if hermitian and Kd.dtype.kind == "c":
        w, v = sla.eigh(Kd, Md, subset_by_index=(0, count - 1))
    elif hermitian:
        w, v = sla.eigh(Kd, Md)
    else:
        w, v = sla.eig(sla.lu_solve(sla.lu_factor(Md), Kd))
    wc = w.astype(complex)
    order = np.lexsort((wc.imag, wc.real, np.abs(wc)))[:count]
    keep = order[np.lexsort((wc[order].imag, wc[order].real))]
    return w[keep], v[:, keep]


def pencil_residuals_complex(K, M, vals, v) -> np.ndarray:
    """The pencil residual norms ||K x - lam M x||_2 of unit-norm
    eigenvectors as `tracebench.spectral.solve.solve_spectrum` forms them,
    but with the eigenpairs cast to complex first, whatever the pencil's
    field."""
    vals, v = vals.astype(complex, copy=False), v.astype(complex, copy=False)
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    R = K @ v - (M @ v) * vals[None, :]
    return np.linalg.norm(R, axis=0)


def bfs_ball_every_child(pairings: np.ndarray, radius: float):
    """`tracebench.fuchsian._bfs_ball` without its skip of the child that
    steps back to the parent: every child of the frontier is formed at
    once, and kept when the bytes of its rounded key row are not yet in a
    set.  Same return values."""
    mats = [np.eye(2)[None]]
    disp = [np.zeros(1)]
    parent = [np.array([-1], dtype=np.int64)]
    letter = [np.array([-1], dtype=np.int8)]
    seen = {_key_rows(mats[0])[0].tobytes()}
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
        fresh = []
        for i, row in enumerate(_key_rows(child)):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if not fresh:
            break
        fresh = np.array(fresh)
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


def _key_rows(mats: np.ndarray) -> np.ndarray:
    """Entries of each matrix rounded to 1e-6 cells, one int64 row each."""
    return np.round(mats.reshape(-1, 4) / 1e-6).astype(np.int64)
