"""P1 assembly with twisted boundary gluing.

The interior bilinear forms are untwisted: Euclidean Dirichlet energy for
the stiffness (conformally invariant in 2-D, so the hyperbolic metric
drops out) and the hyperbolic area weight (2/(1-|z|^2))^2 in the mass.
The representation enters only through the boundary identification: a
slave node carries chi(g_k)^{-1} times the value at its master node, and
the corner orbit collapses to a single fiber through words in the
pairings.  chi^{-1} has the same spectrum and geometric side as chi, so
the trace identity cannot tell this convention from its inverse.

For non-unitary chi the test space is twisted by the dual representation
chi*(g) = (chi(g)^H)^{-1} instead of chi itself (a Petrov-Galerkin
pairing).  That choice makes the boundary flux terms cancel in the weak
form of the flat Laplacian, which plain Galerkin only achieves for
unitary chi; with plain Galerkin the assembled pencil would be Hermitian
and could never produce the complex spectra the non-selfadjoint operator
actually has.  When the defect is at unitary working precision the dual
twist coincides with chi and we use literally the same constraint matrix,
so the Hermitian structure is exact, not approximate.

Assembly alone decides the pencil's field.  Every fibre dimension d is
lifted as K (x) I_d; when the reduced K and M have no nonzero imaginary
part (any real representation) they are returned as float64, else as
complex128, and the solvers run in that dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..reps import Representation, _word_image, unitarity_defect
from .mesh import OctagonMesh

_UNITARY_EPS = 1e-12

# Dunavant degree-4 rule on the reference triangle, 6 points
_QW = np.array(
    [0.223381589678011] * 3 + [0.109951743655322] * 3
)
_QA = 0.445948490915965
_QB = 0.091576213509771
_QBARY = np.array(
    [
        [_QA, _QA, 1 - 2 * _QA],
        [_QA, 1 - 2 * _QA, _QA],
        [1 - 2 * _QA, _QA, _QA],
        [_QB, _QB, 1 - 2 * _QB],
        [_QB, 1 - 2 * _QB, _QB],
        [1 - 2 * _QB, _QB, _QB],
    ]
)


@dataclass(frozen=True)
class AssembledSystem:
    K: sp.csr_matrix  # stiffness on free dofs, size N_free
    M: sp.csr_matrix  # mass on free dofs
    d: int
    N_free: int
    is_hermitian: bool
    mesh_h: float


def _scalar_forms(mesh: OctagonMesh):
    """Untwisted stiffness and mass over all mesh vertices."""
    v = mesh.vertices
    t = mesh.triangles
    p = v[t]  # (T, 3) complex
    x, y = p.real, p.imag
    # edge vectors opposite each node
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cx = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (bx[:, 0] * cx[:, 1] - bx[:, 1] * cx[:, 0])
    k_loc = (
        bx[:, :, None] * bx[:, None, :] + cx[:, :, None] * cx[:, None, :]
    ) / (4.0 * area)[:, None, None]

    # mass: quadrature of the hyperbolic weight over the flat triangle
    zq = np.einsum("qk,tk->tq", _QBARY, p)
    w = (2.0 / (1.0 - np.abs(zq) ** 2)) ** 2  # (T, Q)
    m_loc = np.einsum(
        "q,tq,iq,jq->tij", _QW, w, _QBARY.T, _QBARY.T
    ) * area[:, None, None]

    n = v.size
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def _identifications(mesh: OctagonMesh, r: Representation):
    """Per-node gluing u[node] = factor[node] @ u[root[node]], as arrays
    root (n,) and factor (n, d, d); an interior node is its own root.

    Boundary nodes are grouped into components of the identification graph
    built from the side pairings; each component keeps its smallest node
    index as the free representative, and the factors are products along
    its BFS tree.  The only non-tree edge closes the corner cycle, whose
    chi-product is a conjugate of the relator's image, which
    `Representation` has already checked, so it is not checked again here.
    """
    chi = [_word_image(r, w) for w in mesh.group.pairing_words[:4]]
    chi_inv = [np.linalg.inv(m) for m in chi]

    adj = {}
    for k, master, slave in mesh.boundary_pairing:
        for mi, si in zip(master.tolist(), slave.tolist()):
            adj.setdefault(si, []).append((mi, k, False))  # u[mi]=chi_k u[si]
            adj.setdefault(mi, []).append((si, k, True))  # u[si]=chi_k^-1 u[mi]

    n = mesh.vertices.size
    root = np.arange(n)
    factor = np.tile(np.eye(r.dim, dtype=complex), (n, 1, 1))
    seen = np.zeros(n, dtype=bool)
    for start in sorted(adj):
        if seen[start]:
            continue
        # BFS over a new component from its smallest node, accumulating
        # factors: every smaller node already belongs to a finished component
        seen[start] = True
        queue = [start]
        while queue:
            cur = queue.pop(0)
            for nb, k, inverted in adj[cur]:
                if not seen[nb]:
                    seen[nb] = True
                    root[nb] = start
                    step = chi_inv[k] if inverted else chi[k]
                    factor[nb] = step @ factor[cur]
                    queue.append(nb)
    return root, factor


def _constraint(root: np.ndarray, X: np.ndarray) -> sp.csr_matrix:
    """The map u[node] = X[node] @ u[root[node]] from free to nodal dofs,
    free nodes numbered in index order, zeros of X left out."""
    n, d, _ = X.shape
    free = root == np.arange(n)
    first = (np.cumsum(free) - 1)[root] * d  # first column of node's root
    i, a, b = np.nonzero(X)
    return sp.csr_matrix(
        (X[i, a, b], (i * d + a, first[i] + b)),
        shape=(n * d, np.count_nonzero(free) * d),
    )


def assemble(mesh: OctagonMesh, r: Representation) -> AssembledSystem:
    K, M = _scalar_forms(mesh)
    root, factor = _identifications(mesh, r)
    d = r.dim

    hermitian = unitarity_defect(r) <= _UNITARY_EPS

    C = _constraint(root, factor)
    if hermitian:
        D = C
    else:  # the test constraints carry the inverse-adjoint factors
        D = _constraint(root, np.linalg.inv(factor.conj().transpose(0, 2, 1)))

    eye = sp.identity(d, format="csr")
    Khat = (D.conj().T @ sp.kron(K, eye, format="csr") @ C).tocsr()
    Mhat = (D.conj().T @ sp.kron(M, eye, format="csr") @ C).tocsr()
    if hermitian:
        # symmetrize away last-bit asymmetry so the Hermitian solvers see
        # exactly Hermitian matrices
        Khat = ((Khat + Khat.conj().T) * 0.5).tocsr()
        Mhat = ((Mhat + Mhat.conj().T) * 0.5).tocsr()
    if not (np.any(Khat.data.imag) or np.any(Mhat.data.imag)):
        # copied: .real alone is a strided view, which SuperLU refuses
        Khat, Mhat = Khat.real.copy(), Mhat.real.copy()

    return AssembledSystem(
        K=Khat,
        M=Mhat,
        d=d,
        N_free=C.shape[1],
        is_hermitian=hermitian,
        mesh_h=mesh.mesh_h,
    )
