"""P1 assembly with twisted boundary gluing.

The interior bilinear forms are untwisted: Euclidean Dirichlet energy for
the stiffness (conformally invariant in 2-D, so the hyperbolic metric
drops out) and the hyperbolic area weight (2/(1-|z|^2))^2 in the mass.
The representation enters only through the boundary identification: a
slave node carries chi(g_k) times the value at its master node, and the
corner orbit collapses to a single fiber through words in the pairings.

For non-unitary chi the test space is twisted by the dual representation
chi*(g) = (chi(g)^H)^{-1} instead of chi itself (a Petrov-Galerkin
pairing).  That choice makes the boundary flux terms cancel in the weak
form of the flat Laplacian, which plain Galerkin only achieves for
unitary chi; with plain Galerkin the assembled pencil would be Hermitian
and could never produce the complex spectra the non-selfadjoint operator
actually has.  When the defect is at unitary working precision the dual
twist coincides with chi and we use literally the same constraint matrix,
so the Hermitian structure is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import ConstraintCycleInconsistent
from ..reps import Representation, _word_image, unitarity_defect
from .mesh import OctagonMesh

_UNITARY_EPS = 1e-12
_CYCLE_TOL = 1e-6

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
    """Per-node constraint factors u[node] = X[node] @ u[root[node]].

    Nodes are grouped into components of the identification graph built
    from the side pairings; each component keeps its smallest node index
    as the free representative.  Every non-tree edge closes a cycle whose
    chi-product must be the identity (the corner cycle is the relator).
    """
    g = mesh.group
    chi = [
        _word_image(r, g.pairing_words[k]) for k in range(4)
    ]
    chi_inv = [np.linalg.inv(m) for m in chi]

    adj = {}
    for k, master, slave in mesh.boundary_pairing:
        for mi, si in zip(master.tolist(), slave.tolist()):
            adj.setdefault(si, []).append((mi, k, False))  # u[si]=chi_k u[mi]
            adj.setdefault(mi, []).append((si, k, True))  # u[mi]=chi_k^-1 u[si]

    eye = np.eye(r.dim, dtype=complex)
    factor = {}
    root_of = {}
    for root in sorted(adj):
        if root in root_of:
            continue
        # BFS over a new component from its smallest node, accumulating
        # factors: every smaller node already belongs to a finished component
        factor[root] = eye
        root_of[root] = root
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nb, k, inverted in adj[cur]:
                step = chi_inv[k] if inverted else chi[k]
                if nb not in root_of:
                    root_of[nb] = root
                    factor[nb] = step @ factor[cur]
                    queue.append(nb)
                else:
                    # closed cycle: factors must be consistent
                    dev = np.max(np.abs(step @ factor[cur] - factor[nb]))
                    if dev > _CYCLE_TOL:
                        raise ConstraintCycleInconsistent(
                            "cycle deviation %.3e at node %d" % (dev, nb)
                        )
    return factor, root_of


def assemble(mesh: OctagonMesh, r: Representation) -> AssembledSystem:
    K, M = _scalar_forms(mesh)
    factor, root_of = _identifications(mesh, r)

    n = mesh.vertices.size
    d = r.dim
    free_nodes = [i for i in range(n) if root_of.get(i, i) == i]
    free_index = {node: p for p, node in enumerate(free_nodes)}
    n_free = len(free_nodes)

    defect = unitarity_defect(r)
    hermitian = defect <= _UNITARY_EPS

    def _constraint(blocks):
        rows, cols, vals = [], [], []
        for node in range(n):
            root = root_of.get(node, node)
            p = free_index[root]
            X = blocks.get(node)
            B = np.eye(d, dtype=complex) if X is None else X
            for a in range(d):
                for b in range(d):
                    if B[a, b] != 0:
                        rows.append(node * d + a)
                        cols.append(p * d + b)
                        vals.append(B[a, b])
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=(n * d, n_free * d), dtype=complex
        )

    C = _constraint(factor)
    if hermitian:
        D = C
    else:
        dual = {
            node: np.linalg.inv(X.conj().T) for node, X in factor.items()
        }
        D = _constraint(dual)

    if d > 1:
        Kbig = sp.kron(K, sp.identity(d, format="csr"), format="csr")
        Mbig = sp.kron(M, sp.identity(d, format="csr"), format="csr")
    else:
        Kbig, Mbig = K.astype(complex), M.astype(complex)

    Khat = (D.conj().T @ Kbig @ C).tocsr()
    Mhat = (D.conj().T @ Mbig @ C).tocsr()
    if hermitian:
        # symmetrize away last-bit asymmetry so the Hermitian solvers see
        # exactly Hermitian matrices
        Khat = ((Khat + Khat.conj().T) * 0.5).tocsr()
        Mhat = ((Mhat + Mhat.conj().T) * 0.5).tocsr()

    return AssembledSystem(
        K=Khat,
        M=Mhat,
        d=d,
        N_free=n_free * d,
        is_hermitian=hermitian,
        mesh_h=mesh.mesh_h,
    )
