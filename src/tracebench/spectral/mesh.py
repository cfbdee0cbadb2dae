"""Octagon mesh in the Poincare disk with paired boundary.

Level 0 is the fan of 8 triangles from the center to the corners of the
regular geodesic octagon (interior angles pi/4, corners at Euclidean
radius 2^(-1/4)).  Refinement is 1->4 edge-midpoint subdivision: interior
edges split at the Euclidean midpoint, boundary edges at the hyperbolic
midpoint of their geodesic side.  Slave-side nodes are never computed on
their own: they are defined as the Mobius images of the master-side
nodes, so the node correspondence is exact by construction.

Sides are numbered by the angle of their midpoint, side k at angle
k*pi/4; side k is spanned by corners k-1 and k (corner j sits at angle
pi/8 + j*pi/4).  The pairing g_k maps side k+4 onto side k; sides 4..7
are the masters, sides 0..3 the slaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MeshQualityFailure
from ..fuchsian import SurfaceGroup
from ..hyperbolic import disk_apply, geodesic_midpoint, hyp_dist

_MIN_ANGLE_DEG = 15.0


@dataclass(frozen=True)
class OctagonMesh:
    vertices: np.ndarray  # (V,) complex, Poincare disk coordinates
    triangles: np.ndarray  # (T, 3) int, positively oriented
    boundary_pairing: tuple  # ((gen index k, master nodes, slave nodes), ...)
    group: SurfaceGroup
    mesh_h: float  # max hyperbolic edge length


def _check_quality(verts: np.ndarray, tris: np.ndarray):
    p = verts[tris]  # (T, 3) complex
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    cross = np.imag(np.conj(b - a) * (c - a))
    if np.any(cross <= 0):
        raise MeshQualityFailure("non-positively-oriented triangle")
    angles = []
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        e1, e2 = v - u, w - u
        cosang = (e1 * np.conj(e2)).real / (np.abs(e1) * np.abs(e2))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    worst = float(np.min(angles))
    if worst < _MIN_ANGLE_DEG:
        raise MeshQualityFailure(
            "min triangle angle %.2f deg below %.1f" % (worst, _MIN_ANGLE_DEG)
        )


def build_octagon_mesh(level: int, group: SurfaceGroup) -> OctagonMesh:
    if not (0 <= level <= 7):
        raise ValueError("refinement level must be in [0, 7], got %r" % level)

    corner_r = 2.0 ** (-0.25)
    verts = [0.0 + 0.0j]
    verts += [
        corner_r * np.exp(1j * (np.pi / 8 + j * np.pi / 4)) for j in range(8)
    ]
    corner = list(range(1, 9))
    # triangle fan; (center, corner j, corner j+1) is already positive
    tris = [(0, corner[j], corner[(j + 1) % 8]) for j in range(8)]

    # ordered node lists per side, aligned so that for k = 0..3 the slave
    # list of side k is the image of the master list of side k+4:
    # g_k sends corner k+3 -> corner k and corner k+4 -> corner k+7
    master_lists = {
        k + 4: [corner[(k + 3) % 8], corner[(k + 4) % 8]] for k in range(4)
    }
    slave_lists = {k: [corner[k % 8], corner[(k + 7) % 8]] for k in range(4)}

    for _ in range(level):
        verts, tris, master_lists, slave_lists = _refine(
            group, verts, tris, master_lists, slave_lists
        )

    varr = np.asarray(verts, dtype=complex)
    tarr = np.asarray(tris, dtype=np.int64)
    _check_quality(varr, tarr)

    pairing = tuple(
        (
            k,
            np.asarray(master_lists[k + 4], dtype=np.int64),
            np.asarray(slave_lists[k], dtype=np.int64),
        )
        for k in range(4)
    )
    # exactness of the correspondence is a construction invariant; verify
    # it anyway, cheap insurance against orientation bookkeeping bugs
    for k, master, slave in pairing:
        img = disk_apply(group.pairings[k], varr[master])
        dist = np.max(hyp_dist(img, varr[slave]))
        if dist > 1e-10:
            raise MeshQualityFailure(
                "pairing residual %.2e on side %d" % (dist, k)
            )

    edges = np.concatenate(
        [tarr[:, [0, 1]], tarr[:, [1, 2]], tarr[:, [2, 0]]], axis=0
    )
    h = float(np.max(hyp_dist(varr[edges[:, 0]], varr[edges[:, 1]])))

    return OctagonMesh(
        vertices=varr,
        triangles=tarr,
        boundary_pairing=pairing,
        group=group,
        mesh_h=h,
    )


def _refine(g, verts, tris, master_lists, slave_lists):
    verts = list(verts)
    edge_mid = {}

    def _register(a, b, idx):
        edge_mid[(min(a, b), max(a, b))] = idx

    # master sides first: true hyperbolic midpoints on the geodesic side
    new_masters = {}
    new_mid_of = {}  # side pair position -> master midpoint index
    for side, nodes in master_lists.items():
        out = [nodes[0]]
        for i in range(len(nodes) - 1):
            a, b = nodes[i], nodes[i + 1]
            z = geodesic_midpoint(verts[a], verts[b])
            verts.append(z)
            idx = len(verts) - 1
            _register(a, b, idx)
            new_mid_of[(side, i)] = idx
            out += [idx, b]
        new_masters[side] = out

    # slave sides: images of the new master midpoints, index-aligned
    new_slaves = {}
    for k in range(4):
        nodes = slave_lists[k]
        out = [nodes[0]]
        for i in range(len(nodes) - 1):
            a, b = nodes[i], nodes[i + 1]
            m_idx = new_mid_of[(k + 4, i)]
            z = disk_apply(g.pairings[k], verts[m_idx])
            verts.append(z)
            idx = len(verts) - 1
            _register(a, b, idx)
            out += [idx, b]
        new_slaves[k] = out

    def _mid(a, b):
        key = (min(a, b), max(a, b))
        idx = edge_mid.get(key)
        if idx is None:
            verts.append(0.5 * (verts[a] + verts[b]))
            idx = len(verts) - 1
            edge_mid[key] = idx
        return idx

    new_tris = []
    for a, b, c in tris:
        ab, bc, ca = _mid(a, b), _mid(b, c), _mid(c, a)
        new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return verts, new_tris, new_masters, new_slaves
