import numpy as np
import pytest

from tracebench.errors import MeshQualityFailure
from tracebench.hyperbolic import disk_apply, hyp_dist
from tracebench.spectral.mesh import build_octagon_mesh

_CORNERS = range(1, 9)  # created right after the center at level 0


def test_vertex_and_triangle_counts(group):
    # V = 4*4^l + 4*2^l + 1 from the Euler count of the glued surface,
    # T = 8*4^l from the fan of 8 triangles splitting 1->4
    prev_t = None
    for level in range(5):
        mesh = build_octagon_mesh(level, group)
        assert mesh.vertices.size == 4 * 4**level + 4 * 2**level + 1
        assert mesh.triangles.shape == (8 * 4**level, 3)
        if prev_t is not None:
            assert mesh.triangles.shape[0] == 4 * prev_t
        prev_t = mesh.triangles.shape[0]


def test_corner_layout(group):
    mesh = build_octagon_mesh(0, group)
    assert mesh.vertices[0] == 0
    corners = mesh.vertices[list(_CORNERS)]
    assert np.allclose(np.abs(corners), 2.0 ** -0.25, atol=1e-14)
    angles = np.sort(np.angle(corners) % (2 * np.pi))
    want = np.pi / 8 + np.arange(8) * np.pi / 4
    assert np.allclose(angles, np.sort(want % (2 * np.pi)), atol=1e-14)


def test_corners_single_orbit(group):
    # union-find over the pairing endpoints: all 8 corners must land in
    # one identification class
    for level in (0, 2):
        mesh = build_octagon_mesh(level, group)
        parent = {}

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for _, master, slave in mesh.boundary_pairing:
            for m, s in zip(master.tolist(), slave.tolist()):
                parent[find(m)] = find(s)
        roots = {find(c) for c in _CORNERS}
        assert len(roots) == 1
        assert find(0) not in roots  # the center is interior


def test_pairing_residual_all_levels(group):
    # slave nodes are images of master nodes under the side pairings;
    # recheck with the Mobius maps directly
    for level in range(6):
        mesh = build_octagon_mesh(level, group)
        worst = 0.0
        for k, master, slave in mesh.boundary_pairing:
            img = [disk_apply(group.pairings[k], z)
                   for z in mesh.vertices[master]]
            worst = max(
                worst,
                max(hyp_dist(a, b)
                    for a, b in zip(img, mesh.vertices[slave])),
            )
        assert worst <= 1e-10, f"level {level}: residual {worst}"


def test_boundary_lists_sized_and_aligned(group):
    mesh = build_octagon_mesh(3, group)
    assert len(mesh.boundary_pairing) == 4
    for k, master, slave in mesh.boundary_pairing:
        assert len(master) == len(slave) == 2**3 + 1
        assert 0 <= k < 4


def test_quality_invariants(group):
    for level in range(5):
        mesh = build_octagon_mesh(level, group)
        p = mesh.vertices[mesh.triangles]
        x, y = p.real, p.imag
        area = 0.5 * (
            (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
        )
        assert area.min() > 0
        # min corner angle via the law of cosines on each vertex
        for shift in range(3):
            a = p[:, shift]
            b = p[:, (shift + 1) % 3]
            c = p[:, (shift + 2) % 3]
            u, v = b - a, c - a
            cosang = (u.real * v.real + u.imag * v.imag) / (np.abs(u) * np.abs(v))
            ang = np.degrees(np.arccos(np.clip(cosang, -1, 1)))
            assert ang.min() >= 15.0


def test_mesh_h_shrinks(group):
    hs = [build_octagon_mesh(level, group).mesh_h for level in range(6)]
    for h0, h1 in zip(hs, hs[1:]):
        assert 0.4 < h1 / h0 < 0.7


def test_refinement_is_nested(group):
    # refinement appends vertices, never moves old ones
    coarse = build_octagon_mesh(2, group)
    fine = build_octagon_mesh(3, group)
    n = coarse.vertices.size
    assert np.array_equal(coarse.vertices, fine.vertices[:n])


def test_level_out_of_range(group):
    with pytest.raises(ValueError):
        build_octagon_mesh(-1, group)
    with pytest.raises(ValueError):
        build_octagon_mesh(8, group)
