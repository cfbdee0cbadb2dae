"""Disk-model primitives: distances, axes, displacement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebench.hyperbolic import (
    axis_endpoints,
    axis_foot,
    canonical_sign,
    disk_apply,
    displacement,
    geodesic_midpoint,
    hyp_dist,
    mat_inv,
    mat_prod,
    psl_close,
    renormalize,
    trace,
    translation_length,
)

from reference import axis_dist_to_origin


def random_psl2r(rng, n=1, scale=1.0):
    m = rng.normal(size=(n, 2, 2)) * scale
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    m[det < 0] = m[det < 0][:, ::-1]  # swap rows to flip sign
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    keep = det > 1e-6
    return renormalize(m[keep])


def test_translation_length_diagonal():
    # diag(e^{l/2}, e^{-l/2}) translates by l along its axis
    for ell in (0.5, 1.0, 3.0571418389619964, 7.2):
        m = np.diag([np.exp(ell / 2), np.exp(-ell / 2)])
        assert translation_length(m) == pytest.approx(ell, abs=1e-13)
        # displacement of the origin equals l iff the axis passes through it
        assert displacement(m) == pytest.approx(ell, abs=1e-12)


def test_displacement_vs_axis_distance(rng):
    # cosh-rule: sinh(disp/2) = cosh(dist to axis) * sinh(l/2)
    mats = random_psl2r(rng, 40)
    hyp = np.abs(trace(mats)) > 2.05
    for m in mats[hyp]:
        ell = translation_length(m)
        rho = axis_dist_to_origin(m)
        lhs = np.sinh(displacement(m) / 2)
        rhs = np.cosh(rho) * np.sinh(ell / 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_displacement_conjugation_invariant_of_length(rng):
    # translation length is a conjugacy invariant; displacement is not
    mats = random_psl2r(rng, 10)
    conj = random_psl2r(rng, 10)
    for m in mats:
        if abs(trace(m)) <= 2.05:
            continue
        for p in conj:
            mc = mat_prod(p, m, mat_inv(p))
            assert translation_length(mc) == pytest.approx(
                translation_length(m), rel=1e-10
            )


def test_axis_endpoints_are_fixed(rng):
    mats = random_psl2r(rng, 30)
    for m in mats[np.abs(trace(mats)) > 2.1]:
        u, v = axis_endpoints(m)
        for w in (u, v):
            assert abs(abs(w) - 1.0) < 1e-10
            assert abs(disk_apply(m, w) - w) < 1e-8


def test_axis_foot_minimizes(rng):
    # the foot should be the closest axis point to the origin; sample the
    # axis by repeated geodesic bisection between z0 and m(z0)
    mats = random_psl2r(rng, 20)
    for m in mats[np.abs(trace(mats)) > 2.1]:
        z0 = axis_foot(m)
        best = hyp_dist(0, z0)
        assert axis_dist_to_origin(m) == pytest.approx(best, abs=1e-9)
        pts = [z0, disk_apply(m, z0), disk_apply(mat_inv(m), z0)]
        for _ in range(4):
            pts += [geodesic_midpoint(pts[0], p) for p in pts[1:]]
        for z in pts:
            assert hyp_dist(0, z) >= best - 1e-10


def test_geodesic_midpoint():
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) * 0.7
        w = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) * 0.7
        mid = geodesic_midpoint(z, w)
        a, b = hyp_dist(mid, z), hyp_dist(mid, w)
        assert a == pytest.approx(b, abs=1e-11)
        assert a + b == pytest.approx(hyp_dist(z, w), abs=1e-11)


def test_renormalize_extended_precision():
    # entries ~ e^{11/2}: det = ad - bc cancels catastrophically in double
    # precision, which used to shift normalized entries by ~5e-9 and break
    # hashing downstream; rescaling must be a no-op to much better than that
    ell = 11.0
    base = np.diag([np.exp(ell / 2), np.exp(-ell / 2)])
    q = renormalize(np.array([[2.0, 1.0], [1.0, 1.0]]))
    m = mat_prod(q, base, mat_inv(q))
    out = renormalize(m * 1.0000000001)
    assert np.max(np.abs(out - m)) < 1e-11 * np.max(np.abs(m))


def test_renormalize_matches_per_matrix_in_any_layout(rng):
    # the batch is scaled entry by entry in extended precision, whatever
    # the memory order of the input; each matrix alone gives the same bits
    m = rng.normal(size=(6, 2, 2)) + 3.0 * np.eye(2)
    for batch in (m, m.transpose(0, 2, 1), np.asfortranarray(m), m[::2]):
        one = np.stack([renormalize(x) for x in batch])
        assert np.array_equal(renormalize(batch), one)
        det = one[:, 0, 0] * one[:, 1, 1] - one[:, 0, 1] * one[:, 1, 0]
        assert np.allclose(det, 1.0, atol=1e-14)


def test_renormalize_rejects_nonpositive_det():
    with pytest.raises(ValueError):
        renormalize(np.array([[1.0, 2.0], [2.0, 1.0]]))  # det = -3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_canonical_sign_idempotent_and_psl_close(seed):
    rng = np.random.default_rng(seed)
    m = random_psl2r(rng, 4)
    if m.shape[0] == 0:
        return
    c = canonical_sign(m)
    assert np.allclose(canonical_sign(c), c)
    assert np.all(psl_close(m, -m, 1e-12))


def test_mat_prod_tracks_extended_precision_chain():
    # renormalizing with a double-precision det used to drift entries by
    # ~5e-9 over chains like this; with the longdouble det the chain stays
    # on top of an exact extended-precision reference product
    m = renormalize(np.array([[1.6, 0.5], [0.5, 1.0]]))
    p = m
    ref = m.astype(np.longdouble)
    for _ in range(12):
        p = mat_prod(p, m)
        ref = ref @ m.astype(np.longdouble)
    ref = ref / np.sqrt(ref[0, 0] * ref[1, 1] - ref[0, 1] * ref[1, 0])
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(p - ref.astype(float))) < 1e-12 * scale
