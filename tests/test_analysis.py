"""Test functions, phi evaluation, identity term.

Frozen expected values were produced by an independent trapezoid oracle
(spectrally accurate here: every derivative of the mollifier transform
vanishes at both endpoints of its support), which is also run inline for
one configuration.
"""

import numpy as np
import pytest

from tracebench import analysis
from tracebench.analysis import (
    TestFunction,
    _gauss_nodes,
    _phi_many,
    identity_term,
    phi_at,
    phi_values,
    plancherel_density,
)
from tracebench.errors import QuadratureNotConverged

from reference import fourier_roundtrip


def _oracle_phi(T, k, lams):
    t = np.linspace(0, T, 4001)
    with np.errstate(divide="ignore"):
        expo = -k * T * T / np.maximum(T * T - t * t, 1e-300)
    hat = np.exp(expo)
    hat[-1] = 0.0
    out = np.trapezoid(hat[None, :] * np.cos(t[None, :] * lams[:, None]), t, axis=1)
    return 2 * out / np.sqrt(2 * np.pi)


def test_mollifier_shape():
    f = TestFunction(T=2.0, k=2)
    assert f.hat(2.0) == 0.0
    assert f.hat(-2.0) == 0.0
    assert f.hat(5.0) == 0.0
    assert f.hat(0.0) == pytest.approx(np.exp(-2.0), rel=1e-15)
    assert f.hat(0.6) == f.hat(-0.6)
    with pytest.raises(ValueError):
        TestFunction(T=-1.0, k=2)
    with pytest.raises(ValueError):
        TestFunction(T=2.0, k=0)


def test_phi_matches_oracle():
    lams = np.linspace(0.0, 6.0, 13)
    for T, k in ((2.0, 1), (4.0, 2)):
        f = TestFunction(T=T, k=k)
        want = _oracle_phi(T, k, lams)
        got = np.array([phi_at(f, x).real for x in lams])
        assert np.max(np.abs(got - want)) < 1e-12


def test_phi_even_complex(rng):
    f = TestFunction(T=2.0, k=2)
    for _ in range(100):
        lam = complex(rng.uniform(-5, 5), rng.uniform(-20, 20))
        assert abs(phi_at(f, lam) - phi_at(f, -lam)) <= 1e-12 * max(
            1.0, abs(phi_at(f, lam))
        )


def test_phi_real_on_axes(rng):
    f = TestFunction(T=2.0, k=2)
    for _ in range(20):
        v = phi_at(f, rng.uniform(-4, 4))
        assert abs(v.imag) <= 1e-12 * abs(v) + 1e-300
        w = phi_at(f, 1j * rng.uniform(-20, 20))
        assert abs(w.imag) <= 1e-12 * abs(w) + 1e-300
    assert phi_at(f, 0.5j).real > 0


def test_phi_peak_at_zero():
    f = TestFunction(T=2.0, k=1)
    p0 = phi_at(f, 0.0).real
    for x in np.linspace(0.05, 8.0, 40):
        assert abs(phi_at(f, x)) <= p0 + 1e-15


def test_paley_wiener_bound():
    f = TestFunction(T=2.0, k=2)
    t = np.linspace(0, f.T, 4001)
    hat_l1 = 2 * np.trapezoid(f.hat(t), t)
    rng = np.random.default_rng(3)
    for _ in range(30):
        lam = complex(rng.uniform(-6, 6), rng.uniform(-24, 24))
        bound = hat_l1 / np.sqrt(2 * np.pi) * np.exp(f.T * abs(lam.imag))
        assert abs(phi_at(f, lam)) <= bound * (1 + 1e-10)


# last move at 512 panels and the one-point tolerance it misses
_MISSES = {60 + 3j: ("1.089e-15", "1.001e-15"),
           40 + 5j: ("3.853e-13", "9.971e-14"),
           40 + 3j: ("4.127e-14", "1.210e-15")}


@pytest.mark.parametrize("T, lam", [(4.0, 60 + 3j), (4.0, 40 + 5j), (5.5, 40 + 3j)])
def test_unsettled_point_alone_raises_with_its_miss(T, lam):
    # still moving at 512 panels: alone, a point is held to its own
    # settle test, and the message says by how much it misses
    f = TestFunction(T=T, k=2)
    move, tol = _MISSES[lam]
    for z in (lam, -lam.conjugate()):
        with pytest.raises(QuadratureNotConverged) as info:
            phi_at(f, z)
        miss = "last move %s after 512 panels, tolerance %s" % (move, tol)
        assert miss in str(info.value)


def test_unsettled_point_accepted_at_the_batch_scale():
    # 60+3j moves by 1.1e-15 at 512 panels, within 1e-12 of the batch's
    # largest |phi| (0.168 at 0.5), and keeps its 512-panel value
    f = TestFunction(T=4.0, k=2)
    got = phi_values(f, np.array([0.5, 60 + 3j]))
    assert got[1] == complex(analysis._phi_settled(f, np.array([60 + 3j]))[0][0])
    with pytest.raises(QuadratureNotConverged, match=r"\(40\+5j\)"):
        phi_values(f, np.array([0.5, 40 + 5j]))  # misses by 3.9e-13 > 1.7e-13


def test_overflowing_cosine_raises_without_a_warning():
    # T Im lam = 800 > 709: cosh overflows, the value is not finite, and
    # the quadrature's verdict is the error (warnings fail the suite)
    f = TestFunction(T=2.0, k=2)
    with pytest.raises(QuadratureNotConverged, match="nan"):
        phi_at(f, 1.0 + 400.0j)
    with pytest.raises(QuadratureNotConverged, match=r"\(1\+400j\)"):
        phi_values(f, np.array([0.5, 1.0 + 400.0j]))


# (T, k, lam): points the retired strip guard rejected before any
# quadrature ran, each accepted in a batch with 0.5i.  First the two
# points of T = 7, k = 2 at T Im lam = 20 and T Re lam = 180 and 420, the
# farthest from 30-digit quadrature and from a fine trapezoid on an
# accuracy map; then 60+3j and 40+3j, which do not settle alone, the
# Sym^2 root that stopped a verify run, the strip's test points 1+26j
# and 1+300j, and a spread over T, k and T Re lam up to 1500.  The
# largest deviation is 2.1e-12 of the batch peak, at the first point.
_GUARD_REJECTED = [
    (7.0, 2, (180 + 20j) / 7), (7.0, 2, (420 + 20j) / 7),
    (4.0, 2, 60 + 3j), (5.5, 2, 40 + 3j),
    (7.0, 2, 15.491237210260126 - 1.460010592603034j),
    (2.0, 2, 1 + 26j), (2.0, 2, 1 + 300j),
    (2.0, 2, 75 + 10j), (2.0, 2, 450 + 10j), (2.0, 3, 210 + 10j),
    (2.0, 1, 750 + 2.5j), (4.0, 2, 37.5 + 5j), (4.0, 3, 37.5 + 11.25j),
    (4.0, 1, 375 + 1.25j), (5.5, 3, (150 + 20j) / 5.5),
    (5.5, 3, (150 + 45j) / 5.5), (5.5, 1, (420 + 5j) / 5.5),
    (7.0, 1, (420 + 5j) / 7), (7.0, 3, (900 + 20j) / 7),
    (7.0, 3, (150 + 45j) / 7),
]


@pytest.mark.parametrize("T, k, lam", _GUARD_REJECTED)
def test_phi_matches_mpmath_at_the_batch_scale(T, k, lam):
    # an oracle independent of the panel rule: tanh-sinh quadrature at 30
    # digits, over pieces of about 2.5 periods of the cosine
    import mpmath  # in the test extra
    got = phi_values(TestFunction(T=T, k=k), np.array([0.5j, lam]))
    with mpmath.workdps(30):
        Tm, z = mpmath.mpf(T), mpmath.mpc(lam.real, lam.imag)
        pieces = mpmath.linspace(0, Tm, max(2, int(T * abs(lam.real) / 16)) + 1)
        want = complex(2 / mpmath.sqrt(2 * mpmath.pi) * mpmath.quad(
            lambda t: mpmath.exp(-k * Tm**2 / (Tm**2 - t**2)) * mpmath.cos(t * z),
            pieces))
    assert abs(got[1] - want) <= 1e-11 * np.max(np.abs(got))


def _one_point(f, lam):
    """phi at lam as a one-point batch of _phi_many, real on both axes."""
    lam = complex(lam)
    if lam.imag == 0.0:
        return complex(_phi_many(f, np.array([lam.real]))[0])
    val = _phi_many(f, np.array([lam]))[0]
    return complex(val.real) if lam.real == 0.0 else complex(val)


def test_phi_values_bitwise_equal_to_single_points():
    f = TestFunction(T=4.0, k=2)
    # roots sqrt(lam - 1/4) of a mixed spectrum and their negatives: real
    # roots (those of the flipped branch have imaginary part -0.0),
    # imaginary-axis roots (lam = 0 gives i/2) and complex roots.  Most
    # settle at 16 panels; 40+2j needs 32 and 80+2j needs 64, so a batch
    # that stopped all points together would change their bits.
    lams = np.array([0.0, 0.1, 0.25, 3.85, 420.0,
                     3.9 + 0.2j, 3.9 - 0.2j, 60.0 + 1.5j, 0.3 - 5.0j])
    roots = np.sqrt(lams - 0.25)
    extra = [complex(1.5, -0.0), 7.25, -3.0j, 40.0 + 2.0j, 80.0 + 2.0j]
    pts = np.concatenate([roots, -roots, extra])
    got = phi_values(f, pts)
    assert got.shape == pts.shape and got.dtype == complex
    for lam, val in zip(pts, got):
        want = _one_point(f, lam)
        assert val == want, lam
        if lam.imag == 0.0 or lam.real == 0.0:
            assert val.imag == 0.0, lam
    assert phi_at(f, 0.5j) == complex(got[np.flatnonzero(pts == 0.5j)[0]])
    # far up the imaginary direction, phi is large but still evaluates
    assert np.isfinite(phi_values(f, np.append(pts, 1.0 + 13.0j))[-1])


def test_gauss_nodes_cached_and_read_only():
    x, w = _gauss_nodes(32)
    assert _gauss_nodes(32)[0] is x and _gauss_nodes(32)[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    x0, w0 = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(x, x0) and np.array_equal(w, w0)


def test_plancherel_density_basics():
    assert plancherel_density(0.0) == 0.0
    lam = np.linspace(-8, 8, 41)
    vals = plancherel_density(lam)
    assert np.all(vals >= 0)
    assert np.allclose(vals, plancherel_density(-lam))


def test_identity_term_frozen_values():
    vol = 4 * np.pi
    # values pinned from two independent quadratures agreeing to ~1e-10
    assert identity_term(TestFunction(T=2.0, k=2), 1, vol) == pytest.approx(
        0.2917478748, abs=2e-9
    )
    assert identity_term(TestFunction(T=4.0, k=2), 1, vol) == pytest.approx(
        0.1348439029, abs=2e-9
    )
    assert identity_term(TestFunction(T=2.0, k=1), 1, vol) == pytest.approx(
        0.596514428, abs=3e-8
    )


def test_identity_term_linearity():
    f = TestFunction(T=2.0, k=2)
    base = identity_term(f, 1, 4 * np.pi)
    assert identity_term(f, 3, 4 * np.pi) == pytest.approx(3 * base, rel=1e-13)
    assert identity_term(f, 1, 8 * np.pi) == pytest.approx(2 * base, rel=1e-13)
    with pytest.raises(ValueError):
        identity_term(f, 0, 4 * np.pi)
    with pytest.raises(ValueError):
        identity_term(f, 1, -1.0)


def test_identity_term_matches_oracle():
    # the integrand is even in lam and negligible well before 200, so the
    # trapezoid rule at step 0.1 agrees with step 0.002 to 7e-15 relative
    T, k = 2.0, 2
    f = TestFunction(T=T, k=k)
    lam = np.linspace(0, 200, 2001)
    phis = np.empty_like(lam)
    for i in range(0, lam.size, 1000):
        phis[i : i + 1000] = _oracle_phi(T, k, lam[i : i + 1000])
    oracle = 4 * np.pi * np.trapezoid(phis * plancherel_density(lam), lam)
    mine = identity_term(f, 1, 4 * np.pi)
    assert mine == pytest.approx(oracle, rel=1e-8)


def test_fourier_roundtrip():
    assert fourier_roundtrip(TestFunction(T=2.0, k=1)) <= 1e-8
    assert fourier_roundtrip(TestFunction(T=4.0, k=2)) <= 1e-8


def test_fourier_roundtrip_zero_function():
    class ZeroHat:
        T = 2.0

        def hat(self, t):
            return np.zeros_like(np.asarray(t, dtype=float))

    assert fourier_roundtrip(ZeroHat()) == 0.0


def test_quadrature_guard_on_rough_integrand():
    class RoughHat:
        # aliasing noise that panel refinement can never settle; k is
        # named in the error message
        T = 2.0
        k = 1

        def hat(self, t):
            t = np.asarray(t, dtype=float)
            return np.cos(1.7e7 * t) ** 2

    with pytest.raises(QuadratureNotConverged):
        phi_at(RoughHat(), 1.0)
