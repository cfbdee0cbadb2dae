"""Test functions, phi evaluation, identity term.

Frozen expected values were produced by an independent trapezoid oracle
(spectrally accurate here: every derivative of the mollifier transform
vanishes at both endpoints of its support), which is also run inline for
one configuration.
"""

import numpy as np
import pytest

from tracebench.analysis import (
    TestFunction,
    _phi_many,
    fourier_roundtrip,
    identity_term,
    phi_at,
    phi_values,
    plancherel_density,
)
from tracebench.errors import ArgumentOutOfStrip, QuadratureNotConverged


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


def test_strip_guard():
    f = TestFunction(T=2.0, k=2)
    with pytest.raises(ArgumentOutOfStrip):
        phi_at(f, 1.0 + 26.0j)
    # right at the boundary is fine
    phi_at(f, 1.0 + 24.9j)


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
    # one point beyond the strip rejects the whole batch
    with pytest.raises(ArgumentOutOfStrip):
        phi_values(f, np.append(pts, 1.0 + 13.0j))


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


def test_identity_term_oracle_and_diagnostics():
    T, k = 2.0, 2
    f = TestFunction(T=T, k=k)
    lam = np.linspace(0, 200, 100001)
    phis = np.empty_like(lam)
    for i in range(0, lam.size, 1000):
        phis[i : i + 1000] = _oracle_phi(T, k, lam[i : i + 1000])
    oracle = 4 * np.pi * np.trapezoid(phis * plancherel_density(lam), lam)
    diag = {}
    mine = identity_term(f, 1, 4 * np.pi, diagnostics=diag)
    assert mine == pytest.approx(oracle, rel=1e-8)
    assert diag["lambda_max"] > 20
    assert diag["tail_estimate"] <= 1e-9 * abs(mine)


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
        # aliasing noise that panel refinement can never settle
        T = 2.0

        def hat(self, t):
            t = np.asarray(t, dtype=float)
            return np.cos(1.7e7 * t) ** 2

    with pytest.raises(QuadratureNotConverged):
        phi_at(RoughHat(), 1.0)
