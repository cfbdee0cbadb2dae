import numpy as np
import pytest

from tracebench.analysis import TestFunction, phi_at
from tracebench.errors import TracebenchError, TruncationNotJustified
from tracebench.geomside import geometric_side
from tracebench.reps import character_rep
from tracebench.spectral.assemble import assemble
from tracebench.spectral.mesh import build_octagon_mesh
from tracebench.spectral.side import spectral_side, weyl_counting
from tracebench.spectral.solve import SpectrumResult, solve_spectrum

F42 = TestFunction(T=4.0, k=2)


def _spec(entries, d=1, mesh_h=0.1):
    return SpectrumResult(
        eigenvalues=tuple(entries), mesh_h=mesh_h, cluster_tol=1e-6, d=d
    )


def test_quarter_eigenvalue_contributes_phi_zero():
    base = _spec([(0j, 1, 0.0), (420.0 + 0j, 1, 0.0)])
    with_quarter = _spec(
        [(0j, 1, 0.0), (0.25 + 0j, 2, 0.0), (420.0 + 0j, 1, 0.0)]
    )
    delta = spectral_side(with_quarter, F42) - spectral_side(base, F42)
    assert abs(delta - 2 * phi_at(F42, 0.0)) <= 1e-15


def test_zero_eigenvalue_contributes_cosh_moment():
    # phi(i/2) as the cosh-weighted moment of the transform, checked
    # against a plain trapezoid oracle
    t = np.linspace(-F42.T, F42.T, 20001)
    oracle = np.trapezoid(F42.hat(t) * np.cosh(t / 2), t) / np.sqrt(2 * np.pi)
    val = phi_at(F42, np.sqrt(complex(-0.25)))
    assert abs(val - oracle) <= 1e-10
    spec = _spec([(0j, 1, 0.0), (420.0 + 0j, 1, 0.0)])
    total = spectral_side(spec, F42)
    assert abs(total - (val + phi_at(F42, np.sqrt(420.0 - 0.25)))) <= 1e-15


def test_branch_flip_is_immaterial():
    spec = _spec([(0j, 1, 0.0), (3.9 + 0.2j, 2, 0.0), (421.3 + 0j, 1, 0.0)])
    total = spectral_side(spec, F42)
    flipped = sum(
        m * phi_at(F42, -np.sqrt(lam - 0.25))
        for lam, m, _ in spec.eigenvalues
    )
    assert abs(total - flipped) <= 1e-12 * (1 + abs(total))


def test_spectral_side_equals_point_by_point_sum():
    # the sum over a batch of phi values must reproduce, bit for bit, the
    # left-to-right sum of one phi_at call per root
    spec = _spec([
        (0j, 1, 0.0), (0.1 + 0j, 1, 0.0), (0.25 + 0j, 2, 0.0),
        (3.9 + 0.2j, 2, 0.0), (3.9 - 0.2j, 2, 0.0), (17.5 + 0j, 3, 0.0),
        (60.0 + 1.5j, 1, 0.0), (421.3 + 0j, 1, 0.0),
    ])
    lams = np.array([lam for lam, _, _ in spec.eigenvalues])
    mults = np.array([m for _, m, _ in spec.eigenvalues])
    roots = np.sqrt(lams - 0.25)
    want = complex(sum(m * phi_at(F42, r) for m, r in zip(mults, roots)))
    assert spectral_side(spec, F42) == want


def test_odd_phi_is_an_error_not_an_assert(monkeypatch):
    # phi(-r) = -phi(r) makes the branch flip move the sum; the check must
    # raise even under python -O, which strips asserts
    import tracebench.spectral.side as side

    monkeypatch.setattr(side, "phi_values",
                        lambda f, lams: np.asarray(lams, dtype=complex))
    spec = _spec([(0j, 1, 0.0), (3.9 + 0.2j, 2, 0.0), (420.0 + 0j, 1, 0.0)])
    with pytest.raises(TracebenchError, match="even"):
        spectral_side(spec, F42)


def test_shallow_spectrum_rejected():
    spec = _spec([(0j, 1, 0.0), (25.0 + 0j, 1, 0.0)])
    with pytest.raises(TruncationNotJustified):
        spectral_side(spec, TestFunction(T=2.0, k=2))


def test_diagnostics_reported():
    spec = _spec([(0j, 1, 0.0), (420.0 + 0j, 1, 0.0)])
    diag = {}
    spectral_side(spec, F42, diagnostics=diag)
    assert set(diag) == {
        "lambda_max", "edge_value", "strict_decay_test",
        "tail_estimate", "tail_budget",
    }
    assert isinstance(diag["strict_decay_test"], bool)
    assert diag["tail_estimate"] >= 0


def test_weyl_counting_basics():
    spec = _spec([(float(j) + 0j, 1, 0.0) for j in range(1, 31)])
    rows = weyl_counting(spec, [5.5])
    r, n, pred = rows[0]
    assert (r, n) == (5.5, 5)
    assert abs(pred - 5.5) <= 1e-12  # d=1, vol=4pi: prediction = r
    with pytest.raises(ValueError):
        weyl_counting(spec, [11.0])  # above the trusted lower third
    with pytest.raises(ValueError):
        weyl_counting(spec, [-1.0])


def test_weyl_doubling_with_fiber_dimension():
    s1 = _spec([(float(j) + 0j, 1, 0.0) for j in range(1, 31)], d=1)
    s2 = _spec([(float(j) + 0j, 2, 0.0) for j in range(1, 31)], d=2)
    for (r1, n1, p1), (r2, n2, p2) in zip(
        weyl_counting(s1, [3.0, 7.0]), weyl_counting(s2, [3.0, 7.0])
    ):
        assert n2 == 2 * n1
        assert abs(p2 - 2 * p1) <= 1e-12


def test_trace_identity_closes_at_level4(group, classes_L6):
    r = character_rep((1, 1, 1, 1))
    spec = solve_spectrum(assemble(build_octagon_mesh(4, group), r), 250)
    s = spectral_side(spec, F42)
    rep = geometric_side(group, classes_L6, r, F42, L_max=6.0)
    assert abs(s - rep.total) / abs(rep.total) < 0.03
    # and the narrow window isolates the identity term
    f2 = TestFunction(T=2.0, k=2)
    s2 = spectral_side(spec, f2)
    rep2 = geometric_side(group, classes_L6, r, f2, L_max=6.0)
    assert rep2.class_contributions == ()
    assert abs(s2 - rep2.total) / abs(rep2.total) < 0.03
