"""Acceptance suite: one test per criterion, run last (alphabetical after
the unit files does not matter; pytest executes in file order given).

Each test prints a single summary line; `pytest -v` shows the pass/fail
verdict per criterion.  The expensive eigensolves are shared through
module fixtures, so the whole file runs in a few minutes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from reference import conjugate_rep, fourier_roundtrip, similar_rep
from test_fuchsian import _SYSTOLE, _oracle_classes

from tracebench.analysis import TestFunction, phi_at
from tracebench.fuchsian import (
    enumerate_classes,
    evaluate_word,
    free_reduce,
    word_inverse,
)
from tracebench.geomside import geometric_side
from tracebench.reps import character_rep, from_generator_images, trace_on_class
from tracebench.spectral import (
    assemble,
    build_octagon_mesh,
    solve_spectrum,
    spectral_side,
    weyl_counting,
    weyl_window,
)

TS = (2.0, 4.0, 5.5)
THRESHOLD = 0.05


def _fns():
    return [TestFunction(T=t, k=2) for t in TS]


def _flat(spec):
    return np.concatenate([[lam] * m for lam, m, _ in spec.eigenvalues])


@pytest.fixture(scope="module")
def mesh5(group):
    return build_octagon_mesh(5, group)


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def spec900(group, mesh5, timings):
    t0 = time.time()
    sys = assemble(mesh5, character_rep((1, 1, 1, 1)))
    spec = solve_spectrum(sys, 900)
    timings["trivial"] = time.time() - t0
    return spec


@pytest.fixture(scope="module")
def spec_e03(group, mesh5):
    sys = assemble(mesh5, character_rep((np.exp(0.3), 1, 1, 1)))
    return solve_spectrum(sys, 600)


@pytest.fixture(scope="module")
def spec_unit(group, mesh5):
    sys = assemble(mesh5, character_rep((np.exp(1j * np.pi / 3), 1, 1, 1)))
    return solve_spectrum(sys, 600)


@pytest.mark.slow
def test_criterion_1_trace_residual_trivial(group, classes_L6, spec900, timings):
    r = character_rep((1, 1, 1, 1))
    t0 = time.time()
    rels = []
    for f in _fns():
        s = spectral_side(spec900, f, group.covolume)
        g = geometric_side(group, classes_L6, r, f, L_max=6.0)
        rels.append(abs(s - g.total) / abs(g.total))
    elapsed = timings["trivial"] + (time.time() - t0)
    line = "criterion 1: rel residuals " + ", ".join(
        "T=%g: %.2e" % (t, q) for t, q in zip(TS, rels)
    ) + "  (%.0fs)" % elapsed
    print(line)
    assert all(q <= THRESHOLD for q in rels), line
    assert elapsed <= 900


@pytest.mark.slow
def test_criterion_2_nonunitary_residual(group, classes_L6, spec_e03):
    r = character_rep((np.exp(0.3), 1, 1, 1))
    lam = _flat(spec_e03)
    scale = np.abs(lam).max()
    max_im = np.abs(lam.imag).max()
    rels, im_fracs = [], []
    for f in _fns():
        s = spectral_side(spec_e03, f, group.covolume)
        g = geometric_side(group, classes_L6, r, f, L_max=6.0)
        rels.append(abs(s - g.total) / abs(g.total))
        im_fracs.append(abs(s.imag) / abs(s))
    line = (
        "criterion 2: max|Im lam|=%.3f (floor %.3f), rel "
        % (max_im, 1e-4 * scale)
        + ", ".join("%.2e" % q for q in rels)
        + ", spectral-side imag fraction max %.1e" % max(im_fracs)
    )
    print(line)
    assert max_im > 1e-4 * scale, line
    assert all(q <= THRESHOLD for q in rels), line
    assert all(q <= 1e-6 for q in im_fracs), line


@pytest.mark.slow
def test_criterion_3_unitary_reality(group, classes_L6, spec_unit):
    r = character_rep((np.exp(1j * np.pi / 3), 1, 1, 1))
    lam = _flat(spec_unit)
    worst = (np.abs(lam.imag) / (1 + np.abs(lam))).max()
    rels = []
    for f in _fns():
        s = spectral_side(spec_unit, f, group.covolume)
        g = geometric_side(group, classes_L6, r, f, L_max=6.0)
        rels.append(abs(s - g.total) / abs(g.total))
    line = "criterion 3: worst |Im|/(1+|lam|)=%.1e, rel " % worst + ", ".join(
        "%.2e" % q for q in rels
    )
    print(line)
    assert worst <= 1e-8, line
    assert all(q <= THRESHOLD for q in rels), line


@pytest.mark.slow
def test_criterion_4_weyl_law(group, spec900):
    trusted = weyl_window(spec900)
    rs = np.linspace(trusted / 3.0, 2.0 * trusted / 3.0, 11)
    ratios = [
        n / pred for _, n, pred in weyl_counting(spec900, rs, group.covolume)
    ]
    # fiber doubling, exact, on a coarser mesh
    mesh4 = build_octagon_mesh(4, group)
    s1 = solve_spectrum(assemble(mesh4, character_rep((1, 1, 1, 1))), 120)
    s2 = solve_spectrum(
        assemble(mesh4, from_generator_images([np.eye(2)] * 4)), 240
    )
    rs4 = np.linspace(5.0, min(
        np.abs(_flat(s1)).max(), np.abs(_flat(s2)).max()) / 3.0, 7)
    doubling = all(
        n2 == 2 * n1
        for (_, n1, _), (_, n2, _) in zip(
            weyl_counting(s1, rs4, group.covolume),
            weyl_counting(s2, rs4, group.covolume),
        )
    )
    line = "criterion 4: ratios in [%.4f, %.4f] on window [%.0f, %.0f], doubling %s" % (
        min(ratios), max(ratios), rs[0], rs[-1], doubling,
    )
    print(line)
    assert all(0.9 <= q <= 1.1 for q in ratios), line
    assert doubling, line


def test_criterion_5_length_spectrum_oracle(group):
    classes = enumerate_classes(group, 4.0)
    oracle = _oracle_classes(group, 4.0)
    got = sorted(c.length for c in classes)
    want = sorted(
        2.0 * np.arccosh(abs(np.trace(m)) / 2.0) for m in oracle
    )
    line = "criterion 5: %d classes vs %d oracle classes, systole dev %.1e" % (
        len(classes), len(oracle),
        abs(min(c.length for c in classes) - _SYSTOLE),
    )
    print(line)
    assert len(classes) == len(oracle), line
    assert np.allclose(got, want, atol=1e-9), line
    assert all(c.power == 1 for c in classes), line  # none below 2*systole
    assert abs(min(c.length for c in classes) - _SYSTOLE) <= 1e-9, line


def test_criterion_6_discriminant_closed_form(classes_L6):
    worst = 0.0
    for c in classes_L6:
        mu = np.abs(np.linalg.eigvals(c.rep_matrix)).max()
        ell = 2.0 * np.log(mu)
        alt = np.exp(-ell / 2.0) * abs(np.exp(ell) - 1.0)
        worst = max(worst, abs(alt - c.discriminant))
    line = "criterion 6: max |2 sinh(l/2) - weight from diagonalization| = %.2e" % worst
    print(line)
    assert worst <= 1e-12, line


def test_criterion_7_invariance_suite(group, classes_L6, rng):
    checks = {}

    # (a) conjugation invariance of class traces
    r2 = from_generator_images(group.generators)
    rc = character_rep((1.1 * np.exp(0.4j), 1, 1, 1))
    dev = 0.0
    for c in classes_L6[:40]:
        base2 = trace_on_class(r2, c)
        basec = trace_on_class(rc, c)
        for _ in range(3):
            h = tuple(int(x) for x in rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], 3))
            w = free_reduce(h + c.rep_word + word_inverse(h))
            conj = replace(c, rep_word=w, rep_matrix=evaluate_word(group, w))
            dev = max(dev, abs(trace_on_class(r2, conj) - base2))
            dev = max(dev, abs(trace_on_class(rc, conj) - basec))
    checks["conj_trace"] = (dev, 1e-10)

    # (b) similarity invariance of spectra
    mesh2 = build_octagon_mesh(2, group)
    p = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    s1 = _flat(solve_spectrum(assemble(mesh2, r2), 20))
    s2 = _flat(solve_spectrum(assemble(mesh2, similar_rep(r2, p)), 20))
    sim_dev = np.max(np.abs(s1 - s2) / (1 + np.abs(s1)))
    checks["similarity"] = (sim_dev, 1e-7 * np.linalg.cond(p))

    # (c) conjugate-representation spectrum symmetry
    mesh3 = build_octagon_mesh(3, group)
    sa = _flat(solve_spectrum(assemble(mesh3, rc), 40))
    sb = np.conj(_flat(solve_spectrum(assemble(mesh3, conjugate_rep(rc)), 40)))
    sb = sb[np.lexsort((sb.imag, sb.real))]
    checks["conjugate_rep"] = (
        np.max(np.abs(sa - sb) / (1 + np.abs(sa))), 1e-8,
    )

    # (d) geometric-side representative independence
    f = TestFunction(T=4.0, k=2)
    base = geometric_side(group, classes_L6, rc, f, L_max=6.0).total
    moved = []
    for c in classes_L6:
        if c.length > f.T:
            moved.append(c)
            continue
        h = tuple(int(x) for x in rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], 2))
        w = free_reduce(h + c.rep_word + word_inverse(h))
        moved.append(replace(c, rep_word=w, rep_matrix=evaluate_word(group, w)))
    checks["rep_independence"] = (
        abs(geometric_side(group, moved, rc, f, L_max=6.0).total - base), 1e-10,
    )

    # (e) Fourier round-trip
    checks["fourier"] = (
        max(fourier_roundtrip(TestFunction(T=t, k=2)) for t in TS), 1e-8,
    )

    # (f) branch flip on a live spectrum
    spec = solve_spectrum(assemble(mesh3, character_rep((1, 1, 1, 1))), 40)
    total = sum(m * phi_at(f, np.sqrt(lam - 0.25))
                for lam, m, _ in spec.eigenvalues)
    flipped = sum(m * phi_at(f, -np.sqrt(lam - 0.25))
                  for lam, m, _ in spec.eigenvalues)
    checks["branch_flip"] = (abs(total - flipped), 1e-12 * (1 + abs(total)))

    line = "criterion 7: " + ", ".join(
        "%s %.1e (tol %.0e)" % (k, v, t) for k, (v, t) in checks.items()
    )
    print(line)
    for name, (val, tol) in checks.items():
        assert val <= tol, "%s: %s" % (name, line)


@pytest.mark.slow
def test_criterion_8_convergence(group, classes_L6, spec900):
    r = character_rep((1, 1, 1, 1))
    f = TestFunction(T=4.0, k=2)
    lams, rels = {}, {}
    for level, count in ((3, 63), (4, 255)):
        spec = solve_spectrum(
            assemble(build_octagon_mesh(level, group), r), count
        )
        flat = np.sort(_flat(spec).real)
        lams[level] = flat[1:6]
        s = spectral_side(spec, f, group.covolume)
        g = geometric_side(group, classes_L6, r, f, L_max=6.0)
        rels[level] = abs(s - g.total) / abs(g.total)
    flat5 = np.sort(_flat(spec900).real)
    lams[5] = flat5[1:6]
    s5 = spectral_side(spec900, f, group.covolume)
    g5 = geometric_side(group, classes_L6, r, f, L_max=6.0)
    rels[5] = abs(s5 - g5.total) / abs(g5.total)

    # observed order on the quintuple of smallest positive eigenvalues;
    # the vector norm averages out multiplet-splitting noise in the
    # per-slot ratios
    order = np.log2(
        np.linalg.norm(lams[3] - lams[4]) / np.linalg.norm(lams[4] - lams[5])
    )
    line = (
        "criterion 8: observed order %.3f, T=4 residuals %.2e > %.2e > %.2e"
        % (order, rels[3], rels[4], rels[5])
    )
    print(line)
    assert order >= 1.7, line
    assert rels[3] > rels[4] > rels[5], line


@pytest.mark.slow
def test_criterion_9_rank2_holonomy(group, mesh5):
    # the generators themselves: irreducible, rank 2, not unitary.  Level 5
    # has 8,188 dofs, so it runs the real ARPACK path
    r = from_generator_images(group.generators)
    classes = enumerate_classes(group, 7.0)
    fns = [TestFunction(T=t, k=2) for t in (4.0, 5.5, 7.0)]
    geo = [geometric_side(group, classes, r, f, L_max=7.0).total for f in fns]
    rels = {}
    for level, count in ((3, 127), (4, 300), (5, 300)):
        mesh = mesh5 if level == 5 else build_octagon_mesh(level, group)
        spec = solve_spectrum(assemble(mesh, r), count)
        rels[level] = [
            abs(spectral_side(spec, f, group.covolume) - g) / abs(g)
            for f, g in zip(fns, geo)
        ]
    line = "criterion 9: " + "; ".join(
        "T=%g: %.2e > %.2e > %.2e (gate margin %.1fx)"
        % (f.T, rels[3][i], rels[4][i], rels[5][i],
           THRESHOLD / max(rels[4][i], rels[5][i]))
        for i, f in enumerate(fns)
    )
    print(line)
    assert all(q <= THRESHOLD for level in (4, 5) for q in rels[level]), line
    assert all(rels[3][i] > rels[4][i] > rels[5][i] for i in range(len(fns))), line
