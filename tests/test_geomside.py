"""Class-sum side assembly: weights, filters, symmetries."""

from dataclasses import replace

import numpy as np
import pytest

from tracebench.analysis import TestFunction, identity_term
from tracebench.fuchsian import enumerate_classes, free_reduce, word_inverse
from tracebench.geomside import geometric_side
from tracebench.reps import Representation, character_rep

from reference import conjugate_rep

TRIV = character_rep((1, 1, 1, 1))


def test_empty_sum_below_systole(group):
    f = TestFunction(T=2.9, k=2)
    classes = enumerate_classes(group, 3.5)
    rep = geometric_side(group, classes, TRIV, f, L_max=3.5)
    assert rep.class_contributions == ()
    assert rep.total == rep.identity_term
    assert rep.exactness_flag
    assert rep.identity_term == identity_term(f, 1, group.covolume)


def test_total_is_exact_fold(group, classes_L6):
    f = TestFunction(T=5.9, k=2)
    rep = geometric_side(group, classes_L6, TRIV, f, L_max=6.0)
    assert len(rep.class_contributions) == 96
    resummed = rep.identity_term + sum(t.contribution for t in rep.class_contributions)
    assert rep.total == resummed  # bit-for-bit, fixed fold order


def test_support_filter(group, classes_L6):
    f = TestFunction(T=4.0, k=2)
    rep = geometric_side(group, classes_L6, TRIV, f, L_max=6.0)
    # only the systole shell fits under T = 4
    assert len(rep.class_contributions) == 24
    assert rep.exactness_flag


def test_rank_d_linearity(group, classes_L6):
    f = TestFunction(T=4.0, k=2)
    r3 = Representation([np.eye(3)] * 4)
    a = geometric_side(group, classes_L6, TRIV, f, L_max=6.0)
    b = geometric_side(group, classes_L6, r3, f, L_max=6.0)
    assert b.identity_term == pytest.approx(3 * a.identity_term, rel=1e-14)
    assert b.total == pytest.approx(3 * a.total, rel=1e-13)


def test_inverse_character_pairing(group, classes_L6):
    # swapping z -> 1/z exchanges each class with its inverse class, and
    # the length spectrum is inverse-closed, so the totals must agree
    f = TestFunction(T=5.9, k=2)
    a = geometric_side(
        group, classes_L6, character_rep((2, 1, 1, 1)), f, 6.0
    )
    b = geometric_side(
        group, classes_L6, character_rep((0.5, 1, 1, 1)), f, 6.0
    )
    assert a.total == pytest.approx(b.total, rel=1e-12)


def test_representative_independence(group, classes_L6, rng):
    f = TestFunction(T=5.9, k=2)
    r = Representation(group.generators)
    base = geometric_side(group, classes_L6, r, f, L_max=6.0)
    alphabet = [1, -1, 2, -2, 3, -3, 4, -4]
    mangled = []
    for c in classes_L6:
        w = tuple(int(x) for x in rng.choice(alphabet, 2))
        mangled.append(
            replace(c, rep_word=free_reduce(w + c.rep_word + word_inverse(w)))
        )
    moved = geometric_side(group, mangled, r, f, L_max=6.0)
    assert abs(moved.total - base.total) <= 1e-10 * (1 + abs(base.total))


def test_unitary_character_total_is_real(group, classes_L6):
    f = TestFunction(T=5.9, k=2)
    r = character_rep((np.exp(0.9j), 1, 1, 1))
    rep = geometric_side(group, classes_L6, r, f, L_max=6.0)
    assert abs(rep.total.imag) <= 1e-10 * (1 + abs(rep.total))


def test_conjugation_symmetry(group, classes_L6):
    f = TestFunction(T=5.9, k=2)
    r = character_rep((np.exp(0.3 + 0.4j), 0.9 + 0.2j, 1, 1))
    a = geometric_side(group, classes_L6, r, f, L_max=6.0)
    b = geometric_side(group, classes_L6, conjugate_rep(r), f, L_max=6.0)
    assert b.total == pytest.approx(np.conj(a.total), abs=1e-12 * (1 + abs(a.total)))


def test_truncation_exactness(group, classes_L6, classes_L62):
    # once the cutoff covers the support of phihat, more classes change
    # nothing at all
    f = TestFunction(T=4.0, k=2)
    a = geometric_side(group, classes_L6, TRIV, f, L_max=6.0)
    b = geometric_side(group, classes_L62, TRIV, f, L_max=6.2)
    assert a.total == b.total
    assert a.class_contributions == b.class_contributions


def test_incomplete_spectrum_is_flagged(group):
    f = TestFunction(T=5.5, k=2)
    short = enumerate_classes(group, 4.0)
    rep = geometric_side(group, short, TRIV, f, L_max=4.0)
    assert not rep.exactness_flag
    assert rep.L_used == 4.0  # the cutoff, not the longest class (3.057)


def test_discriminant_closed_form(classes_L6):
    # stable form 2 sinh(l/2) against the determinant form e^{-l/2}|e^l - 1|
    for c in classes_L6:
        l = c.length
        det_form = np.exp(-l / 2) * abs(np.exp(l) - 1.0)
        assert abs(c.discriminant - det_form) <= 1e-12 * (1 + det_form)
