"""Representation layer: construction, traces, symmetry plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from tracebench.errors import RelatorViolation, SingularImage
from tracebench.fuchsian import free_reduce, word_inverse
from tracebench.reps import (
    Representation,
    character_rep,
    rep_from_json,
    trace_on_class,
    unitarity_defect,
)

from reference import conjugate_rep, similar_rep


def test_trivial_rank3():
    r = Representation([np.eye(3)] * 4)
    assert r.dim == 3
    assert r.relator_residual == 0.0
    assert unitarity_defect(r) == 0.0


def test_scalar_images_always_close_relator():
    r = Representation([[[2.0]], [[1.0]], [[1.0]], [[1.0]]])
    assert r.dim == 1
    assert r.relator_residual < 1e-14


def test_relator_violation():
    mats = [np.eye(2) for _ in range(4)]
    mats[0] = np.eye(2) + 0.1 * np.array([[0.0, 1.0], [0.0, 0.0]])
    # commutator [a1,b1] = a1 b1 a1^-1 b1^-1 with b1 = Id is a1 a1^-1 = Id,
    # so perturbing a1 alone is not enough; perturb two non-commuting images
    mats[1] = np.eye(2) + 0.1 * np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RelatorViolation):
        Representation(mats)


def test_singular_image_rejected():
    mats = [np.eye(2)] * 3 + [np.zeros((2, 2))]
    with pytest.raises(SingularImage):
        Representation(mats)


def test_rank_rule_does_not_depend_on_scale(group):
    # full numerical rank is judged against the image's own largest
    # singular value: far from the unitary locus is not singular, and
    # neither is a tiny scalar multiple of an invertible image
    tiny = character_rep((1e-13, 1, 1, 1))
    far = character_rep((1e4, 1e-4, 1e-4, 1e-4))
    holonomy = np.array(group.generators, dtype=complex)
    holonomy[0] *= 1e-7  # a scalar factor leaves every commutator alone
    scaled = Representation(holonomy)
    assert tiny.relator_residual == far.relator_residual == 0.0
    assert scaled.relator_residual <= 1e-12
    # what float64 cannot invert to any digit is rejected, whatever its
    # determinant, and so is a rank-1 image
    for bad in (np.diag([1e9, 1e-9]), np.ones((2, 2))):
        with pytest.raises(SingularImage, match="image of b1"):
            Representation([np.eye(2), bad, np.eye(2), np.eye(2)])


def test_images_must_be_four_finite_square_matrices():
    for bad in (np.eye(2)[None].repeat(3, 0), np.ones((4, 2, 3)),
                np.ones((4, 0, 0)), np.ones(4)):
        with pytest.raises(ValueError, match="shape"):
            Representation(bad)
    with pytest.raises(ValueError, match="finite"):
        Representation([[[np.inf]], [[0.0]], [[1.0]], [[1.0]]])


def test_overflowing_inverse_fails_the_relator_gate():
    # 1e-320 has full rank, but its inverse overflows float64 and the
    # relator residual comes out NaN, which the gate rejects
    with pytest.raises(RelatorViolation, match="nan"):
        character_rep((1e-320, 1, 1, 1))


def test_pairing_images_pass_the_gate():
    # relator residual 0, but the side pairing g2 = b1^-1 a2 b2^-1 is
    # 1e400, past float64 (rejected before the cast, so no warning), or
    # 1e-400, which the cast flushes to 0
    for values, why in (((1, 1e-200, 1, 1e-200), "not finite in float64"),
                        ((1, 1e200, 1, 1e200), "numerically singular")):
        with pytest.raises(SingularImage, match="side pairing g2 is " + why):
            character_rep(values)


def test_character_basics():
    triv = character_rep((1, 1, 1, 1))
    assert triv.dim == 1 and triv.relator_residual == 0.0
    assert unitarity_defect(triv) == 0.0

    th = 0.7
    uni = character_rep((np.exp(1j * th), 1, 1, 1))
    assert unitarity_defect(uni) < 1e-15

    nonuni = character_rep((2, 1, 1, 1))
    assert unitarity_defect(nonuni) == pytest.approx(3.0, abs=1e-14)

    for bad in ((1, 1, 1), (np.nan, 1, 1, 1)):
        with pytest.raises(ValueError):
            character_rep(bad)
    with pytest.raises(SingularImage):  # the class a zero file image raises
        character_rep((0, 1, 1, 1))


def test_trace_on_class_scalar_power(classes_L6):
    r = character_rep((2, 1, 1, 1))
    c = replace(classes_L6[0], rep_word=(1, 1))
    assert trace_on_class(r, c) == pytest.approx(4.0)
    c3 = replace(classes_L6[0], rep_word=(1, 1, 1))
    assert trace_on_class(r, c3) == pytest.approx(8.0)


def test_trace_is_class_function(group, classes_L6, rng):
    # conjugating the representative word must not move the trace; this is
    # the main thing the geometric side relies on
    reps = [
        character_rep((np.exp(0.3), 1, 1, 1)),
        Representation(group.generators),  # the Fuchsian rep itself
    ]
    alphabet = [1, -1, 2, -2, 3, -3, 4, -4]
    for r in reps:
        for c in (classes_L6[0], classes_L6[30], classes_L6[70]):
            t0 = trace_on_class(r, c)
            for _ in range(5):
                w = tuple(int(x) for x in rng.choice(alphabet, 4))
                cw = free_reduce(w + c.rep_word + word_inverse(w))
                t1 = trace_on_class(r, replace(c, rep_word=cw))
                assert abs(t1 - t0) <= 1e-10 * max(1.0, abs(t0))


def test_fuchsian_rep_traces_match_class_traces(group, classes_L6):
    # the side-pairing matrices are themselves a 2-dim representation; its
    # character must agree with the stored SL2 traces up to the PSL sign
    r = Representation(group.generators)
    assert r.relator_residual < 1e-9
    for c in classes_L6[::11]:
        assert abs(trace_on_class(r, c)) == pytest.approx(abs(c.trace), abs=1e-8)


def test_abelianization_oracle(classes_L6, rng):
    # diagonal rank-2 rep built from two characters: trace must equal the
    # sum of the two scalar characters evaluated at the exponent vector
    z1 = (1.3 + 0.4j, 0.9, 1.1j, 0.7 - 0.2j)
    z2 = (0.8, 1.0 + 0.5j, 1.2, 0.95j)
    mats = [np.diag([a, b]) for a, b in zip(z1, z2)]
    r = Representation(mats)
    assert r.relator_residual <= 1e-10
    ch1 = character_rep(z1)
    ch2 = character_rep(z2)
    for c in classes_L6[::13]:
        n = [0, 0, 0, 0]
        for letter in c.rep_word:
            n[abs(letter) - 1] += 1 if letter > 0 else -1
        expect = np.prod([z ** k for z, k in zip(z1, n)]) + np.prod(
            [z ** k for z, k in zip(z2, n)]
        )
        got = trace_on_class(r, c)
        assert got == pytest.approx(expect, rel=1e-10)
        assert got == pytest.approx(
            trace_on_class(ch1, c) + trace_on_class(ch2, c), rel=1e-10
        )


def test_conjugate_rep(classes_L6):
    r = character_rep((np.exp(1j * 0.9), 0.8 + 0.1j, 1, 1))
    rc = conjugate_rep(r)
    for c in classes_L6[::17]:
        assert trace_on_class(rc, c) == pytest.approx(
            np.conj(trace_on_class(r, c)), abs=1e-12
        )
    # conjugate of a unitary character is its inverse character
    uni = character_rep((np.exp(1j * 0.9), 1, 1, 1))
    inv = character_rep((np.exp(-1j * 0.9), 1, 1, 1))
    for c in classes_L6[::29]:
        assert trace_on_class(conjugate_rep(uni), c) == pytest.approx(
            trace_on_class(inv, c), abs=1e-12
        )


def test_similar_rep(group, classes_L6, rng):
    r = Representation(group.generators)
    same = similar_rep(r, np.eye(2))
    assert np.allclose(same.images, r.images)

    P = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    rs = similar_rep(r, P)
    for c in classes_L6[::19]:
        assert trace_on_class(rs, c) == pytest.approx(
            trace_on_class(r, c), rel=1e-10, abs=1e-10
        )

    with pytest.raises(SingularImage):
        similar_rep(r, np.array([[1.0, 0.0], [0.0, 1e-14]]))


def test_rep_from_json(classes_L6):
    eye_flat = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    r2 = rep_from_json({"dim": 2, "images": [eye_flat] * 4})
    assert r2.dim == 2 and r2.relator_residual == 0.0

    # exactly {"dim", "images"}: the old character shorthand and "tol" key
    # are unknown keys now, a missing "images" is rejected, and so is a NaN
    for obj in (
        {"character": [[2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
        {"dim": 2, "images": [eye_flat] * 4, "tol": 1e-10},
        {"dim": 2},
        [eye_flat] * 4,
        {"dim": 2, "images": [[[np.nan, 0.0]] + eye_flat[1:]] + [eye_flat] * 3},
        # "dim" is a JSON integer >= 1, never a float, string or bool
        {"dim": 2.5, "images": [eye_flat] * 4},
        {"dim": "2", "images": [eye_flat] * 4},
        {"dim": True, "images": [[[1.0, 0.0]]] * 4},
        # and the entries are JSON numbers, never bools
        {"dim": 1, "images": [[[True, False]]] * 4},
        {"dim": 1, "images": [[[1.0, 0.0]]] * 3 + [[[1, False]]]},
        {"dim": 0, "images": [[]] * 4},
    ):
        with pytest.raises(ValueError):
            rep_from_json(obj)
