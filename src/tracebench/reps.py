"""Finite-dimensional complex representations of the surface group.

A representation is stored by its images on the presentation generators
a1, b1, a2, b2.  Characters (d = 1) are the workhorse family: the relator
is a product of commutators, so any four nonzero scalars define a valid
character, and sliding them off the unit circle is how the non-selfadjoint
experiments are parametrized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RelatorViolation, SingularImage
from .fuchsian import PAIRING_WORDS, RELATOR, ConjugacyClass

_GENERATORS = ("a1", "b1", "a2", "b2")
_RELATOR_TOL = 1e-8  # the one relator gate, in Representation


@dataclass(frozen=True, eq=False)  # by identity: ndarray == is elementwise
class Representation:
    """Images of a1, b1, a2, b2; everything else is derived from them.

    The one constructor and the one gate.  Building one raises, in this
    order: ValueError unless the images are four finite d x d matrices,
    d >= 1; SingularImage for an image below full numerical rank by
    numpy's default rule (`np.linalg.matrix_rank`: singular values above
    sigma_max * d * eps), so the verdict does not depend on the image's
    scale; and RelatorViolation for a `relator_residual` above
    _RELATOR_TOL or NaN (an image whose inverse overflows); then
    SingularImage for an image of a side pairing g0..g3 (the words
    `fuchsian.PAIRING_WORDS`, by which assembly glues) that is not finite
    in float64, is below full rank by the same rule, or whose float64
    inverse is not finite.  So every representation the pipeline sees has
    generator and pairing images float64 can invert, and satisfies
    [a1,b1][a2,b2] = 1.
    """

    images: np.ndarray  # (4, d, d) complex

    def __post_init__(self):
        images = np.asarray(self.images, dtype=complex)
        shape = images.shape
        if (len(shape) != 3 or shape[0] != len(_GENERATORS)
                or shape[1] != shape[2] or shape[1] < 1):
            raise ValueError("need 4 square generator images of one size, "
                             "got shape %s" % (shape,))
        if not np.all(np.isfinite(images)):
            raise ValueError("generator images must be finite")
        for name, rank in zip(_GENERATORS, np.linalg.matrix_rank(images)):
            if rank < shape[1]:
                raise SingularImage("image of %s is numerically singular: "
                                    "rank %d < %d" % (name, rank, shape[1]))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "dim", shape[1])
        # cache extended-precision images and inverses: trace invariance
        # under word conjugation is only as good as |W^-1 W - I|, and a
        # double-precision inverse (rel err ~ cond * 1e-16) leaks into the
        # trace scaled by the intermediate product magnitude
        ext = self.images.astype(np.clongdouble)
        inv = np.linalg.inv(self.images).astype(np.clongdouble)
        inv = inv @ (2.0 * np.eye(self.dim, dtype=np.clongdouble) - ext @ inv)  # Newton step
        object.__setattr__(self, "_images_ext", ext)
        object.__setattr__(self, "_images_inv", inv)
        residual = np.max(np.abs(_word_image(self, RELATOR) - np.eye(self.dim)))
        object.__setattr__(self, "relator_residual", float(residual))
        if not self.relator_residual <= _RELATOR_TOL:  # a NaN fails too
            raise RelatorViolation(
                "relator residual %.3e exceeds tol %.3e"
                % (self.relator_residual, _RELATOR_TOL)
            )
        # assembly glues by the pairing images, words in the generators, and
        # by their float64 inverses (`assemble._identifications`), so they
        # must pass the same gate; judged before the cast to float64, which
        # would overflow with a warning
        for k, w in enumerate(PAIRING_WORDS):
            image = _word_image(self, w, np.clongdouble)
            if not np.all(np.abs(image) <= np.finfo(float).max):
                raise SingularImage("image of side pairing g%d is not finite in float64" % k)
            rank = np.linalg.matrix_rank(image := image.astype(complex))
            if rank < self.dim:
                raise SingularImage("image of side pairing g%d is numerically "
                                    "singular: rank %d < %d" % (k, rank, self.dim))
            if not np.all(np.isfinite(np.linalg.inv(image))):
                raise SingularImage("inverse of the image of side pairing g%d "
                                    "is not finite in float64" % k)


def _word_image(r: Representation, w, dtype=complex) -> np.ndarray:
    """Matrix product along the word, returned as `dtype`; no det
    renormalization.

    GL(d) images need not have unit determinant, so unlike the PSL(2,R)
    side there is nothing to renormalize against.  Accumulation runs in
    extended precision: dims are tiny, and it buys three digits of trace
    accuracy on long conjugated words.
    """
    out = np.eye(r.dim, dtype=np.clongdouble)
    for letter in w:
        table = r._images_ext if letter > 0 else r._images_inv
        out = out @ table[abs(letter) - 1]
    return out.astype(dtype)


def character_rep(z) -> Representation:
    """Scalar character with the values z on a1, b1, a2, b2.

    Commutators of scalars are identically 1, so the relator holds for
    any four nonzero values; `Representation` rejects the rest.
    """
    return Representation(np.asarray(z, dtype=complex)[:, None, None])


def trace_on_class(r: Representation, c: ConjugacyClass) -> complex:
    return complex(np.trace(_word_image(r, c.rep_word)))


def unitarity_defect(r: Representation) -> float:
    d = np.eye(r.dim)
    return float(
        max(np.max(np.abs(m.conj().T @ m - d)) for m in r.images)
    )


def rep_from_json(obj) -> Representation:
    """Build a representation from the JSON input format: exactly
    {"dim": d, "images": [...]}, d a JSON integer >= 1 and four images of
    row-major [re, im] pairs of JSON numbers.
    """
    if not isinstance(obj, dict) or set(obj) != {"dim", "images"}:
        raise ValueError('expected exactly the keys "dim" and "images"')
    d = obj["dim"]
    if type(d) is not int or d < 1:  # a bool is an int, but not a dim
        raise ValueError('"dim" must be an integer >= 1, got %r' % (d,))
    images = []
    for flat in obj["images"]:
        entries = []
        for re, im in flat:
            if not {type(re), type(im)} <= {int, float}:  # a bool is an int, not a number
                raise ValueError("image entries must be JSON numbers, got %r"
                                 % ([re, im],))
            entries.append(complex(re, im))
        images.append(np.array(entries).reshape(d, d))
    return Representation(images)
