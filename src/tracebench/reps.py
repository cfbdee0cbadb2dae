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
from .fuchsian import RELATOR, ConjugacyClass

_GENERATOR_COUNT = 4
_DET_FLOOR = 1e-12
_RELATOR_TOL = 1e-8  # the one relator gate, in Representation


@dataclass(frozen=True, eq=False)  # by identity: ndarray == is elementwise
class Representation:
    """Images of a1, b1, a2, b2; everything else is derived from them.

    Building one checks the relator: a `relator_residual` above
    _RELATOR_TOL raises RelatorViolation, so every representation the
    pipeline sees satisfies [a1,b1][a2,b2] = 1.
    """

    images: np.ndarray  # (4, d, d) complex

    def __post_init__(self):
        object.__setattr__(self, "images", np.asarray(self.images, dtype=complex))
        object.__setattr__(self, "dim", self.images.shape[1])
        # cache extended-precision images and inverses: trace invariance
        # under word conjugation is only as good as |W^-1 W - I|, and a
        # double-precision inverse (rel err ~ cond * 1e-16) leaks into the
        # trace scaled by the intermediate product magnitude
        ext = self.images.astype(np.clongdouble)
        inv = np.stack(
            [np.linalg.inv(m) for m in self.images]
        ).astype(np.clongdouble)
        eye2 = 2.0 * np.eye(self.dim, dtype=np.clongdouble)
        for i in range(ext.shape[0]):
            inv[i] = inv[i] @ (eye2 - ext[i] @ inv[i])  # one Newton polish
        object.__setattr__(self, "_images_ext", ext)
        object.__setattr__(self, "_images_inv", inv)
        residual = np.max(np.abs(_word_image(self, RELATOR) - np.eye(self.dim)))
        object.__setattr__(self, "relator_residual", float(residual))
        if self.relator_residual > _RELATOR_TOL:
            raise RelatorViolation(
                "relator residual %.3e exceeds tol %.3e"
                % (self.relator_residual, _RELATOR_TOL)
            )


def _word_image(r: Representation, w) -> np.ndarray:
    """Matrix product along the word; no det renormalization.

    GL(d) images need not have unit determinant, so unlike the PSL(2,R)
    side there is nothing to renormalize against.  Accumulation runs in
    extended precision: dims are tiny, and it buys three digits of trace
    accuracy on long conjugated words.
    """
    out = np.eye(r.dim, dtype=np.clongdouble)
    for letter in w:
        table = r._images_ext if letter > 0 else r._images_inv
        out = out @ table[abs(letter) - 1]
    return out.astype(complex)


def from_generator_images(images) -> Representation:
    """Representation from four square, finite, nonsingular images."""
    mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for m in images]
    if len(mats) != _GENERATOR_COUNT:
        raise ValueError("need 4 generator images, got %d" % len(mats))
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("generator images must be square and same size")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator images must be finite")
        if abs(np.linalg.det(m)) < _DET_FLOOR:
            raise SingularImage("generator image is numerically singular")
    return Representation(np.stack(mats))


def character_rep(z) -> Representation:
    """Scalar character from four finite, nonzero values, one per generator.

    Commutators of scalars are identically 1, so the relator holds for
    any such values.
    """
    z = [complex(v) for v in z]
    if len(z) != _GENERATOR_COUNT:
        raise ValueError("character needs 4 values, got %d" % len(z))
    if not all(v != 0 and np.isfinite(v) for v in z):
        raise ValueError("character values must be finite and nonzero")
    return Representation(np.array([[[v]] for v in z], dtype=complex))


def trace_on_class(r: Representation, c: ConjugacyClass) -> complex:
    return complex(np.trace(_word_image(r, c.rep_word)))


def unitarity_defect(r: Representation) -> float:
    d = np.eye(r.dim)
    return float(
        max(np.max(np.abs(m.conj().T @ m - d)) for m in r.images)
    )


def rep_from_json(obj) -> Representation:
    """Build a representation from the JSON input format: exactly
    {"dim": d, "images": [...]}, four images of row-major [re, im] pairs.
    """
    if not isinstance(obj, dict) or set(obj) != {"dim", "images"}:
        raise ValueError('expected exactly the keys "dim" and "images"')
    d = int(obj["dim"])
    images = []
    for flat in obj["images"]:
        m = np.array(
            [complex(re, im) for re, im in flat], dtype=complex
        ).reshape(d, d)
        images.append(m)
    return from_generator_images(images)
