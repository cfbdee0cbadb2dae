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
_COND_CEIL = 1e12


@dataclass(frozen=True)
class Representation:
    dim: int
    images: np.ndarray  # (4, d, d) complex
    relator_residual: float

    def __post_init__(self):
        object.__setattr__(self, "images", np.asarray(self.images, dtype=complex))
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


@dataclass(frozen=True)
class CharacterPoint:
    z: tuple  # 4 nonzero complex scalars

    def __post_init__(self):
        z = tuple(complex(v) for v in self.z)
        if len(z) != _GENERATOR_COUNT:
            raise ValueError("character point needs 4 values, got %d" % len(z))
        if any(v == 0 for v in z):
            raise ValueError("character values must be nonzero")
        object.__setattr__(self, "z", z)


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


def from_generator_images(images, tol: float = 1e-8) -> Representation:
    mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for m in images]
    if len(mats) != _GENERATOR_COUNT:
        raise ValueError("need 4 generator images, got %d" % len(mats))
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("generator images must be square and same size")
        if abs(np.linalg.det(m)) < _DET_FLOOR:
            raise SingularImage("generator image is numerically singular")
    arr = np.stack(mats)
    rep = Representation(dim=d, images=arr, relator_residual=0.0)
    residual = float(np.max(np.abs(_word_image(rep, RELATOR) - np.eye(d))))
    if residual > tol:
        raise RelatorViolation(
            "relator residual %.3e exceeds tol %.3e" % (residual, tol)
        )
    return Representation(dim=d, images=arr, relator_residual=residual)


def character_rep(p: CharacterPoint) -> Representation:
    p = p if isinstance(p, CharacterPoint) else CharacterPoint(tuple(p))
    images = np.array([[[z]] for z in p.z], dtype=complex)
    # commutators of scalars are identically 1, so the relator holds
    # exactly; skip the numerical check and record a zero residual
    return Representation(dim=1, images=images, relator_residual=0.0)


def trace_on_class(r: Representation, c: ConjugacyClass) -> complex:
    if r.dim == 1:
        # scalars commute; the product collapses to signed letter counts
        out = 1.0 + 0.0j
        for i in range(_GENERATOR_COUNT):
            n = sum(1 for l in c.rep_word if l == i + 1) - sum(
                1 for l in c.rep_word if l == -(i + 1)
            )
            out *= r.images[i, 0, 0] ** n
        return complex(out)
    return complex(np.trace(_word_image(r, c.rep_word)))


def unitarity_defect(r: Representation) -> float:
    d = np.eye(r.dim)
    return float(
        max(np.max(np.abs(m.conj().T @ m - d)) for m in r.images)
    )


def conjugate_rep(r: Representation) -> Representation:
    return Representation(
        dim=r.dim, images=r.images.conj(), relator_residual=r.relator_residual
    )


def similar_rep(r: Representation, P) -> Representation:
    P = np.atleast_2d(np.asarray(P, dtype=complex))
    if P.shape != (r.dim, r.dim):
        raise ValueError("P must be %dx%d" % (r.dim, r.dim))
    cond = np.linalg.cond(P)
    if not np.isfinite(cond) or cond > _COND_CEIL:
        raise SingularImage("similarity transform condition %.3e too large" % cond)
    Pinv = np.linalg.inv(P)
    images = np.stack([P @ m @ Pinv for m in r.images])
    rep = Representation(dim=r.dim, images=images, relator_residual=0.0)
    residual = float(
        np.max(np.abs(_word_image(rep, RELATOR) - np.eye(r.dim)))
    )
    return Representation(dim=r.dim, images=images, relator_residual=residual)


def rep_from_json(obj) -> Representation:
    """Build a representation from the JSON input format.

    Either {"character": [[re,im], ...]} with 4 entries, or
    {"dim": d, "images": [...], "tol": t} with row-major [re,im] pairs.
    """
    if "character" in obj:
        vals = obj["character"]
        if len(vals) != _GENERATOR_COUNT:
            raise ValueError("character shorthand needs 4 entries")
        return character_rep(
            CharacterPoint(tuple(complex(re, im) for re, im in vals))
        )
    d = int(obj["dim"])
    images = []
    for flat in obj["images"]:
        m = np.array(
            [complex(re, im) for re, im in flat], dtype=complex
        ).reshape(d, d)
        images.append(m)
    return from_generator_images(images, tol=float(obj.get("tol", 1e-8)))
