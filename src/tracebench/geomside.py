"""Geometric side of the trace identity: identity term plus class sum.

Each nontrivial class contributes

    tr chi(gamma) * l0 / (2 sinh(l/2)) * phihat(l) / sqrt(2*pi),

where l0 is the primitive length.  The 1/sqrt(2*pi) matches the cosine
transform convention in `analysis`: with phi = (1/sqrt(2*pi)) * int
phihat cos, the weight applied to phihat(l) must carry the same factor or
the two sides of the identity drift apart by a constant, so the constant
is imported from `analysis` rather than defined twice.  Verified
end-to-end against the FEM spectrum in the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .analysis import _SQRT_2PI, TestFunction, identity_term
from .fuchsian import SurfaceGroup
from .reps import Representation, trace_on_class


class ClassTerm(NamedTuple):
    """One class inside the window of phihat, as the CLI writes it."""

    length: float
    primitive_length: float
    power: int
    trace_chi: complex
    contribution: complex


@dataclass(frozen=True)
class GeometricSideReport:
    identity_term: float
    class_contributions: tuple  # ClassTerm per class with length <= T, fold order
    total: complex
    L_used: float
    exactness_flag: bool


def geometric_side(
    g: SurfaceGroup,
    classes,
    r: Representation,
    f: TestFunction,
    L_max: float,
) -> GeometricSideReport:
    """Assemble the class-sum side of the identity.

    `L_max` is the enumeration cutoff the classes came from.  The report
    is advisory (exactness_flag False) whenever the cutoff does not reach
    the support radius of phihat.
    """
    ident = identity_term(f, r.dim, g.covolume)
    contribs = []
    class_sum = 0.0 + 0.0j
    for c in classes:
        if c.length > f.T:
            continue  # phihat vanishes from T on; keep the report small
        weight = c.primitive_length / c.discriminant * f.hat(c.length) / _SQRT_2PI
        ch = complex(trace_on_class(r, c))
        val = ch * weight
        contribs.append(ClassTerm(c.length, c.primitive_length, c.power, ch, val))
        class_sum += val
    # total must reproduce identity_term + sum(contributions) bit for bit
    total = ident + class_sum
    L_used = float(L_max)
    return GeometricSideReport(
        identity_term=ident,
        class_contributions=tuple(contribs),
        total=complex(total),
        L_used=L_used,
        exactness_flag=bool(L_used >= f.T),
    )
