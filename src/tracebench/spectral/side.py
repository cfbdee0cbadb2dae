"""Spectral side of the trace identity and eigenvalue counting.

The sum is Sigma m(lam) * phi(sqrt(lam - rho^2)) over computed clusters,
with rho = 1/2 for curvature -1, principal branch; phi is even so the
branch cannot matter, and a sum that moves when every root flips sign is
an error.

Truncation policy: the natural test would be that phi at the spectral
edge is already below 1e-8 of the partial sum.  At the eigenvalue counts
a trusted discretization can actually deliver (count <= N_free/4) the
ratio bottoms out around 1e-6, so the strict test is reported as a
diagnostic and the enforced criterion is a Weyl-law estimate of the
discarded tail: integrate |phi| against the asymptotic eigenvalue
density d*vol/(4pi) dlam beyond the last computed eigenvalue and demand
the estimate stay under a fixed relative budget of 2% (_TAIL_BUDGET).
"""

from __future__ import annotations

import numpy as np

from ..analysis import TestFunction, phi_at, phi_values
from ..errors import TracebenchError, TruncationNotJustified

_RHO = 0.5  # curvature -1
_BRANCH_EPS = 1e-12
_STRICT_EDGE = 1e-8
_TAIL_BUDGET = 0.02


def _weyl_tail(f: TestFunction, r_max: float, d: int, vol: float) -> float:
    """Estimate Sigma_{lam > lam_max} m |phi| via the Weyl density.

    dN ~ d*vol/(4pi) dlam = d*vol/(4pi) * 2r dr on lam = r^2.  |phi|
    decays faster than any power past the support scale of its
    transform, so a fixed multiple of 40/T past r_max captures the
    integral to far below the budget this estimate feeds into.
    """
    span = 40.0 / f.T + 10.0
    rs = np.linspace(r_max, r_max + span, 2001)
    vals = np.abs(phi_values(f, rs))
    dens = d * vol / (4.0 * np.pi) * 2.0 * rs
    return float(np.trapezoid(vals * dens, rs))


def spectral_side(spec, f: TestFunction, vol: float,
                  diagnostics: dict | None = None) -> complex:
    """Sigma m * phi over `spec`; `vol` (the covolume) scales the tail."""
    lams = np.array([lam for lam, _, _ in spec.eigenvalues])
    mults = np.array([m for _, m, _ in spec.eigenvalues])

    roots = np.sqrt(lams - _RHO * _RHO)  # principal branch
    # both branches in one batch; the sums run left to right over Python
    # complex values, the order and types of a point-by-point loop
    phis = phi_values(f, np.concatenate([roots, -roots])).tolist()
    total = complex(sum(m * v for m, v in zip(mults, phis[:roots.size])))
    flipped = complex(sum(m * v for m, v in zip(mults, phis[roots.size:])))
    if abs(total - flipped) > _BRANCH_EPS * (1.0 + abs(total)):
        raise TracebenchError(
            "phi must be even in its argument: the branch flip moves the "
            "spectral sum from %r to %r" % (total, flipped)
        )

    lam_max = float(np.abs(lams).max())
    r_max = float(np.sqrt(max(lam_max - _RHO * _RHO, 0.0)))
    edge = abs(phi_at(f, np.sqrt(complex(lam_max - _RHO * _RHO))))
    strict_ok = edge <= _STRICT_EDGE * abs(total)

    tail = _weyl_tail(f, r_max, spec.d, vol)
    if diagnostics is not None:
        diagnostics.update(
            lambda_max=lam_max,
            edge_value=edge,
            strict_decay_test=strict_ok,
            tail_estimate=tail,
            tail_budget=_TAIL_BUDGET,
        )
    if tail > _TAIL_BUDGET * abs(total):
        raise TruncationNotJustified(
            "estimated spectral tail %.3e exceeds %.0f%% of |sum| %.3e; "
            "request more eigenvalues" % (tail, 100 * _TAIL_BUDGET, abs(total))
        )
    return total


def weyl_window(spec) -> float:
    """Top of the trusted window [0, top] of the counting function.

    Only the lower third of the computed spectrum is trusted: above that
    the discretization error and the missing tail both distort N.
    """
    return float(np.abs([lam for lam, _, _ in spec.eigenvalues]).max()) / 3.0


def weyl_counting(spec, r_values, vol: float):
    """Counting function N(r) = Sigma m over |lam| <= r vs d*vol*r/(4pi),
    for r inside `weyl_window(spec)`."""
    lams = np.array([lam for lam, _, _ in spec.eigenvalues])
    mults = np.array([m for _, m, _ in spec.eigenvalues])
    trusted = weyl_window(spec)
    out = []
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        if r < 0 or r > trusted:
            raise ValueError(
                "r = %g outside the trusted window [0, %g]" % (r, trusted)
            )
        n = int(mults[np.abs(lams) <= r].sum())
        out.append((float(r), n, spec.d * vol * float(r) / (4.0 * np.pi)))
    return out
