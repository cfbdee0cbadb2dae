"""Even Paley-Wiener test functions and the identity term.

The transform convention is the symmetric cosine pair

    phi(lam) = (1/sqrt(2*pi)) * integral phihat(t) cos(t*lam) dt,

which is involutive on even functions; fourier_roundtrip checks that we
did not silently mix conventions anywhere.

The spectral density used by the identity term is

    beta(lam) = lam * tanh(pi*lam) / (2*pi),

the curvature -1 spherical Plancherel density.  With this constant the
identity term d*(vol/2)*int phi*beta reproduces the Weyl count
(area/4pi)*int phi(r) r tanh(pi r) dr, which is cross-checked against the
FEM spectrum in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfStrip, QuadratureNotConverged

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_PANELS = (8, 16, 32, 64, 128, 256, 512)
_BLOCK = 1 << 18  # cosine-grid entries per block in _phi_settled
_QUAD_ORDER = 32  # Gauss-Legendre nodes per panel of the phi rule


@dataclass(frozen=True)
class TestFunction:
    __test__ = False  # keep pytest from collecting this as a test class

    T: float  # support radius of the transform, geodesic-length units
    k: int = 1

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("support radius T must be positive")
        if self.k < 1:
            raise ValueError("mollifier exponent k must be >= 1")

    def hat(self, t):
        """Transform side: exp(-k*T^2/(T^2-t^2)) inside |t| < T, else 0."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        inside = np.abs(t) < self.T
        ti = t[inside]
        out[inside] = np.exp(-self.k * self.T**2 / (self.T**2 - ti**2))
        return float(out[0]) if scalar else out


def plancherel_density(lam):
    lam = np.asarray(lam, dtype=float)
    out = lam * np.tanh(np.pi * lam) / (2.0 * np.pi)
    return out if out.ndim else float(out)


def _gauss_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_grid(f: TestFunction, x, w, npanels: int):
    """Nodes t and weighted transform values of the npanels-panel rule."""
    edges = np.linspace(0.0, f.T, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    t = (mid[:, None] + half * x[None, :]).ravel()
    wt = np.broadcast_to(half * w[None, :], (npanels, x.size)).ravel()
    return t, f.hat(t) * wt


def _phi_many(f: TestFunction, lams: np.ndarray) -> np.ndarray:
    """phi at a batch of complex points by panel-doubling Gauss-Legendre.

    The integrand is smooth and flat at t = T, so doubling panels over
    [0, T] converges quickly; we stop when the refinement stops moving at
    1e-12 relative (a bit tighter than the 1e-10 contract, cheap here).
    All points stop together, at the level where the worst one settles.
    """
    lams = np.asarray(lams)
    x, w = _gauss_nodes(_QUAD_ORDER)
    prev = None
    for npanels in _PANELS:
        t, vals = _panel_grid(f, x, w, npanels)
        # cos(t*lam) for the whole (node, lam) grid at once
        core = np.cos(t[:, None] * lams[None, :])
        cur = (2.0 / _SQRT_2PI) * (vals[:, None] * core).sum(axis=0)
        if prev is not None:
            err = np.max(np.abs(cur - prev))
            if err <= 1e-12 * max(np.max(np.abs(cur)), 1e-300) + 1e-15:
                return cur
        prev = cur
    raise QuadratureNotConverged(
        "phi quadrature still moving after 512 panels (T=%g)" % f.T
    )


def _phi_settled(f: TestFunction, pts: np.ndarray) -> np.ndarray:
    """The panel-doubling rule of _phi_many, with each point leaving the
    batch at the level where it settles on its own.

    The cosine grid is laid out (points, nodes) and summed along axis 1,
    which reduces each row exactly as a one-point batch of _phi_many
    does, so every value is bit for bit that point's value alone.
    Blocks of at most _BLOCK grid entries bound the temporaries.
    """
    x, w = _gauss_nodes(_QUAD_ORDER)
    out = np.empty_like(pts)
    active = np.arange(pts.size)
    prev = None
    for npanels in _PANELS:
        if not active.size:
            return out
        t, vals = _panel_grid(f, x, w, npanels)
        step = max(1, _BLOCK // t.size)
        cur = np.empty(active.size, dtype=pts.dtype)
        for i in range(0, active.size, step):
            blk = pts[active[i : i + step]]
            core = np.cos(t[None, :] * blk[:, None])
            cur[i : i + step] = (2.0 / _SQRT_2PI) * (vals[None, :] * core).sum(axis=1)
        if prev is not None:
            done = np.abs(cur - prev) <= 1e-12 * np.maximum(np.abs(cur), 1e-300) + 1e-15
            out[active[done]] = cur[done]
            active, cur = active[~done], cur[~done]
        prev = cur
    if active.size:
        raise QuadratureNotConverged(
            "phi quadrature still moving after 512 panels (T=%g)" % f.T
        )
    return out


def phi_values(f: TestFunction, lams) -> np.ndarray:
    """phi at every point of `lams`, as a complex array of the same shape.

    Each value is exactly what the point would get on its own.  On the
    real axis it is computed in real arithmetic and is exactly real; on
    the imaginary axis cos(i t y) = cosh(t y) is real, so only the real
    part is kept.  One point outside the strip |Im lambda| <= 50/T
    rejects the whole batch.
    """
    lams = np.asarray(lams, dtype=complex)
    bound = 50.0 / f.T
    height = np.abs(lams.imag)
    if np.any(height > bound):
        raise ArgumentOutOfStrip(
            "|Im lambda| = %g exceeds strip bound %g" % (height.max(), bound)
        )
    out = np.empty_like(lams)
    real = lams.imag == 0.0
    out[real] = _phi_settled(f, lams.real[real])
    out[~real] = _phi_settled(f, lams[~real])
    out.imag[lams.real == 0.0] = 0.0
    return out


def phi_at(f: TestFunction, lam) -> complex:
    return complex(phi_values(f, lam))


def identity_term(f: TestFunction, d: int, vol: float, diagnostics=None) -> float:
    """d * (vol/2) * integral of phi*beta over the real line.

    The integral is extended segment by segment until a geometric tail
    estimate drops below 1e-10 of the running value.  Lambda and the tail
    estimate land in the optional diagnostics dict.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if vol <= 0:
        raise ValueError("volume must be positive")
    x, w = _gauss_nodes(64)
    seg = 4.0 / f.T  # first segment scales with the decay rate of phi
    total = 0.0
    last = np.inf
    lo = 0.0
    lam_max = 0.0
    tail = np.inf
    for _ in range(60):
        hi = lo + seg
        mid, half = 0.5 * (lo + hi), 0.5 * seg
        nodes = mid + half * x
        phis = _phi_many(f, nodes).real
        piece = float(np.sum(half * w * phis * plancherel_density(nodes)))
        total += piece
        lam_max = hi
        if np.isfinite(last) and abs(last) > 0:
            ratio = min(abs(piece) / abs(last), 0.9)
            tail = abs(piece) * ratio / (1.0 - ratio)
            if tail <= 1e-10 * max(abs(total), 1e-300):
                break
        last = piece
        lo = hi
        seg *= 1.5
    else:
        raise QuadratureNotConverged(
            "identity-term tail still %.3e of total after Lambda=%g" % (tail, lam_max)
        )
    # integral over the whole line is twice the half-line value
    result = d * (vol / 2.0) * (2.0 * total)
    if diagnostics is not None:
        diagnostics["lambda_max"] = lam_max
        diagnostics["tail_estimate"] = tail * d * vol
        diagnostics["half_line_integral"] = total
    return result


def fourier_roundtrip(f: TestFunction) -> float:
    """Worst reconstruction error of phihat over a fixed 64-point grid.

    Applies the same cosine transform to phi (the convention is its own
    inverse on even functions) and compares against f.hat.
    """
    tgrid = np.linspace(-f.T, f.T, 64)
    x, w = _gauss_nodes(64)
    # integrate phi(lam) cos(t lam) out to where phi has decayed; extend
    # segments until the last one stops mattering
    total = np.zeros_like(tgrid)
    lo = 0.0
    seg = max(4.0 / f.T, 2.0)
    for _ in range(60):
        hi = lo + seg
        mid, half = 0.5 * (lo + hi), 0.5 * seg
        nodes = mid + half * x
        phis = _phi_many(f, nodes).real
        piece = (2.0 / _SQRT_2PI) * np.sum(
            (half * w * phis)[None, :] * np.cos(tgrid[:, None] * nodes[None, :]),
            axis=1,
        )
        total += piece
        worst_piece = float(np.max(np.abs(piece)))
        if worst_piece <= 1e-12 * max(float(np.max(np.abs(total))), 1e-300) + 1e-14:
            break
        lo = hi
        # widen slowly; 64 nodes must keep resolving cos(T*lam)
        seg = min(seg * 1.3, 10.0)
    else:
        raise QuadratureNotConverged("roundtrip tail did not settle")
    return float(np.max(np.abs(total - f.hat(tgrid))))
