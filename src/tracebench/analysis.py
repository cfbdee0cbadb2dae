"""Even Paley-Wiener test functions and the identity term.

The transform convention is the symmetric cosine pair

    phi(lam) = (1/sqrt(2*pi)) * integral phihat(t) cos(t*lam) dt,

which is involutive on even functions; the test suite's round trip
(`fourier_roundtrip` in tests/reference.py) checks that we did not
silently mix conventions anywhere.

The spectral density used by the identity term is

    beta(lam) = lam * tanh(pi*lam) / (2*pi),

the curvature -1 spherical Plancherel density.  With this constant the
identity term d*(vol/2)*int phi*beta reproduces the Weyl count
(area/4pi)*int phi(r) r tanh(pi r) dr, which is cross-checked against the
FEM spectrum in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import QuadratureNotConverged

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
        if not 0.0 < self.T < np.inf:
            raise ValueError("support radius T must be finite and positive")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError("mollifier exponent k must be an integer >= 1")
        try:  # the exponent scale of hat; a huge int k overflows as float
            finite = self.k * float(self.T) ** 2 < np.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("k * T^2 must be finite in float64")

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


@cache
def _gauss_nodes(order):
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
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


def _phi_settled(f: TestFunction, pts: np.ndarray):
    """The panel-doubling rule of _phi_many, with each point leaving the
    batch at the level where one doubling moves it by at most
    1e-12 |phi| + 1e-15: (values, last moves).  That is a settle test, not
    an error bound: against 2048 panels, settled points are off by up to
    25 times it.  A point still moving at 512 panels keeps its 512-panel
    value.  The grid is laid out (points, nodes) and summed along axis 1,
    as a one-point batch of _phi_many is, so each settled value is bit for
    bit that point's alone.  Blocks of at most _BLOCK grid entries bound
    the temporaries.
    """
    x, w = _gauss_nodes(_QUAD_ORDER)
    out = np.empty_like(pts)
    moves = np.zeros(pts.shape)
    active = np.arange(pts.size)
    prev = None
    for npanels in _PANELS:
        if not active.size:
            break
        t, vals = _panel_grid(f, x, w, npanels)
        step = max(1, _BLOCK // t.size)
        cur = np.empty(active.size, dtype=pts.dtype)
        for i in range(0, active.size, step):
            blk = pts[active[i : i + step]]
            core = np.cos(t[None, :] * blk[:, None])
            cur[i : i + step] = (2.0 / _SQRT_2PI) * (vals[None, :] * core).sum(axis=1)
        out[active] = cur
        if prev is not None:
            moves[active] = np.abs(cur - prev)
            done = moves[active] <= 1e-12 * np.maximum(np.abs(cur), 1e-300) + 1e-15
            active, cur = active[~done], cur[~done]
        prev = cur
    return out, moves


def phi_values(f: TestFunction, lams) -> np.ndarray:
    """phi at every point of `lams`, as a complex array of the same shape.

    Each value is what the point gets alone (`_phi_settled`).  On the real
    axis it is computed in real arithmetic; on the imaginary axis
    cos(i t y) = cosh(t y) is real, so only the real part is kept.  The
    batch is judged as a whole, at the scale of the spectral sum: a point
    still moving at 512 panels passes if its last move is at most 1e-12
    of the batch's largest finite |phi|, plus 1e-15 (_phi_many's test for
    the identity term), so a one-point batch keeps the settle test.  Any
    other point, or a non-finite value (the cosine overflows past
    T |Im lam| ~ 709), raises QuadratureNotConverged with its miss.
    Batched with 0.5i, accepted points agree with 30-digit quadrature to
    2.1e-12 of the batch's largest |phi|.
    """
    lams = np.asarray(lams, dtype=complex)
    out = np.empty_like(lams)
    moves = np.empty(lams.shape)
    real = lams.imag == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        out[real], moves[real] = _phi_settled(f, lams.real[real])
        out[~real], moves[~real] = _phi_settled(f, lams[~real])
    finite = np.isfinite(out)
    tol = 1e-12 * np.max(np.abs(out), where=finite, initial=0.0) + 1e-15
    bad = ~(finite & (moves <= tol))
    if np.any(bad):
        raise QuadratureNotConverged(
            "phi quadrature did not settle at lambda = %s (T = %g, k = %d): "
            "value %s, last move %.3e after 512 panels, tolerance %.3e"
            % (lams[bad][0], f.T, f.k, out[bad][0], moves[bad][0], tol)
        )
    out.imag[lams.real == 0.0] = 0.0
    return out


def phi_at(f: TestFunction, lam) -> complex:
    return complex(phi_values(f, lam))


def identity_term(f: TestFunction, d: int, vol: float) -> float:
    """d * (vol/2) * integral of phi*beta over the real line.

    The integral is extended segment by segment until a geometric tail
    estimate drops below 1e-10 of the running value.
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
    return d * (vol / 2.0) * (2.0 * total)

