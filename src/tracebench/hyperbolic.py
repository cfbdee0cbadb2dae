"""Hyperbolic-plane primitives: PSL(2,R) matrices and Poincare disk geometry.

Matrices are plain (2,2) float64 arrays acting on the upper half plane;
"batch" variants take (..., 2, 2) stacks and vectorize over the leading
axes.  For point geometry we work in the unit-disk model (complex
coordinates); the half-plane matrix action is transported to the disk by
the usual Cayley conjugation, which for m = [[a,b],[c,d]] gives the
disk Moebius map w -> (alpha*w + beta) / (conj(beta)*w + conj(alpha)) with

    alpha = ((a + d) + 1j*(b - c)) / 2
    beta  = ((a - d) - 1j*(b + c)) / 2

(|alpha|^2 - |beta|^2 = det = 1).  Curvature is -1 throughout.
"""

from __future__ import annotations

import numpy as np

SIGN_EPS = 1e-12  # threshold for "first nonzero entry" in sign canonicalization


def renormalize(m: np.ndarray) -> np.ndarray:
    """Scale a batch of matrices to unit determinant.

    Products of unit-determinant matrices drift away from det 1 in floating
    point; every multiplication below goes through this.  The determinant
    and the division run in extended precision on the flat (n, 4) entries,
    and only the result is rounded to float64, straight into the output:
    for entries of size ~1e4 the ad - bc cancellation would otherwise
    contaminate the normalized entries at the 1e-8 level, enough to split
    one group element across two of the 1e-6 rounding cells whose integer
    rows ball enumeration dedupes on (a sorted array of the rows' bytes,
    `fuchsian._add_rows`).  Raises if the determinant is not positive (we
    only deal with PSL(2,R)).
    """
    m = np.asarray(m, dtype=float)
    flat = m.reshape(-1, 4)
    a, b, c, d = (flat[:, j].astype(np.longdouble) for j in range(4))
    det = a * d - b * c
    if np.any(det <= 0):
        raise ValueError("matrix determinant must be positive in PSL(2,R)")
    out = np.empty(m.shape)                 # C order, so the reshape is a view
    np.divide(flat, np.sqrt(det)[:, None], out=out.reshape(-1, 4), casting="same_kind")
    return out


def canonical_sign(m: np.ndarray) -> np.ndarray:
    """Fix the +-m ambiguity: first entry of (a,b,c,d) above SIGN_EPS is positive."""
    m = np.asarray(m, dtype=float)
    flat = m.reshape(m.shape[:-2] + (4,))
    big = np.abs(flat) > SIGN_EPS
    # index of first "nonzero" entry; all-zero can't happen for det-1 matrices
    first = np.argmax(big, axis=-1)
    lead = np.take_along_axis(flat, first[..., None], axis=-1)[..., 0]
    return m * np.sign(lead)[..., None, None]


def mat_prod(*ms: np.ndarray) -> np.ndarray:
    """Product of 2x2 matrices with determinant renormalization at each step."""
    out = np.asarray(ms[0], dtype=float)
    for m in ms[1:]:
        out = renormalize(out @ m)
    return out


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Inverse in SL(2,R): [[d,-b],[-c,a]], batched."""
    m = np.asarray(m, dtype=float)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def psl_close(x: np.ndarray, y: np.ndarray, tol: float = 1e-10):
    """Equality up to overall sign in max norm, per 2x2 matrix of broadcast
    batches: a bool array over the batch axes (a numpy bool for two
    matrices)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dist = np.minimum(np.abs(x - y).max((-2, -1)), np.abs(x + y).max((-2, -1)))
    return dist <= tol


# ---------------------------------------------------------------------------
# disk model


def disk_coeffs(m: np.ndarray):
    """(alpha, beta) of the disk Moebius map conjugate to the half-plane action."""
    m = np.asarray(m, dtype=float)
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    alpha = ((a + d) + 1j * (b - c)) / 2.0
    beta = ((a - d) - 1j * (b + c)) / 2.0
    return alpha, beta


def disk_apply(m: np.ndarray, z):
    """Apply the disk-model action of m to points z (both may broadcast)."""
    alpha, beta = disk_coeffs(m)
    z = np.asarray(z, dtype=complex)
    return (alpha * z + beta) / (np.conj(beta) * z + np.conj(alpha))


def hyp_dist(z, w):
    """Hyperbolic distance between disk points (curvature -1)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = np.abs((z - w) / (1.0 - np.conj(w) * z))
    q = np.minimum(q, 1.0 - 1e-16)
    return 2.0 * np.arctanh(q)


def displacement(m: np.ndarray):
    """d(0, m.0) for a batch of matrices: 2 artanh(|beta/alpha|)."""
    alpha, beta = disk_coeffs(m)
    q = np.abs(beta) / np.abs(alpha)
    q = np.minimum(q, 1.0 - 1e-16)
    return 2.0 * np.arctanh(q)


def trace(m: np.ndarray):
    m = np.asarray(m, dtype=float)
    return m[..., 0, 0] + m[..., 1, 1]


def translation_length(m: np.ndarray):
    """2 arccosh(|tr|/2), batched; caller checks hyperbolicity."""
    half = np.abs(trace(m)) / 2.0
    return 2.0 * np.arccosh(np.maximum(half, 1.0))


def axis_endpoints(m: np.ndarray):
    """Attracting/repelling fixed points on the unit circle (disk model).

    Solves conj(beta) w^2 + (conj(alpha) - alpha) w - beta = 0.  m must be
    hyperbolic: then m.0 != 0, so beta != 0, and the two roots are
    distinct unit-modulus points.
    """
    alpha, beta = disk_coeffs(m)
    A = np.conj(beta)
    B = np.conj(alpha) - alpha
    C = -beta
    disc = np.sqrt(B * B - 4.0 * A * C)
    w1 = (-B + disc) / (2.0 * A)
    w2 = (-B - disc) / (2.0 * A)
    return w1 / np.abs(w1), w2 / np.abs(w2)


def axis_foot(m: np.ndarray):
    """Point of the translation axis closest to the disk center.

    For boundary endpoints u = e^{i(phi-theta)}, v = e^{i(phi+theta)} the
    closest point is tan(pi/4 - theta'/2) e^{i phi} where 2*theta' is the
    angular gap; a diameter (gap pi) passes through 0.
    """
    u, v = axis_endpoints(m)
    mid = u + v
    cosg = np.clip(np.real(np.conj(u) * v), -1.0, 1.0)
    theta = 0.5 * np.arccos(cosg)  # half the angular separation, in (0, pi/2]
    r = np.tan(np.pi / 4.0 - theta / 2.0)
    phase = np.where(np.abs(mid) > 1e-14, mid / np.where(np.abs(mid) > 1e-14, np.abs(mid), 1.0), 1.0 + 0j)
    return r * phase


def geodesic_midpoint(z1, z2):
    """Hyperbolic midpoint of the geodesic segment between disk points."""
    z1 = complex(z1)
    z2 = complex(z2)
    # transport z1 to 0, halve the radial distance, transport back
    w = (z2 - z1) / (1.0 - np.conj(z1) * z2)
    r = abs(w)
    if r < 1e-300:
        return z1
    half = np.tanh(0.5 * np.arctanh(min(r, 1.0 - 1e-16)))
    w_half = w / r * half
    return (w_half + z1) / (1.0 + np.conj(z1) * w_half)
