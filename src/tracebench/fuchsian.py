"""Cocompact genus-2 Fuchsian group: presets, words, conjugacy classes.

The only preset is the regular-octagon (Bolza) group: eight side-pairing
translations g_k = R(k pi/4) T R(-k pi/4), k = 0..7, with g_{k+4} =
g_k^{-1}, where T translates by 2*arccosh(1+sqrt(2)) along the real
diameter of the disk.  These satisfy the octagon relation

    g0 g1^{-1} g2 g3^{-1} g0^{-1} g1 g2^{-1} g3 = 1,

not the surface-group commutator relator, so the presentation generators
(a1, b1, a2, b2) exposed to the rest of the code are the Nielsen
transforms

    a1 = g0,  b1 = g1^{-1} g2 g3^{-1},
    a2 = g1^{-1} g2 g3^{-1} g1,  b2 = g2^{-1} g1,

which do satisfy [a1,b1][a2,b2] = 1; the inverse substitution (used to
translate enumeration words into presentation words) is

    g0 = a1,  g1 = b1^{-1} a2,  g2 = b1^{-1} a2 b2^{-1},  g3 = b1^{-1} b2^{-1}.

Conjugacy classes of hyperbolic elements are canonicalized by axis
geometry: pull the axis toward the basepoint with side pairings, then
minimize over a bounded set of conjugators.  Word-level cyclic reduction
alone would be unsound in a one-relator group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassWordMismatch,
    CutoffTooLarge,
    EnumerationFailed,
    NotHyperbolic,
)
from .hyperbolic import (
    axis_dist_to_origin,
    axis_foot,
    canonical_sign,
    disk_apply,
    displacement,
    hyp_dist,
    mat_inv,
    mat_prod,
    psl_close,
    renormalize,
    trace,
    translation_length,
)

Word = tuple  # of signed generator indices in {+-1..+-4}

# octagon constants (regular, all interior angles pi/4)
#   cosh(circumradius) = cot(pi/8)^2 = 3 + 2 sqrt(2)
COT_PI_8 = 1.0 + np.sqrt(2.0)
CIRCUMRADIUS = float(np.arccosh(COT_PI_8**2))

# side-pairing letters --> presentation letters (see module docstring)
_SIDE_TO_PRES = {
    1: (1,),
    2: (-2, 3),
    3: (-2, 3, -4),
    4: (-2, -4),
}

RELATOR: Word = (1, 2, -1, -2, 3, 4, -3, -4)

# Largest accepted length cutoff.  Past it, float64 word evaluation no
# longer reproduces every class matrix: the class of trace 18 + 14 sqrt(2)
# (length 7.2632) evaluates 3.8e-5 off against a tolerance of 3.3e-6.
# Exact word arithmetic in Z[zeta8] (ROADMAP item 2) is what lifts it.
L_MAX_CAP = 7.25

# Absolute rounding cell for matrix-entry keys.  Distinct elements in the
# balls we enumerate are separated by >> 1e-4 in max norm (the separation
# scales like 1/max-entry, and entries stay below ~2e4 for L_max <= 12),
# while path-dependent floating-point drift stays below ~1e-9, so 1e-6 cells
# identify equal elements and never merge distinct ones.  The four integer
# keys of a matrix are deduped as one row (`_KeySet`): a uint64 hash sorts
# and matches rows, and rows sharing a hash must agree in all four keys.
_KEY_SCALE = 1e-6

# multipliers of the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA
# 2014), the mixing step of the row hash
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))

# greedy axis-pull steps before enumeration gives up
_PULL_STEPS = 400


def free_reduce(letters) -> Word:
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(int(l))
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple(-l for l in reversed(w))


def serialize_word(w: Word) -> str:
    return "-".join(("+%d" % l) if l > 0 else ("-%d" % -l) for l in w)


def parse_word(s: str) -> Word:
    s = s.strip()
    if not s:
        return ()
    toks = re.findall(r"[+-]\d+", s)
    w = tuple(int(t) for t in toks)
    if serialize_word(w) != s:
        raise ValueError("malformed word string: %r" % s)
    if any(l == 0 or abs(l) > 4 for l in w):
        raise ValueError("word letters must be in +-1..+-4: %r" % s)
    return w


@dataclass(frozen=True)
class SurfaceGroup:
    """Genus-2 surface group with explicit octagon side pairings."""

    generators: np.ndarray      # (4, 2, 2) images of a1, b1, a2, b2
    covolume: float
    pairings: np.ndarray        # (8, 2, 2) side pairings, g_{k+4} = g_k^{-1}
    pairing_words: tuple        # presentation word of each pairing
    circumradius: float


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def bolza_preset() -> SurfaceGroup:
    m = np.arccosh(COT_PI_8)
    T = np.array([[np.exp(m), 0.0], [0.0, np.exp(-m)]])
    pair = np.empty((8, 2, 2))
    for k in range(8):
        R = _rotation(k * np.pi / 4.0)
        pair[k] = mat_prod(R, T, _rotation(-k * np.pi / 4.0))
    # sanity: opposite pairings invert each other
    for k in range(4):
        if not psl_close(pair[k + 4], mat_inv(pair[k]), 1e-12):
            raise AssertionError("side pairing construction broken")

    pairing_words = tuple(
        free_reduce(_SIDE_TO_PRES[k + 1]) for k in range(4)
    ) + tuple(free_reduce(word_inverse(_SIDE_TO_PRES[k + 1])) for k in range(4))

    a1 = pair[0]
    b1 = mat_prod(mat_inv(pair[1]), pair[2], mat_inv(pair[3]))
    a2 = mat_prod(b1, pair[1])
    b2 = mat_prod(mat_inv(pair[2]), pair[1])
    gens = np.stack([a1, b1, a2, b2])

    g = SurfaceGroup(
        generators=gens,
        covolume=float(4.0 * np.pi),
        pairings=pair,
        pairing_words=pairing_words,
        circumradius=CIRCUMRADIUS,
    )
    resid = np.max(np.abs(evaluate_word(g, RELATOR) - np.eye(2)))
    resid = min(resid, np.max(np.abs(evaluate_word(g, RELATOR) + np.eye(2))))
    if resid > 1e-10:
        raise AssertionError("octagon group relator residual %.3e > 1e-10" % resid)
    # the pairing words must reproduce the pairing matrices exactly
    for k in range(8):
        if not psl_close(evaluate_word(g, pairing_words[k]), pair[k], 1e-9):
            raise AssertionError("pairing word %d inconsistent" % k)
    return g


def evaluate_word(g: SurfaceGroup, w: Word) -> np.ndarray:
    """Product of generator matrices, det-renormalized, PSL sign-canonical."""
    out = np.eye(2)
    for l in w:
        m = g.generators[abs(l) - 1]
        out = renormalize(out @ (m if l > 0 else mat_inv(m)))
    return canonical_sign(out)


@dataclass(frozen=True)
class ConjugacyClass:
    rep_word: Word
    rep_matrix: np.ndarray
    trace: float
    length: float
    power: int

    @property
    def primitive_length(self) -> float:
        return self.length / self.power

    @property
    def discriminant(self) -> float:
        return float(2.0 * np.sinh(self.length / 2.0))


# ---------------------------------------------------------------------------
# ball enumeration


def _round_keys(mats: np.ndarray) -> np.ndarray:
    return np.round(mats.reshape(-1, 4) / _KEY_SCALE).astype(np.int64)


def _key_hash(keys: np.ndarray) -> np.ndarray:
    """uint64 hash of each (4,) int64 key row.  Each step mixes one more key
    in by a bijection of uint64, so rows differing in one key never collide."""
    k = keys.view(np.uint64)
    h = np.zeros(k.shape[0], dtype=np.uint64)
    for j in range(4):
        h = h ^ k[:, j]
        h = (h ^ (h >> 30)) * _MIX[0]
        h = (h ^ (h >> 27)) * _MIX[1]
        h = h ^ (h >> 31)
    return h


class _KeySet:
    """Set of (4,) integer key rows, found by a sorted array of their hashes.

    Two rows are the same element only when all four keys are equal.  A
    hash shared by rows that differ anywhere raises EnumerationFailed, so
    distinct elements are never merged.
    """

    def __init__(self):
        self.hashes = np.empty(0, dtype=np.uint64)     # ascending
        self.ids = np.empty(0, dtype=np.int64)         # row of each hash
        self.rows = np.empty((0, 4), dtype=np.int64)   # in insertion order

    def add(self, keys: np.ndarray) -> np.ndarray:
        """Insert the rows of `keys` not yet in the set.  Returns the index
        of the first occurrence of each inserted row, ascending."""
        h = _key_hash(keys)
        order = np.argsort(h)
        hs = h[order]
        lead = np.ones(hs.size, dtype=bool)            # starts a run of one hash
        lead[1:] = hs[1:] != hs[:-1]
        # the first occurrence of a hash is the least index in its run
        first = np.minimum.reduceat(order, np.flatnonzero(lead))
        _check_same_rows(keys[order], keys[first[np.cumsum(lead) - 1]])
        uh = hs[lead]
        pos = np.searchsorted(self.hashes, uh)
        hit = pos < self.hashes.size
        hit[hit] = self.hashes[pos[hit]] == uh[hit]
        _check_same_rows(keys[first[hit]], self.rows[self.ids[pos[hit]]])
        new = ~hit
        ids = self.rows.shape[0] + np.arange(np.count_nonzero(new))
        self.hashes = np.insert(self.hashes, pos[new], uh[new])
        self.ids = np.insert(self.ids, pos[new], ids)
        self.rows = np.concatenate([self.rows, keys[first[new]]])
        return np.sort(first[new])


def _check_same_rows(a: np.ndarray, b: np.ndarray) -> None:
    differ = np.any(a != b, axis=1)
    if np.any(differ):
        raise EnumerationFailed(
            "%d distinct key rows share a hash, first %s and %s"
            % (int(differ.sum()), a[differ][0].tolist(), b[differ][0].tolist())
        )


def _bfs_ball(pairings: np.ndarray, r_keep: float, r_prune: float, budget: int):
    """All group elements with displacement <= r_prune, by breadth-first search
    over the side pairings.  Returns (mats, disp, parent, letter, kept_mask);
    parent/letter chains reconstruct side-pairing words.  Exploring to
    r_prune > r_keep + circumradius guarantees no element under r_keep is
    lost to prefix pruning (a tile path to gamma stays within
    disp(gamma) + circumradius of the basepoint).
    """
    projected = 1.5 * (np.cosh(r_prune) - 1.0) / 2.0 + 100.0
    if projected > budget:
        raise CutoffTooLarge(
            "projected ~%d elements exceeds budget %d" % (int(projected), budget)
        )

    identity = np.eye(2)[None]
    mats = [identity]
    disp = [np.zeros(1)]
    parent = [np.array([-1], dtype=np.int64)]
    letter = [np.array([-1], dtype=np.int8)]
    seen = _KeySet()
    seen.add(_round_keys(identity))
    total = 1
    # displacement <= r  <=>  |beta|^2 <= tanh(r/2)^2 |alpha|^2, which does
    # not depend on the scale of the matrix, so the raw float64 product
    # pre-filters the children; the 1e-6 margin covers rounding, and the
    # survivors take the exact test after renormalization
    q2_max = np.tanh((r_prune + 1e-6) / 2.0) ** 2
    p = pairings.reshape(1, 8, 4)

    while True:
        f = mats[-1].reshape(-1, 1, 4)             # the frontier, (n, 1, 4)
        n = f.shape[0]
        # entries of frontier[i] @ pairings[k] at flat index 8 i + k
        a = (f[..., 0] * p[..., 0] + f[..., 1] * p[..., 2]).ravel()
        b = (f[..., 0] * p[..., 1] + f[..., 1] * p[..., 3]).ravel()
        c = (f[..., 2] * p[..., 0] + f[..., 3] * p[..., 2]).ravel()
        d = (f[..., 2] * p[..., 1] + f[..., 3] * p[..., 3]).ravel()
        beta2 = (a - d) ** 2 + (b + c) ** 2                # 4 |beta|^2
        alpha2 = (a + d) ** 2 + (b - c) ** 2               # 4 |alpha|^2
        near = np.flatnonzero(beta2 <= q2_max * alpha2)
        child = np.stack([a[near], b[near], c[near], d[near]], axis=1).reshape(-1, 2, 2)
        child = canonical_sign(renormalize(child))
        cdisp = displacement(child)
        ok = cdisp <= r_prune
        near, child, cdisp = near[ok], child[ok], cdisp[ok]

        fresh = seen.add(_round_keys(child))
        if fresh.size == 0:
            break
        mats.append(child[fresh])
        disp.append(cdisp[fresh])
        parent.append(total - n + near[fresh] // 8)
        letter.append((near[fresh] % 8).astype(np.int8))
        total += fresh.size
        if total > budget:
            raise CutoffTooLarge("enumeration exceeded budget %d elements" % budget)

    disp = np.concatenate(disp)
    return (
        np.concatenate(mats),
        disp,
        np.concatenate(parent),
        np.concatenate(letter),
        disp <= r_keep,
    )


def _conjugate(a: np.ndarray, m: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    """a @ m @ a_inv over broadcast batches of 2x2 matrices.  The terms are
    summed over (j, k) in row-major order, as numpy.einsum sums them, which
    keeps class representatives and lengths.csv the same bit for bit."""
    return sum(
        a[..., :, j, None] * m[..., j, k, None, None] * a_inv[..., None, k, :]
        for j in (0, 1)
        for k in (0, 1)
    )


def _side_word_of(parent: np.ndarray, letter: np.ndarray, idx: int) -> list:
    """Side-pairing word (letters 0..7) for element idx, root to leaf."""
    out = []
    while idx > 0:
        out.append(int(letter[idx]))
        idx = int(parent[idx])
    out.reverse()
    return out


def _side_letters_to_pres(side_letters) -> Word:
    out = []
    for k in side_letters:
        if k < 4:
            out.extend(_SIDE_TO_PRES[k + 1])
        else:
            out.extend(word_inverse(_SIDE_TO_PRES[k - 4 + 1]))
    return free_reduce(out)


def _pull_axes(mats: np.ndarray, pairings: np.ndarray):
    """Conjugate each matrix so its axis foot lands in the Dirichlet octagon.

    Greedy: while some pairing moves the foot strictly closer to the
    basepoint, apply the best one.  Returns pulled matrices and, per
    element, the conjugator's side-letter word (leftmost letter applied
    last), i.e. pulled = w gamma w^{-1}.
    """
    n = mats.shape[0]
    cur = mats.copy()
    words = [[] for _ in range(n)]
    pinv = mat_inv(pairings)
    active = np.arange(n)
    for _ in range(_PULL_STEPS):
        if active.size == 0:
            break
        feet = axis_foot(cur[active])
        d0 = hyp_dist(feet, 0.0)
        moved = disk_apply(pairings[:, None], feet[None, :])   # (8, na)
        dm = hyp_dist(moved, 0.0)
        best = np.argmin(dm, axis=0)
        bestd = dm[best, np.arange(active.size)]
        improve = bestd < d0 - 1e-12
        if not np.any(improve):
            break
        sel = active[improve]
        bsel = best[improve]
        cur[sel] = canonical_sign(
            renormalize(_conjugate(pairings[bsel], cur[sel], pinv[bsel]))
        )
        for j, k in zip(sel, bsel):
            words[j].insert(0, int(k))
        active = sel
    else:
        raise EnumerationFailed(
            "axis pull of %d elements did not settle in %d steps"
            % (active.size, _PULL_STEPS)
        )
    return cur, words


def _canonical_from_pulled(pulled: np.ndarray, delta: np.ndarray, delta_inv: np.ndarray):
    """Best conjugate of one pulled element over the delta set.

    Candidates are conjugates whose axis stays near the basepoint (within
    0.1 of the minimum); the canonical form is the lexicographic minimum
    of their rounded entries.  Returns (canonical matrix, key, index of
    the chosen conjugator in delta).
    """
    conj = _conjugate(delta, pulled, delta_inv)
    # axis distances of the raw products differ from the renormalized ones
    # by < 3e-4 up to L_MAX_CAP, so only conjugates within 0.1 + 1e-2 of
    # the raw minimum can be candidates; just those are renormalized
    raw = axis_dist_to_origin(conj)
    near = np.flatnonzero(raw <= raw.min() + 0.11)
    conj = canonical_sign(renormalize(conj[near]))
    dist = axis_dist_to_origin(conj)
    dmin = dist.min()
    cand_idx = np.nonzero(dist <= dmin + 0.1)[0]
    ent = _round_keys(conj[cand_idx])
    order = np.lexsort((ent[:, 3], ent[:, 2], ent[:, 1], ent[:, 0]))
    best = cand_idx[order[0]]
    ell = float(translation_length(conj[best]))
    key = (int(round(ell / _KEY_SCALE)),) + tuple(int(v) for v in ent[order[0]])
    return conj[best], key, int(near[best])


def _matrix_root(m: np.ndarray, k: int) -> np.ndarray:
    """k-th root of a hyperbolic element inside PSL(2,R)."""
    m = np.asarray(m, float)
    if trace(m) < 0:
        m = -m
    tr = float(trace(m))
    s = np.sqrt(tr * tr - 4.0)
    mu = (tr + s) / 2.0                      # eigenvalue > 1
    root_mu = mu ** (1.0 / k)
    # spectral decomposition: m = mu*P + (1/mu)*Q with P+Q = I
    P = (m - (1.0 / mu) * np.eye(2)) / (mu - 1.0 / mu)
    Q = np.eye(2) - P
    return canonical_sign(renormalize(root_mu * P + (1.0 / root_mu) * Q))


def enumerate_classes(g: SurfaceGroup, L_max: float, budget: int = 6_000_000):
    """One canonical representative per nontrivial conjugacy class with
    geodesic length <= L_max, sorted by (length, trace, word)."""
    if not (0.0 < L_max <= L_MAX_CAP):
        raise ValueError(
            "L_max must be in (0, %g], got %r: longer cutoffs need exact "
            "word arithmetic (ROADMAP item 2)" % (L_MAX_CAP, L_max)
        )

    R = g.circumradius
    r_keep = L_max + 2.0 * R + 0.5
    r_prune = r_keep + R
    mats, disp, parent, letter, kept = _bfs_ball(g.pairings, r_keep, r_prune, budget)

    tr_all = np.abs(trace(mats))
    max_tr = 2.0 * np.cosh(L_max / 2.0)
    is_id = np.max(np.abs(np.abs(mats) - np.eye(2)), axis=(1, 2)) <= 1e-9
    cand = kept & (tr_all <= max_tr + 1e-9) & ~is_id
    if np.any(cand & (tr_all <= 2.0 + 1e-10)):
        raise NotHyperbolic("enumerated a non-hyperbolic, non-identity element")
    cand_idx = np.nonzero(cand)[0]
    if cand_idx.size == 0:
        return []

    pulled, pull_words = _pull_axes(mats[cand_idx], g.pairings)

    # collapse identical pulled forms before the expensive canonical search
    reps = _KeySet().add(_round_keys(pulled))

    d_rad = L_max / 2.0 + 2.0 * R + 0.7
    delta_idx = np.nonzero(disp <= d_rad)[0]
    delta = mats[delta_idx]
    delta_inv = mat_inv(delta)

    classes: dict = {}
    for i in reps:
        cmat, key, bi = _canonical_from_pulled(pulled[i], delta, delta_inv)
        if key in classes:
            continue
        orig = cand_idx[i]
        w_delta = _side_word_of(parent, letter, int(delta_idx[bi]))
        w_gamma = _side_word_of(parent, letter, int(orig))
        conj = w_delta + pull_words[i]
        inv_conj = [(k + 4) % 8 for k in reversed(conj)]
        rep_word = _side_letters_to_pres(conj + w_gamma + inv_conj)
        classes[key] = (cmat, rep_word)

    # tolerance merge: rounding can split one class across adjacent cells
    items = sorted(classes.items(), key=lambda kv: kv[0])
    merged = []
    for key, (cmat, w) in items:
        dup = False
        for key2, (cmat2, _w2) in merged:
            if abs(key[0] - key2[0]) * _KEY_SCALE <= 5e-6 and psl_close(cmat, cmat2, 1e-5):
                dup = True
                break
        if not dup:
            merged.append((key, (cmat, w)))

    # assemble ConjugacyClass records; the power is the largest k whose
    # k-th root lands on an enumerated class of length ell / k
    recs = [(w, cmat, float(trace(cmat)), float(translation_length(cmat)))
            for _, (cmat, w) in merged]
    recs.sort(key=lambda r: r[3])

    out = []
    lengths = np.array([r[3] for r in recs])
    systole = lengths.min()
    for w, cmat, tr, ell in recs:
        power = 1
        kmax = int(np.floor(ell / systole + 1e-9))
        for k in range(kmax, 1, -1):
            l0 = ell / k
            near = np.nonzero(np.abs(lengths - l0) <= 1e-7 * (1.0 + l0))[0]
            if near.size == 0:
                continue
            root = _matrix_root(cmat, k)
            rpull, _ = _pull_axes(root[None], g.pairings)
            rcan, _, _ = _canonical_from_pulled(rpull[0], delta, delta_inv)
            if any(psl_close(rcan, recs[j][1], 1e-6) for j in near):
                power = k
                break
        out.append(
            ConjugacyClass(
                rep_word=w,
                rep_matrix=cmat,
                trace=tr,
                length=ell,
                power=power,
            )
        )

    out.sort(key=lambda c: (c.length, c.trace, c.rep_word))

    # internal consistency: the stored word must evaluate to the stored matrix
    for c in out:
        ev = evaluate_word(g, c.rep_word)
        tol = float(1e-7 * (1.0 + np.max(np.abs(c.rep_matrix))))
        dev = float(min(np.max(np.abs(ev - c.rep_matrix)),
                        np.max(np.abs(ev + c.rep_matrix))))
        if not dev <= tol:
            raise ClassWordMismatch(dev, tol)
    return out
