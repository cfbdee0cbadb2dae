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
    disk_coeffs,
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
# scales like 1/max-entry, and entries stay below 600 up to L_MAX_CAP),
# while path-dependent floating-point drift stays below ~1e-9, so 1e-6 cells
# never merge distinct elements.  They do not always identify equal ones: a
# drift across a cell boundary leaves one element in two adjacent cells.
# The ball holds 1 such pair at L_max 6, 17 at L_max 7 and 39 at L_MAX_CAP
# (pairs of ball elements within 1e-5 of each other; none lies within 1e-3
# without lying within 1e-5); the search forms no child that steps back to
# its parent, which would add 35 pairs at L_max 7 and 48 at L_MAX_CAP.
# Such duplicates cost only repeated work, because classes are keyed by
# their canonical form.
# The four integer keys of a matrix are deduped as one row, by the exact
# bytes of the row (`_add_rows`).
_KEY_SCALE = 1e-6

# greedy axis-pull steps before enumeration gives up
_PULL_STEPS = 400

# Most ball elements enumeration may visit.  At L_MAX_CAP the projection
# is about 117 k, so this only fires once the cap is raised.
_BUDGET = 6_000_000


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


def evaluate_words(g: SurfaceGroup, words) -> np.ndarray:
    """Products of generator matrices, det-renormalized, PSL sign-canonical.

    Words of equal length are multiplied together, left to right, one
    `renormalize` per letter position; each matrix is bit for bit the
    one-word product.  Returns an (n, 2, 2) array in the order of `words`.
    """
    # letter l > 0 is row l - 1, its inverse -l is row 3 + l
    letters = np.concatenate([g.generators, mat_inv(g.generators)])
    sizes = np.array([len(w) for w in words], dtype=int)
    out = np.empty((sizes.size, 2, 2))
    for n in np.unique(sizes):
        rows = np.flatnonzero(sizes == n)
        idx = np.array([words[i] for i in rows], dtype=int).reshape(rows.size, n)
        idx = np.where(idx > 0, idx - 1, 3 - idx)
        prod = np.broadcast_to(np.eye(2), (rows.size, 2, 2))
        for j in range(n):
            prod = renormalize(prod @ letters[idx[:, j]])
        out[rows] = canonical_sign(prod)
    return out


def evaluate_word(g: SurfaceGroup, w: Word) -> np.ndarray:
    """`evaluate_words` for one word: its (2, 2) matrix."""
    return evaluate_words(g, [w])[0]


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


def _add_rows(seen: set, keys: np.ndarray) -> np.ndarray:
    """Insert into `seen` the (4,) integer key rows of `keys` it lacks, as
    the bytes of each row, so two rows are one element exactly when all
    four keys are equal.  Returns the index of the first occurrence of each
    inserted row, ascending."""
    rows = np.ascontiguousarray(keys).view(np.dtype((np.void, 32))).ravel()
    fresh = []
    for i, row in enumerate(rows.tolist()):
        if row not in seen:
            seen.add(row)
            fresh.append(i)
    return np.array(fresh, dtype=np.int64)


def _bfs_ball(pairings: np.ndarray, radius: float):
    """All group elements with displacement <= radius, by breadth-first
    search over the side pairings.  Returns (mats, disp, parent, letter);
    parent/letter chains reconstruct side-pairing words.

    Pruning every element past `radius` loses nothing.  The regular octagon
    is the Dirichlet domain of the group at the basepoint o (Beardon, The
    Geometry of Discrete Groups, 1983, 9.4): the points at least as close
    to o as to every g_k o.  For gamma != 1 the orbit point gamma^{-1} o
    lies outside it, so some g_k o is strictly closer to it than o is, and
    disp(gamma g_k) = d(gamma^{-1} o, g_k o) < d(gamma^{-1} o, o) =
    disp(gamma).  Such neighbours descend from any element of the ball to
    the identity without leaving the ball, so each element is reached.
    The child of gamma by the inverse of its last letter is gamma's parent
    and is not formed.
    """
    projected = 1.5 * (np.cosh(radius) - 1.0) / 2.0 + 100.0
    if projected > _BUDGET:
        raise CutoffTooLarge(
            "projected ~%d elements exceeds budget %d" % (int(projected), _BUDGET)
        )

    identity = np.eye(2)[None]
    mats = [identity]
    disp = [np.zeros(1)]
    parent = [np.array([-1], dtype=np.int64)]
    letter = [np.array([-1], dtype=np.int8)]
    seen = set()
    _add_rows(seen, _round_keys(identity))
    total = 1
    # displacement <= r  <=>  |beta|^2 <= tanh(r/2)^2 |alpha|^2, which does
    # not depend on the scale of the matrix, so the raw float64 product
    # pre-filters the children; the 1e-6 margin covers rounding, and the
    # survivors take the exact test after renormalization
    q2_max = np.tanh((radius + 1e-6) / 2.0) ** 2
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
        inside = beta2 <= q2_max * alpha2
        # the child by the inverse of an element's last letter is its parent
        last = letter[-1].astype(np.int64)
        inside[(8 * np.arange(n) + (last + 4) % 8)[last >= 0]] = False
        near = np.flatnonzero(inside)
        child = np.stack([a[near], b[near], c[near], d[near]], axis=1).reshape(-1, 2, 2)
        child = canonical_sign(renormalize(child))
        cdisp = displacement(child)
        ok = cdisp <= radius
        near, child, cdisp = near[ok], child[ok], cdisp[ok]

        fresh = _add_rows(seen, _round_keys(child))
        if fresh.size == 0:
            break
        mats.append(child[fresh])
        disp.append(cdisp[fresh])
        parent.append(total - n + near[fresh] // 8)
        letter.append((near[fresh] % 8).astype(np.int8))
        total += fresh.size
        if total > _BUDGET:
            raise CutoffTooLarge("enumeration exceeded budget %d elements" % _BUDGET)

    return (
        np.concatenate(mats),
        np.concatenate(disp),
        np.concatenate(parent),
        np.concatenate(letter),
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


def _side_letters_to_pres(g: SurfaceGroup, side_letters) -> Word:
    return free_reduce(l for k in side_letters for l in g.pairing_words[k])


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


# The canonical search filters (form, conjugator) pairs before it forms any
# conjugate.  The axis of delta p delta^-1 is delta(axis p), so its distance
# to the basepoint o is d(z, axis p) with z = delta^-1 o, and by
#   sinh(d(z, p z) / 2) = cosh(d(z, axis p)) sinh(l / 2)
# it grows with s = sinh(d(z, p z) / 2) = |beta + (alpha - conj(alpha)) z -
# conj(beta) z^2| / (1 - |z|^2), (alpha, beta) the disk coefficients of p.
# s needs only arithmetic on per-form and per-conjugator values, so every
# pair gets it and only pairs whose distance lies within 0.11 plus this
# slack of the form's minimum are conjugated.  On the conjugates the exact
# rule keeps, the filter's distance and the rule's (on the renormalized
# conjugate) differ by at most 2.3e-6 at L_MAX_CAP, over every pulled form
# (test_axis_filter_gap_is_below_the_slack), so the filter drops none.
_FILTER_SLACK = 0.02

# Forms per filter pass.  A pass holds a few (chunk, len(delta)) arrays:
# at L_max 7 (2,217 conjugators) each is 2.3 MB of complex.  One pass over
# all 584 forms raised the peak memory of that enumeration by 32 MB; 16 to
# 128 forms per pass take the same time.
_SEARCH_CHUNK = 64


def _axis_sinh(forms: np.ndarray, delta_inv: np.ndarray):
    """Yield (lo, s) for each chunk of _SEARCH_CHUNK forms starting at lo,
    where s[i, j] = sinh(d(z, p z) / 2) for p = forms[lo + i] and
    z = delta_inv[j] o, the basepoint pulled back by the j-th conjugator."""
    a, b = disk_coeffs(delta_inv)
    z = b / np.conj(a)
    z2 = z * z
    scale = np.abs(a) ** 2                  # 1 / (1 - |z|^2)
    alpha, beta = disk_coeffs(forms)
    for lo in range(0, forms.shape[0], _SEARCH_CHUNK):
        al = alpha[lo:lo + _SEARCH_CHUNK, None]
        be = beta[lo:lo + _SEARCH_CHUNK, None]
        yield lo, np.abs(be + (al - np.conj(al)) * z - np.conj(be) * z2) * scale


def _group_min(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Minimum of x over each run of equal values in the sorted `rows`,
    repeated across the run."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return np.repeat(np.minimum.reduceat(x, starts), np.diff(starts, append=x.size))


def _canonical_forms(forms: np.ndarray, delta: np.ndarray, delta_inv: np.ndarray):
    """Best conjugate over the delta set of each of a batch of elements whose
    axes are near the basepoint: pulled elements, or powers of canonical
    forms.

    Candidates are conjugates whose axis stays near the basepoint (within
    0.1 of the minimum); the canonical form is the lexicographic minimum
    of their rounded entries, the first conjugator in delta order on a tie.
    Returns (canonical matrices, keys, index of each chosen conjugator in
    delta).
    """
    half = np.sinh(translation_length(forms) / 2.0)
    rows, cols = [], []
    for lo, s in _axis_sinh(forms, delta_inv):
        h = half[lo:lo + s.shape[0]]
        reach = np.arccosh(np.maximum(s.min(axis=1) / h, 1.0)) + 0.11 + _FILTER_SLACK
        r, c = np.nonzero(s <= (np.cosh(reach) * h)[:, None])
        rows.append(r + lo)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)

    # the exact rule on the pairs left, form by form in delta order
    conj = _conjugate(delta[cols], forms[rows], delta_inv[cols])
    conj = canonical_sign(renormalize(conj))
    dist = axis_dist_to_origin(conj)
    cand = dist <= _group_min(dist, rows) + 0.1
    rows, cols, conj = rows[cand], cols[cand], conj[cand]
    ent = _round_keys(conj)
    # lexsort is stable, so a tie goes to the first conjugator in delta order
    order = np.lexsort((ent[:, 3], ent[:, 2], ent[:, 1], ent[:, 0], rows))
    best = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    cells = np.round(translation_length(conj[best]) / _KEY_SCALE).astype(np.int64)
    keys = [tuple(k) for k in np.column_stack([cells, ent[best]]).tolist()]
    return conj[best], keys, cols[best]


def enumerate_classes(g: SurfaceGroup, L_max: float):
    """One canonical representative per nontrivial conjugacy class with
    geodesic length <= L_max, sorted by (length, trace, word)."""
    if not (0.0 < L_max <= L_MAX_CAP):
        raise ValueError(
            "L_max must be in (0, %g], got %r: longer cutoffs need exact "
            "word arithmetic (ROADMAP item 2)" % (L_MAX_CAP, L_max)
        )

    R = g.circumradius
    mats, disp, parent, letter = _bfs_ball(g.pairings, L_max + 2.0 * R + 0.5)

    tr_all = np.abs(trace(mats))
    max_tr = 2.0 * np.cosh(L_max / 2.0)
    is_id = np.max(np.abs(np.abs(mats) - np.eye(2)), axis=(1, 2)) <= 1e-9
    cand = (tr_all <= max_tr + 1e-9) & ~is_id
    if np.any(cand & (tr_all <= 2.0 + 1e-10)):
        raise NotHyperbolic("enumerated a non-hyperbolic, non-identity element")
    cand_idx = np.nonzero(cand)[0]
    if cand_idx.size == 0:
        return []

    pulled, pull_words = _pull_axes(mats[cand_idx], g.pairings)

    # collapse identical pulled forms before the canonical search
    reps = _add_rows(set(), _round_keys(pulled))

    # the conjugators: the ball holds them, since this radius is below the
    # ball's for every L_max >= 0.4, and below the systole (3.06) there are
    # no candidates and no conjugators are needed
    d_rad = L_max / 2.0 + 2.0 * R + 0.7
    delta_idx = np.nonzero(disp <= d_rad)[0]
    delta = mats[delta_idx]
    delta_inv = mat_inv(delta)

    # the first pulled form of each key supplies its class's word
    classes: dict = {}
    for i, cmat, key, bi in zip(reps, *_canonical_forms(pulled[reps], delta, delta_inv)):
        if key in classes:
            continue
        orig = cand_idx[i]
        w_delta = _side_word_of(parent, letter, int(delta_idx[bi]))
        w_gamma = _side_word_of(parent, letter, int(orig))
        conj = w_delta + pull_words[i]
        inv_conj = [(k + 4) % 8 for k in reversed(conj)]
        rep_word = _side_letters_to_pres(g, conj + w_gamma + inv_conj)
        classes[key] = (cmat, rep_word)

    # tolerance merge: rounding can split one class across adjacent cells.
    # Keys ascend; a class is dropped when it matches, up to sign and within
    # 1e-5, a kept class at most 5 length cells below it.
    keys = sorted(classes)
    cells = np.array([key[0] for key in keys])
    cmats = np.array([classes[key][0] for key in keys])
    keep = np.ones(len(keys), dtype=bool)
    for i, lo in enumerate(np.searchsorted(cells, cells - 5)):
        keep[i] = not psl_close(cmats[lo:i][keep[lo:i]], cmats[i], 1e-5).any()
    merged = [(keys[i],) + classes[keys[i]] for i in np.flatnonzero(keep)]

    # the power of a class is the largest k for which the k-th power of a
    # class canonicalizes onto its key.  A canonical form's axis is already
    # at the basepoint, so the same conjugators canonicalize its powers, all
    # in one search.
    power = {key: 1 for key, _, _ in merged}
    pows, of = [], []
    for _, cmat, _ in merged:
        ell = float(translation_length(cmat))
        pk = cmat
        for k in range(2, int(L_max / ell) + 1):
            pk = mat_prod(pk, cmat)
            pows.append(pk)
            of.append((k, ell))
    if pows:
        _, pkeys, _ = _canonical_forms(np.array(pows), delta, delta_inv)
        for pkey, (k, ell) in zip(pkeys, of):
            if pkey in power:
                power[pkey] = max(power[pkey], k)
            elif k * ell <= L_max - 1e-6:
                raise EnumerationFailed(
                    "power %d of the class of length %.9f is not an enumerated "
                    "class" % (k, ell)
                )

    out = [ConjugacyClass(w, cmat, float(trace(cmat)), float(translation_length(cmat)),
                          power[key]) for key, cmat, w in merged]
    out.sort(key=lambda c: (c.length, c.trace, c.rep_word))

    # internal consistency: the stored word must evaluate to the stored matrix
    ev = evaluate_words(g, [c.rep_word for c in out])
    cm = np.array([c.rep_matrix for c in out])
    tol = 1e-7 * (1.0 + np.abs(cm).max((1, 2)))
    dev = np.minimum(np.abs(ev - cm).max((1, 2)), np.abs(ev + cm).max((1, 2)))
    bad = np.flatnonzero(~(dev <= tol))
    if bad.size:
        raise ClassWordMismatch(float(dev[bad[0]]), float(tol[bad[0]]))
    return out
