"""Surface group construction and conjugacy class enumeration.

The expected values here are produced by two independent routes:

* closed-form octagon trigonometry (half-angle identities, no reference to
  the implementation's own constants), and
* a brute-force enumerator with exhaustive conjugator-orbit dedup.  It
  shares the ball-generation alphabet with the implementation (the side
  pairings) but none of the canonicalization machinery: classes are
  merged by literally conjugating with every ball element and matching
  rounded keys.  Its members and conjugators lie within the triangle
  bound r_keep = L + 2 circumradius + 0.5 (`_triangle_radius`), not the
  displacement bound that `enumerate_classes` searches to, and its ball
  comes from a per-element reference search (`_reference_ball`), pruned
  at the generic tile-path bound r_keep + circumradius rather than at the
  Dirichlet-domain bound r_keep that `_bfs_ball` relies on; at a single
  radius the vectorized `_bfs_ball` must reproduce the reference search
  bit for bit.  The ball is inverse-closed, so the oracle counts the two
  orientations of each geodesic separately; count agreement checks that
  contract too.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebench import fuchsian
from tracebench.errors import ClassWordMismatch, CutoffTooLarge, EnumerationFailed
from tracebench.fuchsian import (
    RELATOR,
    bolza_preset,
    enumerate_classes,
    evaluate_word,
    free_reduce,
    parse_word,
    serialize_word,
    word_inverse,
)
from tracebench.hyperbolic import (
    canonical_sign,
    disk_coeffs,
    displacement,
    mat_inv,
    mat_prod,
    psl_close,
    renormalize,
    trace,
    translation_length,
)
from tracebench.reps import character_rep, trace_on_class

from reference import axis_dist_to_origin, bfs_ball_every_child, evaluate_word_by_letter

# --- closed-form octagon constants, derived here from scratch ---
# regular hyperbolic octagon with vertex angle 2*pi/8: the right triangle
# (center, side midpoint, corner) gives cosh R = cot^2(pi/8) for the
# circumradius and cosh r = 1 + sqrt(2) for the inradius; the shortest
# closed geodesic runs between opposite side midpoints, length 2r
_COS45 = np.sqrt(0.5)
_COT_PI8 = (1 + _COS45) / _COS45  # cot(x/2) = (1+cos x)/sin x at x = pi/4
_COSH_R = _COT_PI8**2  # = 3 + 2*sqrt(2)
_COSH_INRAD = 1 + np.sqrt(2.0)  # cosh of half the systole
_SYSTOLE = 2 * np.log(_COSH_INRAD + np.sqrt(_COSH_INRAD**2 - 1))


def test_octagon_trigonometry_oracle():
    assert _COT_PI8 == pytest.approx(1 / np.tan(np.pi / 8), rel=1e-15)
    assert _COSH_R == pytest.approx(3 + 2 * np.sqrt(2), rel=1e-15)
    # vertex angles must sum to 2*pi: area = (8-2)*pi - 8*(pi/4) = 4*pi
    assert (8 - 2) * np.pi - 8 * (np.pi / 4) == pytest.approx(4 * np.pi)


def test_preset_basic_invariants(group):
    assert group.covolume == pytest.approx(4 * np.pi, rel=1e-15)
    assert group.circumradius == pytest.approx(np.arccosh(_COSH_R), rel=1e-14)
    assert group.generators.shape == (4, 2, 2)
    # generators are hyperbolic with |trace| = 2*(1+sqrt(2))... only the
    # side pairings have that trace; the presentation generators are words
    # in them, so check the pairings directly
    tr = np.abs(trace(group.pairings))
    assert np.allclose(tr, 2 * _COSH_INRAD, atol=1e-12)
    # sides pair as inverses
    for k in range(4):
        assert psl_close(group.pairings[k + 4], mat_inv(group.pairings[k]), 1e-12)


def test_relator_closes(group):
    img = evaluate_word(group, RELATOR)
    assert np.max(np.abs(img - np.eye(2))) < 1e-9


def test_pairing_words_reproduce_pairings(group):
    for k in range(8):
        img = evaluate_word(group, group.pairing_words[k])
        assert psl_close(img, group.pairings[k], 1e-8)


def test_systole_closed_form(group):
    classes = enumerate_classes(group, 3.5)
    assert len(classes) == 24
    for c in classes:
        assert c.length == pytest.approx(_SYSTOLE, abs=1e-9)
        assert c.power == 1
        assert c.primitive_length == pytest.approx(c.length, abs=0)


def test_empty_below_systole(group):
    assert enumerate_classes(group, 1.0) == []
    assert enumerate_classes(group, 3.0) == []


def test_shell_counts_L6(classes_L6):
    # oriented length spectrum of this surface starts 24, 24, 48
    lengths = np.array([c.length for c in classes_L6])
    shells = {}
    for ell in lengths:
        key = round(ell, 5)
        shells[key] = shells.get(key, 0) + 1
    assert shells == {
        round(_SYSTOLE, 5): 24,
        round(2 * np.arccosh(_COSH_R), 5): 24,
        5.82807: 48,
    }


def test_classes_sorted_and_consistent(classes_L6, group):
    lengths = [c.length for c in classes_L6]
    assert lengths == sorted(lengths)
    for c in classes_L6[::7]:
        img = evaluate_word(group, c.rep_word)
        assert abs(trace(img)) == pytest.approx(abs(c.trace), rel=1e-9)
        assert c.length == pytest.approx(
            2 * np.arccosh(abs(c.trace) / 2), rel=1e-12
        )
        assert c.discriminant == pytest.approx(2 * np.sinh(c.length / 2), rel=1e-12)


def _match_multisets(a, b, tol):
    """True if the complex values a and b agree pairwise within tol."""
    rest = list(b)
    for x in a:
        j = int(np.argmin([abs(x - y) for y in rest]))
        if abs(x - rest[j]) > tol:
            return False
        rest.pop(j)
    return not rest


def test_power_detection(classes_L62):
    squares = [c for c in classes_L62 if c.power == 2]
    systoles = [c for c in classes_L62 if c.power == 1
                and c.length == pytest.approx(_SYSTOLE, abs=1e-8)]
    assert len(squares) == len(systoles) == 24
    for c in squares:
        assert c.length == pytest.approx(2 * _SYSTOLE, abs=1e-8)
        assert c.primitive_length == pytest.approx(_SYSTOLE, abs=1e-8)
    # a class function, not lengths: under a generic non-unitary
    # character the squares are exactly the systole classes squared,
    # chi(p^2) = chi(p)^2, so the two multisets of values coincide
    chi = character_rep((1.3 * np.exp(0.4j), 0.8, 1, 1))
    got = [complex(trace_on_class(chi, c)) for c in squares]
    want = [complex(trace_on_class(chi, p)) ** 2 for p in systoles]
    assert _match_multisets(got, want, 1e-12)
    # the character is generic enough to tell a square from its root
    roots = [complex(trace_on_class(chi, p)) for p in systoles]
    assert not _match_multisets(got, roots, 1e-12)


def test_cutoff_guard(group, monkeypatch):
    # precondition violations are ValueErrors; the budget guard is the
    # typed error so callers can distinguish "ask for less" from "bug"
    with pytest.raises(ValueError):
        enumerate_classes(group, 13.0)
    with pytest.raises(ValueError):
        enumerate_classes(group, -1.0)
    # past 7.25 float64 words miss their matrices; rejected up front
    with pytest.raises(ValueError, match="exact word arithmetic"):
        enumerate_classes(group, 7.5)
    monkeypatch.setattr(fuchsian, "_BUDGET", 1000)
    with pytest.raises(CutoffTooLarge):
        enumerate_classes(group, 6.0)


def test_tolerance_merge_at_the_cap(group):
    # at the cap no two classes lie within the merge's length and matrix
    # tolerances of each other.  The merge drops nothing here: without it
    # the 264 classes are the same, bit for bit (so are the 96 and 216 at
    # L_max 6 and 7); test_forced_split_is_merged makes it fire.
    classes = enumerate_classes(group, fuchsian.L_MAX_CAP)
    assert len(classes) == 264
    mats = fuchsian.evaluate_words(group, [c.rep_word for c in classes])
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            if classes[j].length - a.length > 5e-6:
                break
            assert not psl_close(mats[i], mats[j], 1e-5)


def test_forced_split_is_merged(group, classes_L62, monkeypatch):
    # force the split the merge exists for: the first pulled form that
    # canonicalizes onto an existing class gets a key one length cell up.
    # The merge must drop it and keep the first, unforced class.
    canon = fuchsian._canonical_forms
    seen, moved = set(), []

    def split_once(forms, delta, delta_inv):
        cmats, keys, idx = canon(forms, delta, delta_inv)
        for i, key in enumerate(keys):
            if key in seen and not moved:
                moved.append(key)
                keys[i] = (key[0] + 1,) + key[1:]
            seen.add(keys[i])
        return cmats, keys, idx

    monkeypatch.setattr(fuchsian, "_canonical_forms", split_once)
    got = enumerate_classes(group, 6.2)
    assert len(moved) == 1
    assert got == classes_L62


def test_missing_power_raises(group, monkeypatch):
    # a power inside the cutoff whose key is not an enumerated class is an
    # error, not a silent power of 1: turn every power (here the systole
    # squares, length 6.115 <= 6.2) slightly off its class
    exact = fuchsian.mat_prod
    turn = np.array([[np.cos(1e-3), np.sin(1e-3)], [-np.sin(1e-3), np.cos(1e-3)]])
    monkeypatch.setattr(fuchsian, "mat_prod", lambda *ms: exact(*ms, turn))
    with pytest.raises(EnumerationFailed, match="power 2 of the class of length 3.05"):
        enumerate_classes(group, 6.2)


def _perturbed_words(monkeypatch, eps=1e-4):
    """Make every word evaluation land eps off its true matrix."""
    exact = fuchsian.evaluate_words
    monkeypatch.setattr(
        fuchsian, "evaluate_words", lambda g, ws: exact(g, ws) + eps
    )


def test_word_check_raises_typed_error(group, monkeypatch):
    _perturbed_words(monkeypatch)
    with pytest.raises(ClassWordMismatch) as info:
        enumerate_classes(group, 3.5)
    assert info.value.deviation == pytest.approx(1e-4, rel=1e-6)
    assert info.value.deviation > info.value.tol


def test_word_check_exits_3_from_cli(group, monkeypatch, tmp_path, capsys):
    from tracebench.workbench import cli

    monkeypatch.setattr(fuchsian, "bolza_preset", lambda: group)
    _perturbed_words(monkeypatch)
    conf = tmp_path / "short.ini"
    conf.write_text("[run]\nL_max = 3.5\n")
    code = cli.main(["--config", str(conf), "--out", str(tmp_path), "enumerate"])
    assert code == 3
    assert "away from its matrix" in capsys.readouterr().err


def test_batched_words_match_letter_by_letter(group):
    # the word check evaluates every class word in one batch; each product
    # must be the one-word product's bits
    words = [c.rep_word for c in enumerate_classes(group, 7.0)]
    words += [(), RELATOR] + list(group.pairing_words)
    ev = fuchsian.evaluate_words(group, words)
    assert ev.shape == (len(words), 2, 2)
    for w, m in zip(words, ev):
        assert np.array_equal(m, evaluate_word_by_letter(group, w)), w
        assert np.array_equal(m, evaluate_word(group, w)), w


# --- brute-force oracle ---


def _keys(m):
    return np.round(m.reshape(-1, 4) / 1e-6).astype(np.int64)


def _triangle_radius(group, L):
    """The brute-force oracle's reference radius at cutoff L: the triangle
    bound on the displacement of a class member whose axis meets the
    octagon, with 0.5 to spare."""
    return L + 2 * group.circumradius + 0.5


def _ball_radius(group, L):
    """Ball radius of `enumerate_classes` at cutoff L."""
    return fuchsian._ball_radius(L, group.circumradius)


def _reference_ball(group, radius):
    """Elements within displacement `radius`, by breadth-first search pruned
    at `radius`, with a per-element set of key bytes.  Returns (mats, disp,
    parent, letter) in the order and dtypes of `_bfs_ball`."""
    gens = group.pairings
    frontier = np.eye(2)[None]
    seen = {_keys(frontier)[0].tobytes()}
    ball, disp = [frontier], [np.zeros(1)]
    parent = [np.array([-1], dtype=np.int64)]
    letter = [np.array([-1], dtype=np.int8)]
    total = 1
    while frontier.size:
        n = frontier.shape[0]
        child = np.einsum("nij,kjl->nkil", frontier, gens).reshape(-1, 2, 2)
        child = canonical_sign(renormalize(child))
        cdisp = displacement(child)
        ok = cdisp <= radius
        cparent = np.repeat(np.arange(total - n, total), 8)[ok]
        cletter = np.tile(np.arange(8, dtype=np.int8), n)[ok]
        child, cdisp = child[ok], cdisp[ok]
        kk = _keys(child)
        fresh = []
        for i in range(child.shape[0]):
            b = kk[i].tobytes()
            if b not in seen:
                seen.add(b)
                fresh.append(i)
        if not fresh:
            break
        fresh = np.array(fresh)
        frontier = child[fresh]
        ball.append(frontier)
        disp.append(cdisp[fresh])
        parent.append(cparent[fresh])
        letter.append(cletter[fresh])
        total += fresh.size
    return (np.concatenate(ball), np.concatenate(disp), np.concatenate(parent),
            np.concatenate(letter))


def _oracle_classes(group, L):
    """Conjugacy classes with length <= L by exhaustive orbit matching.
    Its ball searches to r_keep + circumradius and keeps r_keep: a tile
    path to gamma stays within disp(gamma) + circumradius of the basepoint,
    so this holds without the Dirichlet-domain descent."""
    r_keep = _triangle_radius(group, L)
    ball, disp, _, _ = _reference_ball(group, r_keep + group.circumradius)
    r_kept = disp <= r_keep

    tr = np.abs(trace(ball))
    ok = (tr > 2 + 1e-10) & r_kept
    ok &= 2 * np.arccosh(np.maximum(tr / 2, 1)) <= L + 1e-9
    members = ball[ok]
    conj = ball[r_kept]
    conj_inv = mat_inv(conj)

    member_key = {_keys(members)[i].tobytes(): i for i in range(members.shape[0])}
    assigned = {}
    reps = []
    for i in range(members.shape[0]):
        if i in assigned:
            continue
        orbit = np.einsum("nij,jk,nkl->nil", conj, members[i], conj_inv)
        orbit = canonical_sign(renormalize(orbit))
        hits = set()
        for key in _keys(orbit):
            j = member_key.get(key.tobytes())
            if j is not None:
                hits.add(j)
        for j in hits:
            assigned[j] = len(reps)
        reps.append(members[i])
    # every member must have landed in some orbit, else the conjugator
    # ball was too small and the class count would be inflated
    assert len(assigned) == members.shape[0]
    return reps


def _ball(group, L):
    return fuchsian._bfs_ball(group.pairings, _ball_radius(group, L))


@pytest.mark.parametrize("L", [4.0, 5.0])
def test_ball_matches_reference(group, L, monkeypatch):
    # same elements, order and words, bit for bit; also when the children
    # are formed 1 or 7 frontier rows at a time, so that a slice boundary
    # falls inside every level
    want = _reference_ball(group, _ball_radius(group, L))
    for rows in (fuchsian._SLICE_ROWS, 1, 7):
        monkeypatch.setattr(fuchsian, "_SLICE_ROWS", rows)
        got = _ball(group, L)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def test_ball_peak_memory(group):
    # the search forms the children of 1,024 frontier rows at a time and
    # dedupes them against one sorted array of 32-byte key rows: 138 B per
    # element at the L_max 7 radius (15,658 elements), the four returned
    # arrays' 49 B included.  All of a level's children at once and a set
    # of row bytes took 289 B on the 60,210 elements of the L_max 7
    # triangle radius
    tracemalloc.start()
    try:
        size = _ball(group, 7.0)[0].shape[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * size


@pytest.mark.parametrize("L, radius, backs", [
    (6.0, _ball_radius, 0),
    (fuchsian.L_MAX_CAP, _ball_radius, 0),
    (fuchsian.L_MAX_CAP, _triangle_radius, 48),
], ids=["6.0", "7.25", "7.25-triangle"])
def test_ball_skips_only_back_steps(group, L, radius, backs, monkeypatch):
    # the child by the inverse of an element's last letter is the parent
    # again; the search through every child keeps one only when rounding
    # drift puts it in a new key cell: none at the ball radius up to the
    # cap, 48 at the cap's triangle radius.  Skipping them drops those and
    # changes nothing else, classes included
    radius = radius(group, L)
    mats, disp, parent, letter = bfs_ball_every_child(group.pairings, radius)
    back = np.zeros(mats.shape[0], dtype=bool)
    back[1:] = (parent[1:] > 0) & (letter[1:] == (letter[parent[1:]] + 4) % 8)
    assert back.sum() == backs
    kept = ~back
    renumber = np.cumsum(kept) - 1
    want = (mats[kept], disp[kept], np.r_[-1, renumber[parent[kept][1:]]], letter[kept])
    bfs_ball = fuchsian._bfs_ball
    for got, w in zip(bfs_ball(group.pairings, radius), want):
        assert got.dtype == w.dtype
        assert np.array_equal(got, w)

    monkeypatch.setattr(fuchsian, "_bfs_ball", lambda p, r: bfs_ball(p, radius))
    classes = enumerate_classes(group, L)
    monkeypatch.setattr(fuchsian, "_bfs_ball", lambda p, r: bfs_ball_every_child(p, radius))
    assert enumerate_classes(group, L) == classes


@pytest.mark.parametrize("L", [4.0, 5.85, 6.0, 7.0, fuchsian.L_MAX_CAP])
def test_ball_radius_keeps_the_class_tables(group, L, monkeypatch):
    # a class's word and matrix come from the first element of its key in
    # ball order, which can lie past the displacement bound; the bound's
    # 0.5 slack keeps every field of every class what the triangle radius
    # gives.  With a slack of 0.2, L_max 5.85 gives other words
    classes = enumerate_classes(group, L)
    bfs_ball = fuchsian._bfs_ball
    monkeypatch.setattr(fuchsian, "_bfs_ball",
                        lambda p, r: bfs_ball(p, _triangle_radius(group, L)))
    assert enumerate_classes(group, L) == classes


def _reference_canonical(pulled, delta, delta_inv):
    """Canonical conjugate of one pulled element, every conjugate exact."""
    conj = np.einsum("nij,jk,nkl->nil", delta, pulled, delta_inv)
    conj = canonical_sign(renormalize(conj))
    dist = axis_dist_to_origin(conj)
    cand = np.nonzero(dist <= dist.min() + 0.1)[0]
    ent = _keys(conj[cand])
    best = cand[np.lexsort(ent.T[::-1])[0]]
    return conj[best], int(best)


def test_ball_descends_by_side_pairings(group):
    # the octagon is the Dirichlet domain at the basepoint, so every
    # element but the identity has a side-pairing neighbour gamma g_k of
    # strictly smaller displacement; pruning the search at the ball radius
    # relies on that.  The least gap measured is 0.156 at L_max 6 and 7.
    mats, disp, _, _ = _ball(group, 7.0)
    assert np.array_equal(mats[0], np.eye(2))
    nbr = np.einsum("nij,kjl->nkil", mats[1:], group.pairings)
    nbr_disp = displacement(renormalize(nbr).reshape(-1, 2, 2)).reshape(-1, 8)
    assert mats.shape[0] > 15000
    assert np.all(nbr_disp.min(axis=1) <= disp[1:] - 0.1)


@pytest.mark.parametrize("L", [4.0, 6.0, 7.0, fuchsian.L_MAX_CAP])
def test_ball_projection_within_twice_the_ball(group, monkeypatch, L):
    # the budget guard's up-front projection lies between the ball size and
    # twice it: a budget just below the size is refused before the search,
    # and a budget of twice the size admits the whole ball
    size = _ball(group, L)[0].shape[0]
    monkeypatch.setattr(fuchsian, "_BUDGET", size - 1)
    with pytest.raises(CutoffTooLarge, match="projected"):
        _ball(group, L)
    monkeypatch.setattr(fuchsian, "_BUDGET", 2 * size)
    assert _ball(group, L)[0].shape[0] == size


@functools.lru_cache(maxsize=3)
def _search_inputs(L):
    """Every pulled form of `enumerate_classes` at cutoff L (before the
    dedupe by key), its conjugators and their inverses."""
    group = bolza_preset()
    mats, disp, _, _ = _ball(group, L)
    tr = np.abs(trace(mats))
    cand = (tr > 2 + 1e-9) & (tr <= 2 * np.cosh(L / 2))
    pulled, _ = fuchsian._pull_axes(mats[cand], group.pairings)
    delta = mats[disp <= fuchsian._conjugator_radius(L, group.circumradius)]
    return pulled, delta, mat_inv(delta)


@pytest.mark.parametrize("L", [6.0, 7.0])
def test_pulled_forms_lie_within_the_displacement_bound(group, L):
    # a pulled form's axis meets the octagon, so it passes within the
    # circumradius R of the basepoint, and the displacement bound of its
    # length holds; the ball radius rests on that.  The largest axis
    # distance is R, so the bound is attained
    pulled, _, _ = _search_inputs(L)
    R = group.circumradius
    bound = fuchsian._displacement_bound(translation_length(pulled), R)
    excess = float((displacement(pulled) - bound).max())
    print("largest excess over the displacement bound %.2g, margin %.0fx to 1e-9"
          % (excess, 1e-9 / excess))
    assert excess <= 1e-9
    assert axis_dist_to_origin(pulled).max() == pytest.approx(R, abs=1e-9)


@functools.lru_cache(maxsize=2)
def _canonical_inputs(L):
    """The arguments of each `_canonical_forms` call that
    `enumerate_classes` makes at cutoff L: the deduped pulled forms, then
    the powers of the canonical forms, each with the conjugators and their
    inverses."""
    calls = []
    canon = fuchsian._canonical_forms

    def record(forms, delta, delta_inv):
        calls.append((forms, delta, delta_inv))
        return canon(forms, delta, delta_inv)

    fuchsian._canonical_forms = record
    try:
        enumerate_classes(bolza_preset(), L)
    finally:
        fuchsian._canonical_forms = canon
    return calls


@pytest.mark.parametrize("L, forms", [
    (6.2, 1256),
    pytest.param(fuchsian.L_MAX_CAP, 3400, marks=pytest.mark.slow),
])
def test_canonical_search_matches_full_search(L, forms):
    # the search conjugates only the pairs its axis test keeps; it must
    # pick the same conjugator, and the same bits, as renormalizing every
    # conjugate, for the pulled forms and for the powers of the classes
    pulled, delta, delta_inv = _search_inputs(L)
    assert pulled.shape[0] == forms
    _, powers = _canonical_inputs(L)
    assert powers[0].shape[0] == 24
    for batch, dl, dl_inv in [(pulled, delta, delta_inv), powers]:
        got, keys, idx = fuchsian._canonical_forms(batch, dl, dl_inv)
        assert len(keys) == idx.size == batch.shape[0]
        for p, g, gi in zip(batch, got, idx):
            want, wi = _reference_canonical(p, dl, dl_inv)
            assert gi == wi
            assert np.array_equal(g, want)


def _quadratic_sinh(forms, delta_inv):
    """sinh(d(z, p z) / 2) = |beta + (alpha - conj(alpha)) z - conj(beta) z^2|
    / (1 - |z|^2) over every (form p, point z = delta^-1 o) pair, from the
    disk coefficients of p and delta^-1: the disk model's route to the axis
    filter's quantity, the reference for the hyperboloid's linear form."""
    a, b = disk_coeffs(delta_inv)
    z = b / np.conj(a)
    alpha, beta = disk_coeffs(forms)
    al, be = alpha[:, None], beta[:, None]
    return np.abs(be + (al - np.conj(al)) * z - np.conj(be) * z * z) * np.abs(a) ** 2


def test_axis_sinh_satisfies_the_linear_relation():
    # sinh(d(z, p z) / 2) = cosh(d(z, axis p)) sinh(l / 2), so the
    # quadratic s and the linear g = sinh(d(z, axis p)) sinh(l / 2) satisfy
    # s^2 = g^2 + sinh(l / 2)^2 on every pair the filter tests
    pulled, _, delta_inv = _search_inputs(fuchsian.L_MAX_CAP)
    half = np.sinh(translation_length(pulled) / 2)
    worst = 0.0
    for lo, g in fuchsian._axis_sinh(pulled, delta_inv):
        forms = pulled[lo:lo + g.shape[0]]
        s2 = _quadratic_sinh(forms, delta_inv) ** 2
        h2 = half[lo:lo + g.shape[0], None] ** 2
        worst = max(worst, float((np.abs(s2 - g ** 2 - h2) / s2).max()))
    print("largest relative defect of s^2 = g^2 + h^2: %.3g, margin %.0fx to 1e-10"
          % (worst, 1e-10 / worst))
    assert worst <= 1e-10


def test_axis_distances_are_ties_or_apart():
    # the canonical search keeps the conjugators within 0.1 of a form's
    # least axis distance arcsinh(g / sinh(l / 2)).  At the cap every pair
    # of both batches it searches lies within 1e-9 of that least distance
    # (a tie) or at least 0.2 above it, so the window decides no pair by a
    # rounding error
    tie, gap = 0.0, np.inf
    for forms, _, delta_inv in _canonical_inputs(fuchsian.L_MAX_CAP):
        half = np.sinh(translation_length(forms) / 2)
        for lo, g in fuchsian._axis_sinh(forms, delta_inv):
            dist = np.arcsinh(g / half[lo:lo + g.shape[0], None])
            above = dist - dist.min(axis=1, keepdims=True)
            near = above <= 1e-9
            tie = max(tie, float(above[near].max()))
            gap = min(gap, float(above[~near].min()))
    print("widest tie %.3g (margin %.0fx to 1e-9), least gap %.4f (margin %.2fx to 0.2)"
          % (tie, 1e-9 / max(tie, 1e-300), gap, gap / 0.2))
    assert gap >= 0.2


def test_key_set_keeps_first_occurrences():
    rows = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [1, 2, 3, 4], [0, 0, 0, 1]])
    fresh, seen = fuchsian._add_rows(np.empty(0, fuchsian._ROW), rows)
    assert fresh.tolist() == [0, 1, 3]
    fresh, seen = fuchsian._add_rows(seen, rows[::-1])
    assert fresh.tolist() == []
    # a row that differs from a seen one in one key is new
    fresh, seen = fuchsian._add_rows(seen, np.array([[0, 0, 0, 2], [5, 6, 7, 8]]))
    assert fresh.tolist() == [0]
    assert seen.size == 4
    assert np.array_equal(seen, np.unique(seen))


def test_axis_pull_cap_raises_typed_error(group, monkeypatch):
    monkeypatch.setattr(fuchsian, "_PULL_STEPS", 1)
    with pytest.raises(EnumerationFailed, match="did not settle in 1 steps"):
        enumerate_classes(group, 3.5)


def test_axis_pull_cap_exits_3_from_cli(group, monkeypatch, tmp_path, capsys):
    from tracebench.workbench import cli

    monkeypatch.setattr(fuchsian, "bolza_preset", lambda: group)
    monkeypatch.setattr(fuchsian, "_PULL_STEPS", 1)
    conf = tmp_path / "short.ini"
    conf.write_text("[run]\nL_max = 3.5\n")
    code = cli.main(["--config", str(conf), "--out", str(tmp_path), "enumerate"])
    assert code == 3
    assert "did not settle" in capsys.readouterr().err


@pytest.mark.parametrize("L, count", [(4.0, 24), (5.0, 48)])
def test_enumeration_matches_bruteforce_oracle(group, L, count):
    oracle = _oracle_classes(group, L)
    mine = enumerate_classes(group, L)
    assert len(oracle) == len(mine) == count
    a = sorted(2 * np.arccosh(abs(trace(m)) / 2) for m in oracle)
    b = sorted(c.length for c in mine)
    assert np.allclose(a, b, atol=1e-9)


# --- word utilities ---

letters = st.integers(1, 4).flatmap(lambda k: st.sampled_from([k, -k]))


@given(st.lists(letters, max_size=30))
@settings(max_examples=200, deadline=None)
def test_free_reduce_fixed_point(w):
    r = free_reduce(tuple(w))
    assert free_reduce(r) == r
    for a, b in zip(r, r[1:]):
        assert a != -b


@given(st.lists(letters, max_size=30))
@settings(max_examples=200, deadline=None)
def test_word_inverse_cancels(w):
    w = tuple(w)
    assert free_reduce(w + word_inverse(w)) == ()
    assert free_reduce(word_inverse(w) + w) == ()


@given(st.lists(letters, max_size=30))
@settings(max_examples=200, deadline=None)
def test_serialize_roundtrip(w):
    w = free_reduce(tuple(w))
    assert parse_word(serialize_word(w)) == w


def test_serialize_format():
    assert serialize_word((1, -3, 2)) == "+1--3-+2"
    assert serialize_word(()) == ""
    assert parse_word("+4--1-+4--1") == (4, -1, 4, -1)
    with pytest.raises(ValueError):
        parse_word("+5")
    with pytest.raises(ValueError):
        parse_word("junk")


def test_word_evaluation_respects_group_law(group, rng):
    checked = 0
    while checked < 10:
        n = int(rng.integers(1, 6))
        w = tuple(int(x) for x in rng.choice([1, -1, 2, -2, 3, -3, 4, -4], n))
        u = tuple(int(x) for x in rng.choice([1, -1, 2, -2, 3, -3, 4, -4], n))
        lhs = evaluate_word(group, free_reduce(w + u))
        scale = np.max(np.abs(lhs))
        if scale > 1e4:  # outside the enumeration's entry-size envelope
            continue
        rhs = mat_prod(evaluate_word(group, w), evaluate_word(group, u))
        assert psl_close(lhs, rhs, 1e-10 * max(1.0, scale))
        checked += 1
