"""The window-variance threshold scan against a two-pass oracle.

select_k_dispersion scores every k at once from three cumulative sums
(tail_index._window_scores).  These tests recompute each score from
its definition, k^0.9 times the i^theta-weighted variance of
path[ceil(2k/3)..k] about its own weighted mean, one window at a time
(_two_pass_scores).  They hold every vectorised score to that value
within the rounding bound of _bound, and the chosen k's two-pass score
to the smallest one within the same bound, on a seeded corpus of
estimator paths, on hand-built constant, plateau, tied, stepped,
alternating and offset paths, and on arbitrary paths full of exact
ties.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunctail import (LYNDEN_BELL, WOODROOFE, burr, default_k_max,
                       gamma1_path, gamma2_for_target_p, hill_path,
                       select_k_dispersion)
from trunctail.tail_index import _window_scores
from trunctail.truncation import TruncationModel

_U = 2.0 ** -53        # unit roundoff of float64
_ETA = 2.0 ** -1074    # smallest subnormal: the absolute error unit under underflow


def _start(n, k_min):
    """The scan's first k, as select_k_dispersion sets it."""
    return max(4, math.isqrt(n) if k_min is None else k_min)


def _two_pass_scores(path, theta, start, k_max):
    """k^0.9 Var_w(k) for k = start..k_max, one window at a time, and a bound on its error.

    Each window is centred on its computed weighted mean m, and the
    corrected two-pass formula (S2 - S1^2/W)/W, with S1 and S2 the sums
    of w d and w d^2 over d = x - m, is exact for any m in exact
    arithmetic (Chan, Golub & LeVeque, Amer. Statist. 37, 1983).  Its
    rounding error over L terms is at most (L + 6) u times S2, 2|S1| A1/W
    and S1^2/W (A1 the sum of w|d|), over W; the bound doubles that.
    """
    scores, errors = [], []
    for k in range(start, k_max + 1):
        lo = -(-2 * k // 3)
        x = path[lo:k + 1]
        w = np.arange(lo, k + 1, dtype=float) ** theta
        total = float(w.sum())
        d = x - float(w @ x) / total
        s1, s2, a1 = float(w @ d), float(w @ (d * d)), float(w @ np.abs(d))
        scale = k ** 0.9 / total
        scores.append(scale * (s2 - s1 * s1 / total))
        spread = s2 + (2.0 * a1 + abs(s1)) * abs(s1) / total
        errors.append(scale * 2.0 * (k - lo + 7.0) * _U * spread + 8.0 * (k - lo + 8.0) * _ETA)
    return np.array(scores), np.array(errors)


def _bound(path, theta, start, k_max):
    """A bound on |vectorised - exact| at every k = start..k_max.

    The vectorised score takes window sums W, S1 and S2 of w, w x and
    w x^2 (x = path - path[start]) as differences of prefix sums that
    start at the first window's first index, so each is off by at most
    (m + 4) u times the prefix total of its terms' magnitudes, A0, A1
    and A2, with m the prefix's length.  (S2 - S1^2/W)/W then errs by
    at most those errors through |S1|/W <= A1/W and S1^2/W^2 <= A1^2/W^2,
    plus a few roundings of the same magnitudes.  The constant 8 exceeds
    the operation counts, and one subnormal unit per operation covers
    underflow.
    """
    ks = np.arange(start, k_max + 1)
    lo = (2 * ks + 2) // 3
    first = int(lo[0])
    x = np.abs(path[first:k_max + 1] - path[start])
    w = np.arange(first, k_max + 1, dtype=float) ** theta
    prefix = np.zeros((3, x.size + 1))
    np.cumsum([w, w * x, w * x * x], axis=1, out=prefix[:, 1:])
    a0, a1, a2 = prefix[:, ks - first + 1]
    win = a0 - prefix[0, lo - first]
    m = ks - first + 1.0
    spread = (a2 + 2.0 * a1 * a1 / win + a1 * a1 * a0 / (win * win)) / win
    return ks ** 0.9 * 8.0 * (m + 8.0) * (_U * spread + _ETA)


def _assert_scores_within_bound(path, theta, start, k_max, two_pass=None):
    """Every vectorised score within the two bounds of its two-pass value.

    two_pass, if given, is _two_pass_scores(path, theta, start, k_max).
    Returns the two-pass scores and the summed bounds.
    """
    fast = _window_scores(path, theta, start, k_max)
    slow, slow_error = two_pass or _two_pass_scores(path, theta, start, k_max)
    bound = _bound(path, theta, start, k_max) + slow_error
    outside = np.flatnonzero(~(np.abs(fast - slow) <= bound))
    assert outside.size == 0, [(start + int(j), fast[j], slow[j], bound[j]) for j in outside[:3]]
    return slow, bound


def _assert_selects_a_minimum(path, theta, k_min=None, k_max=None, two_pass=None):
    """The chosen k's two-pass score lies within the bounds of the smallest one."""
    n = path.shape[0]
    k_max = default_k_max(n) if k_max is None else k_max
    start = _start(n, k_min)
    slow, bound = _assert_scores_within_bound(path, theta, start, k_max, two_pass)
    k = select_k_dispersion(path, theta, k_min, k_max)
    assert start <= k <= k_max
    best = int(np.argmin(slow))
    assert slow[k - start] <= slow[best] + bound[k - start] + bound[best], (k, start + best)
    return k, slow, bound


def _corpus_paths():
    """Estimator paths of seeded truncated Burr samples, n from 6 to ~3 000."""
    rng = np.random.default_rng(20150706)
    sizes = np.unique(np.geomspace(9, 4000, 60).astype(int))
    for big_n in sizes.tolist():
        p = float(rng.choice([0.7, 0.9]))
        gamma1 = float(rng.choice([0.3, 0.6, 1.0]))
        model = TruncationModel(burr(0.25, gamma1),
                                burr(0.25, gamma2_for_target_p(gamma1, p)))
        sample = model.sample(big_n, int(rng.integers(2 ** 31)))
        n = sample.n
        if n < 6:
            continue
        for path in (gamma1_path(sample, WOODROOFE),
                     gamma1_path(sample, LYNDEN_BELL),
                     hill_path(sample.y)):
            yield n, path


def test_matches_oracle_on_seeded_corpus():
    # the bound stays far below the scores it guards (at most 2.7e-6 of
    # one here), so on these paths the scores decide, not the rounding
    checked, loosest = 0, 0.0
    for i, (n, path) in enumerate(_corpus_paths()):
        theta = (0.0, 0.3, 0.5)[i % 3]
        # the two-pass scores do not depend on the scan's start: score once
        scores, errors = _two_pass_scores(path, theta, 4, default_k_max(n))
        for k_min in (None, 2, max(2, math.isqrt(n))):
            skip = _start(n, k_min) - 4
            _, slow, bound = _assert_selects_a_minimum(path, theta, k_min,
                                                       two_pass=(scores[skip:], errors[skip:]))
            positive = slow > 0
            loosest = max(loosest, float(np.max(bound[positive] / slow[positive])))
            checked += 1
    assert checked >= 400 and loosest < 1e-5, (checked, loosest)


def _hand_built_paths():
    rng = np.random.default_rng(7)
    ks = np.arange(1, 400)
    constant = np.full(ks.size, 0.7)
    plateau = np.where(ks < 150, 0.6 + 0.3 * np.sin(ks) / ks, 0.6)
    plateau = np.where(ks > 300, 0.6 + 1e-3 * (ks - 300), plateau)
    # a tied top of 40: the path reads a rounding residue of 0 for k < 40
    tied_top = np.where(ks < 40, 1e-16 * rng.standard_normal(ks.size),
                        0.12 + 0.02 * rng.standard_normal(ks.size))
    tied = np.round(0.6 + 0.05 * rng.standard_normal(ks.size), 1)
    stepped = 0.5 + 0.1 * (ks // 40)
    alternating = np.where(ks % 2 == 0, 1.0, -1.0)
    offset = 1e8 + 1e-6 * rng.standard_normal(ks.size)
    tiny = 1e-310 * (1.0 + rng.random(ks.size))
    for body in (constant, np.zeros(ks.size), plateau, tied_top, tied, stepped,
                 alternating, offset, tiny):
        yield np.concatenate(([np.nan], body))
    yield _two_level_path()


def _two_level_path():
    """Flat at 0.7 up to k = 99, then at 5.0 with noise of 0-2 ulps.

    Centred on the first level, each window on the second one has a
    rounded variance near 0, of either sign.
    """
    rng = np.random.default_rng(11)
    ks = np.arange(1, 400)
    return np.concatenate(([np.nan], np.where(ks < 100, 0.7,
                                              5.0 + 2.0 ** -50 * rng.integers(0, 3, ks.size))))


_HAND_RANGES = ((None, None), (2, None), (19, None), (2, 60), (5, 6))


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
def test_matches_oracle_on_constant_plateau_and_tied_paths(theta):
    for path in _hand_built_paths():
        for k_min, k_max in _HAND_RANGES:
            _assert_selects_a_minimum(path, theta, k_min, k_max)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
def test_fast_scores_within_bound_on_hand_built_paths(theta):
    # the scores are centred on path[start]: move the centre along each path
    for path in _hand_built_paths():
        for start in range(4, 41, 6):
            _assert_scores_within_bound(path, theta, start, default_k_max(path.shape[0]))


def test_fast_scores_within_bound_on_small_corpus_paths():
    # scans that end early: k_max at half the default
    checked = 0
    for i, (n, path) in enumerate(_corpus_paths()):
        k_max = default_k_max(n) // 2
        if n <= 600 and k_max >= 4:
            _assert_scores_within_bound(path, (0.5, 0.0, 0.3)[i % 3], 4, k_max)
            checked += 1
    assert checked >= 60


def test_exact_score_tie_goes_to_the_smaller_k():
    # two flat stretches, path[1..40] and path[61..120]: every window inside
    # either scores exactly 0, and the scan takes the first one it meets
    ks = np.arange(1, 200)
    body = np.where(ks <= 40, 0.7, np.where(ks <= 120, 0.9, 0.9 + 0.01 * np.sin(ks)))
    body[40:60] += 0.05 * np.cos(ks[40:60])
    path = np.concatenate(([np.nan], body))
    assert select_k_dispersion(path, 0.3, 12) == 12
    # from the second stretch: the first window inside [61, 120] is k = 91
    assert select_k_dispersion(path, 0.3, 61) == 91
    assert _window_scores(path, 0.3, 61, 120)[91 - 61:].max() == 0.0


def test_constant_path_stops_at_first_zero_score():
    # every window of a constant path scores exactly 0: the scan floor wins
    assert select_k_dispersion(np.full(3000, 0.7), theta=0.3) == 54
    assert select_k_dispersion(np.full(3000, 1e8), theta=0.5, k_min=2) == 4
    # a second level whose rounded window variances fall below 0 reads 0
    # there, so it cannot beat the exact zeros of the first level
    two_level = _two_level_path()
    assert (_window_scores(two_level, 0.3, 4, default_k_max(400)) >= 0.0).all()
    assert select_k_dispersion(two_level, 0.3, 4) == 4


_TIED_VALUES = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5 + 2.0 ** -52, 0.6, 1.0, 3.0])


@st.composite
def _scans(draw):
    n = draw(st.integers(6, 60))
    path = np.array(draw(st.lists(_TIED_VALUES, min_size=n, max_size=n)))
    k_max = draw(st.integers(4, n - 1))
    k_min = draw(st.integers(2, k_max - 1))
    theta = draw(st.sampled_from([0.0, 0.3, 0.5]) | st.floats(0.0, 0.5))
    return path, theta, k_min, k_max


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scans())
def test_matches_oracle_on_arbitrary_tied_paths(scan):
    path, theta, k_min, k_max = scan
    _assert_selects_a_minimum(path, theta, k_min, k_max)
