"""The running-median threshold scan against the direct quadratic loop.

select_k_dispersion scores every k in one pass (integer ranks through
two heaps, vectorised sums) and re-scores only the thresholds whose
fast score could reach the minimum.  These tests hold it to the loop
it replaced, kept here as _select_k_oracle, on a seeded corpus of
estimator paths (scored once per path and theta, with the oracle
itself run on a sample of the answers) and on arbitrary paths full of
exact ties; they hold every fast score to its stated error bound
against the oracle's formula, and every median of the pass to
np.median's bit for bit; and they check that the bound is tight
enough to leave realistic paths with at most two re-scored thresholds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunctail import (LYNDEN_BELL, WOODROOFE, burr, default_k_max,
                       gamma1_path, gamma2_for_target_p, hill_path,
                       select_k_dispersion)
from trunctail import tail_index
from trunctail.tail_index import _running_scores
from trunctail.truncation import TruncationModel


def _scan(path, theta, k_max):
    """The summands path[2..k_max] and their weights i^theta."""
    seg = np.ascontiguousarray(path[2:k_max + 1])
    return seg, np.arange(2, k_max + 1, dtype=float) ** theta


def _direct_score(seg, weights, k):
    """The score at k from its definition, rounded as the re-score step rounds it."""
    m = k - 1                          # number of summands i = 2..k
    med = np.median(seg[:m])
    return float(weights[:m] @ np.abs(seg[:m] - med)) / k


def _select_k_oracle(path, theta=0.3, k_min=None, k_max=None):
    """Direct O(n^2) scan: a fresh median and dot product for every k."""
    n = path.shape[0]
    if k_min is None:                  # the default floor, max(4, floor(sqrt(n)))
        k_min = max(4, max(k for k in range(n + 1) if k * k <= n))
    if k_max is None:
        k_max = default_k_max(n)
    seg, weights = _scan(path, theta, k_max)
    best_k, best_score = None, np.inf
    for k in range(max(k_min, 4), k_max + 1):
        score = _direct_score(seg, weights, k)
        if score < best_score:
            best_k, best_score = k, score
    return int(best_k)


def _assert_within_bound(path, theta, k_max=None):
    """|fast - direct| <= bound at every k in [2, k_max], and each median is np.median's."""
    if k_max is None:
        k_max = default_k_max(path.shape[0])
    seg, weights = _scan(path, theta, k_max)
    fast, bound, med = _running_scores(seg, weights)
    expected = np.array([np.median(seg[:j + 1]) for j in range(seg.size)])
    differ = np.flatnonzero(med.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, [(int(j) + 2, med[j], expected[j]) for j in differ[:3]]
    direct = np.array([_direct_score(seg, weights, k) for k in range(2, k_max + 1)])
    outside = np.flatnonzero(~(np.abs(fast - direct) <= bound))
    assert outside.size == 0, [(int(j) + 2, fast[j], direct[j], bound[j])
                               for j in outside[:3]]


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
    # the oracle's scores do not depend on k_min: score each (path, theta)
    # once and take the first argmin of each k_min range, which is what
    # the oracle's strict < picks; every 97th answer also runs the oracle
    checked = 0
    for n, path in _corpus_paths():
        k_max = default_k_max(n)
        explicit = [k for k in sorted({2, max(2, math.isqrt(n))}) if k < k_max]
        for theta in (0.0, 0.3, 0.5):
            seg, weights = _scan(path, theta, k_max)
            scores = np.array([_direct_score(seg, weights, k) for k in range(4, k_max + 1)])
            for k_min in [None, *explicit]:
                lo = max(math.isqrt(n) if k_min is None else k_min, 4)
                expected = lo + int(np.argmin(scores[lo - 4:]))
                if checked % 97 == 0:
                    assert expected == _select_k_oracle(path, theta, k_min), (n, k_min, theta)
                fast = select_k_dispersion(path, theta, k_min)
                assert fast == expected, (n, k_min, theta)
                checked += 1
    assert checked >= 1000


def _hand_built_paths():
    rng = np.random.default_rng(7)
    ks = np.arange(1, 400)
    plateau = np.where(ks < 150, 0.6 + 0.3 * np.sin(ks) / ks, 0.6)
    plateau = np.where(ks > 300, 0.6 + 1e-3 * (ks - 300), plateau)
    stepped = 0.5 + 0.1 * (ks // 40)
    tied = np.round(0.6 + 0.05 * rng.standard_normal(ks.size), 1)
    two_level = np.where(rng.random(ks.size) < 0.5, 0.7, 0.7 + 2.0 ** -40)
    alternating = np.where(ks % 2 == 0, 1.0, -1.0)
    offset = 1e8 + 1e-6 * rng.standard_normal(ks.size)
    tiny = 1e-310 * (1.0 + rng.random(ks.size))
    for body in (np.full(ks.size, 0.7), np.zeros(ks.size), plateau, stepped,
                 tied, two_level, alternating, offset, tiny):
        yield np.concatenate(([np.nan], body))


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
def test_matches_oracle_on_constant_plateau_and_tied_paths(theta):
    for path in _hand_built_paths():
        for k_min, k_max in ((2, None), (19, None), (2, 60), (5, 6)):
            fast = select_k_dispersion(path, theta, k_min, k_max)
            assert fast == _select_k_oracle(path, theta, k_min, k_max)


def test_exact_score_tie_goes_to_the_smaller_k():
    # the summands 0, 1, 5 score 5/4 at k = 4; with 2.25 added, whose
    # median is 1.625, they score 6.25/5 at k = 5: exactly 1.25 both times
    path = np.array([np.nan, 0.5, 0.0, 1.0, 5.0, 2.25, 9.0])
    assert select_k_dispersion(path, 0.0, 4, 5) == _select_k_oracle(path, 0.0, 4, 5) == 4


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
def test_fast_scores_within_bound_on_hand_built_paths(theta):
    for path in _hand_built_paths():
        _assert_within_bound(path, theta)


def test_fast_scores_within_bound_on_small_corpus_paths():
    checked = 0
    for i, (n, path) in enumerate(_corpus_paths()):
        if n <= 600:
            _assert_within_bound(path, (0.0, 0.3, 0.5)[i % 3])
            checked += 1
    assert checked >= 90


class _CountedReads:
    """The pass's medians, counting reads: a re-scored threshold reads its one median."""

    def __init__(self, med):
        self.med, self.reads = med, 0

    def __getitem__(self, j):
        self.reads += 1
        return self.med[j]


def _count_rescores(monkeypatch):
    """A list that gets the number of thresholds each selection re-scores."""
    counts = []
    rescore = tail_index._rescore_candidates

    def counting(seg, weights, fast, bound, med, start):
        reads = _CountedReads(med)
        k = rescore(seg, weights, fast, bound, reads, start)
        counts.append(reads.reads)
        return k

    monkeypatch.setattr(tail_index, "_rescore_candidates", counting)
    return counts


def test_rescore_takes_at_most_two_medians_on_burr_samples(monkeypatch):
    # a loose bound passes every oracle test but re-scores many k, each
    # at O(k), which would quietly make selection quadratic again
    counts = _count_rescores(monkeypatch)
    model = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4))
    for seed in range(4301, 4306):
        sample = model.sample(4000, seed)
        floor = max(4, math.isqrt(sample.n))
        for path in (gamma1_path(sample, WOODROOFE), gamma1_path(sample, LYNDEN_BELL),
                     hill_path(sample.y)):
            for k_min in (2, floor):
                select_k_dispersion(path, 0.3, k_min)
                assert 1 <= counts.pop() <= 2, (seed, sample.n, k_min)
    assert counts == []


def test_constant_path_stops_at_first_zero_score(monkeypatch):
    # every k of a constant path stays a candidate, but the first direct
    # score is exactly 0.0 and nothing later can beat it
    counts = _count_rescores(monkeypatch)
    assert select_k_dispersion(np.full(3000, 0.7), theta=0.3) == 54
    assert counts == [1]


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
    assert (select_k_dispersion(path, theta, k_min, k_max)
            == _select_k_oracle(path, theta, k_min, k_max))
    _assert_within_bound(path, theta, k_max)
