"""Property tests of the estimator's invariances and the CSV format.

Every test is derandomized, so a failure reproduces on every run.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trunctail import (LYNDEN_BELL, WOODROOFE, TruncatedSample, burr,
                       gamma1_path, gamma2_for_target_p, hill_path)
from trunctail.truncation import TruncationModel

_MODEL = TruncationModel(burr(0.25, 0.6), burr(0.25, gamma2_for_target_p(0.6, 0.7)))
_SEEDS = st.integers(0, 2 ** 63 - 1)
_VARIANTS = st.sampled_from([WOODROOFE, LYNDEN_BELL])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=_SEEDS, j=st.integers(-30, 40), variant=_VARIANTS)
def test_gamma1_path_is_scale_invariant(seed, j, variant):
    # Scaling by 2^j is exact, so only the logs round differently.  The
    # error is relative to the size of the path: each log carries an
    # offset of j log 2, so a single path[k] near zero loses more digits.
    sample = _MODEL.sample(700, seed)                   # n is about 490
    scale = 2.0 ** j
    base = gamma1_path(sample, variant)[1:]
    scaled = gamma1_path(TruncatedSample(sample.x * scale, sample.y * scale), variant)[1:]
    assert np.max(np.abs(scaled - base)) <= 1e-12 * np.max(np.abs(base))


# small integers make ties in x, in y and between x and y common
_TIED_PAIRS = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 4)),
                       min_size=2, max_size=60)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pairs=_TIED_PAIRS, variant=_VARIANTS, data=st.data())
def test_gamma1_path_is_bitwise_invariant_under_pair_permutation(pairs, variant, data):
    x = np.array([float(a) for a, _ in pairs])
    y = x + np.array([float(b) for _, b in pairs])
    order = np.array(data.draw(st.permutations(range(len(pairs)))))
    base = gamma1_path(TruncatedSample(x, y), variant)
    permuted = gamma1_path(TruncatedSample(x[order], y[order]), variant)
    assert permuted.tobytes() == base.tobytes()


_COMPLETE_VALUES = st.lists(st.floats(2.0 ** -20, 2.0 ** 20), min_size=2, max_size=200,
                            unique=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=_COMPLETE_VALUES)
def test_lynden_bell_equals_hill_on_complete_samples(values):
    # every y lies above every x, so no pair is truncated
    x = np.array(values)
    sample = TruncatedSample(x, np.full(x.size, 2.0 * x.max()))
    gap = np.abs(gamma1_path(sample, LYNDEN_BELL)[1:] - hill_path(x)[1:])
    assert gap.max() <= 1e-12


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=50))
def test_csv_round_trip_is_exact(pairs):
    x = np.array([min(a, b) for a, b in pairs])
    y = np.array([max(a, b) for a, b in pairs])
    out = io.StringIO()
    TruncatedSample(x, y).write_csv(out)
    back = TruncatedSample.read_csv(io.StringIO(out.getvalue()))
    assert back.x.tobytes() == x.tobytes()
    assert back.y.tobytes() == y.tobytes()
