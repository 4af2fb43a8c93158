"""Acceptance gate: one test per shipped guarantee.

Each test exercises one end-to-end guarantee at its stated tolerance
and prints the measured numbers, so `pytest -v tests/test_acceptance.py`
gives a one-line verdict per guarantee.  Seeds are fixed; every run
measures the same numbers.

Gates c4 and c5 read one shared ensemble: c4's (0.6, 1.4) pair has
rho = 0.7, the rho of c5, and both draw 100 000 paths at m = 2^14 from
the streams (SEED, i) on the same warped grid.  Stacking L(W)'s row on
the three Delta rows gives every row the bits of its own pass (see
tests/test_limit_process.py), so both gates measure the numbers that
mc_variance and delta_moments_mc would, from one pass instead of two.
"""

import math
import time

import numpy as np
import pytest

from trunctail import (
    LYNDEN_BELL,
    TruncatedSample,
    WienerPath,
    asymptotic_variance,
    burr,
    combined_delta_second_moment,
    delta_moments,
    frechet,
    gamma1_estimate,
    gamma_process,
    hill,
    limiting_rv,
    mc_variance,
    pareto,
    simulate_wiener,
)
from trunctail import cli
from trunctail.limit_process import (_delta_moments, _delta_rows, _ensemble, _ensemble_stats,
                                     _increment_weights, _limit_weights, _warped_grid)
from trunctail.montecarlo import StudyConfig, run_cell, run_study
from trunctail.seeding import derive_rng, stable_key
from trunctail.truncation import TruncationModel

SEED = 20260824


def test_c1_burr_cell_bias_and_rmse_within_bands():
    t0 = time.perf_counter()
    row = run_cell(0.7, 0.6, 0.25, 500, replicates=500, theta=0.3, seed=SEED)
    elapsed = time.perf_counter() - t0
    print(f"c1: abs_bias={row.abs_bias:.4f} (<=0.25) "
          f"rmse={row.rmse:.4f} (in [0.14,0.45]) elapsed={elapsed:.1f}s")
    assert row.completed == 500
    assert row.abs_bias <= 0.25
    assert 0.14 <= row.rmse <= 0.45
    assert elapsed <= 300.0


def test_c2_error_trends_across_sample_size_and_truncation_strength():
    config = StudyConfig.from_dict({
        "cells": [
            {"p": 0.7, "gamma1": 0.6, "N": [200, 2000]},
            {"p": 0.9, "gamma1": 0.6, "N": [2000]},
        ],
        "replicates": 200,
        "master_seed": SEED,
    })
    report = run_study(config)
    rmse = {(row.p, row.big_n): row.rmse for row in report.rows}
    print(f"c2: rmse(p=0.7,N=200)={rmse[(0.7, 200)]:.4f} "
          f"rmse(p=0.7,N=2000)={rmse[(0.7, 2000)]:.4f} "
          f"rmse(p=0.9,N=2000)={rmse[(0.9, 2000)]:.4f}")
    assert rmse[(0.7, 2000)] < rmse[(0.7, 200)]
    assert rmse[(0.9, 2000)] <= 1.1 * rmse[(0.7, 2000)]


def test_c3_complete_data_estimator_collapses_to_hill_exactly():
    families = (burr(0.25, 0.6), pareto(1.0), frechet(0.9))
    worst = 0.0
    for i in range(100):
        rng = derive_rng(stable_key("hill-reduction", i))
        n = int(rng.integers(10, 501))
        k = int(rng.integers(1, n))
        values = families[i % 3].sample(n, stable_key("hill-values", i))
        sample = TruncatedSample(values, np.full(n, 2.0 * values.max()))
        est = gamma1_estimate(sample, k=k, variant=LYNDEN_BELL)
        worst = max(worst, abs(est.gamma1_hat - hill(values, k)))
    print(f"c3: worst |lynden-bell - hill| over 100 samples = {worst:.3e}")
    assert worst <= 1e-12


@pytest.fixture(scope="module")
def shared_ensemble():
    """c4's (0.6, 1.4) EnsembleStats, c5's DeltaMoments and the wall time
    of the one ensemble pass that yields both."""
    t0 = time.perf_counter()
    m = 2 ** 14
    grid = _warped_grid(0.7, m)
    row = _increment_weights(grid, _limit_weights(grid, 0.6, 1.4))
    values = _ensemble(np.vstack([row, _delta_rows(0.7, m)]), SEED, 100_000)
    stats = _ensemble_stats(0.6, 1.4, row, values[0])
    moments = _delta_moments(values[1:])
    return stats, moments, time.perf_counter() - t0


def test_c4_wiener_ensemble_variance_matches_closed_form(shared_ensemble):
    shared_stats, _, shared_elapsed = shared_ensemble
    t0 = time.perf_counter()
    stats = {(0.6, 1.4): shared_stats,
             (0.8, 7.2): mc_variance(0.8, 7.2, 100_000, 2 ** 14, seed=SEED)}
    rels = {}
    for (g1, g2), st in stats.items():
        closed = asymptotic_variance(g1, g2)
        rels[(g1, g2)] = abs(st.variance - closed) / closed
    elapsed = time.perf_counter() - t0 + shared_elapsed
    print(f"c4: rel err (0.6,1.4)={rels[(0.6, 1.4)]:.4%} "
          f"(0.8,7.2)={rels[(0.8, 7.2)]:.4%} elapsed={elapsed:.1f}s "
          f"(shared pass {shared_elapsed:.1f}s) (<=180s)")
    assert rels[(0.6, 1.4)] <= 0.05
    assert rels[(0.8, 7.2)] <= 0.05
    assert elapsed <= 180.0


def test_c5_moment_closed_forms_match_monte_carlo_and_algebra(shared_ensemble):
    closed = delta_moments(0.7)
    _, sampled, _ = shared_ensemble
    worst = max(abs(s - c) / abs(c) for s, c in zip(sampled, closed))
    gamma = 0.6 * 1.4 / (0.6 + 1.4)
    assembled = gamma ** 2 * combined_delta_second_moment(0.6, 1.4)
    gap = abs(assembled - asymptotic_variance(0.6, 1.4))
    print(f"c5: worst moment rel err={worst:.4%} (<=3%), "
          f"algebra gap={gap:.2e} (<=1e-9)")
    assert worst <= 0.03
    assert gap <= 1e-9


def test_c6_limit_process_identities_are_exact():
    w = simulate_wiener(2048, seed=SEED)
    zero = WienerPath(w.grid, np.zeros_like(w.values))
    at_one = gamma_process(1.0, w, 0.6, 1.4)
    at_zero_path = limiting_rv(zero, 0.6, 1.4)
    w2 = simulate_wiener(2048, seed=SEED + 1)
    worst = 0.0
    for x in (1.0, 1.5, 4.0, 20.0):
        mix = WienerPath(w.grid, 0.3 * w.values - 1.7 * w2.values)
        lhs = gamma_process(x, mix, 0.6, 1.4)
        rhs = (0.3 * gamma_process(x, w, 0.6, 1.4)
               - 1.7 * gamma_process(x, w2, 0.6, 1.4))
        worst = max(worst, abs(lhs - rhs))
    print(f"c6: Gamma(1)={at_one!r} L(zero)={at_zero_path!r} "
          f"linearity gap={worst:.2e} (<=1e-10)")
    assert at_one == 0.0
    assert at_zero_path == 0.0
    assert worst <= 1e-10


def test_c7_model_tail_identities_hold_numerically():
    model = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4))
    _, g_df, cov = model.observed_marginals(1.0e6)
    coverage_gap = abs(cov / (1.0 - g_df) - 1.0)
    gamma = model.observed_tail_index
    scaled = {}
    for x in (1.0e4, 1.0e6):
        f_df, _, _ = model.observed_marginals(x)
        scaled[x] = x ** (1.0 / gamma) * (1.0 - f_df)
    stability = scaled[1.0e4] / scaled[1.0e6]
    print(f"c7: |C/Gbar - 1| at 1e6 = {coverage_gap:.2e} (<1e-4), "
          f"tail stability ratio={stability:.5f} (within 2%)")
    assert coverage_gap < 1e-4
    assert abs(stability - 1.0) <= 0.02


def test_c8_parallel_study_and_manifest_replay_are_byte_stable(tmp_path):
    config = StudyConfig.from_dict({
        "cells": [{"p": 0.7, "gamma1": 0.6, "N": [150]}],
        "replicates": 10,
        "master_seed": 5,
    })
    serial = run_study(config, workers=1).to_csv_text()
    parallel = run_study(config, workers=8).to_csv_text()
    assert serial == parallel

    model = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4))
    data = tmp_path / "pairs.csv"
    model.sample(300, seed=11).to_csv(data)
    report = tmp_path / "report.json"
    manifest = tmp_path / "report.manifest.json"
    code = cli.main(["estimate", str(data), "--json", str(report),
                     "--manifest", str(manifest)])
    assert code == 0
    replay_dir = tmp_path / "replayed"
    code = cli.main(["replay", str(manifest), "--outdir", str(replay_dir)])
    assert code == 0
    original = report.read_bytes()
    replayed = (replay_dir / "report.json").read_bytes()
    print(f"c8: study CSV identical across workers ({len(serial)} bytes); "
          f"estimate replay identical ({len(original)} bytes)")
    assert replayed == original
