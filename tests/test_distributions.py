import math

import numpy as np
import pytest

from trunctail import burr, pareto
from trunctail.distributions import HeavyTailModel


def test_burr_survival_frozen_value():
    # (1 + 1^4)^(-0.25/0.6) = 2^(-5/12)
    model = burr(0.25, 0.6)
    assert model.survival(1.0) == pytest.approx(2.0 ** (-5.0 / 12.0), rel=1e-14)
    assert model.survival(1.0) == pytest.approx(0.7491535384383408, rel=1e-12)


def test_burr_quantile_frozen_value():
    model = burr(0.25, 0.6)
    # ((1 - 0.5)^(-0.6/0.25) - 1)^0.25, evaluated independently
    direct = (0.5 ** (-2.4) - 1.0) ** 0.25
    assert model.quantile(0.5) == pytest.approx(direct, rel=1e-14)
    assert model.quantile(0.5) == pytest.approx(1.4381725596178896, rel=1e-12)


def test_pareto_frozen_values():
    model = pareto(0.5)
    assert model.survival(4.0) == pytest.approx(0.0625, abs=1e-15)
    assert model.quantile(0.75) == pytest.approx(2.0, rel=1e-14)
    assert model.survival(0.5) == 1.0
    assert model.df(0.5) == 0.0


@pytest.mark.parametrize("model", [burr(0.25, 0.6), burr(2.0, 1.1), pareto(0.5)])
def test_quantile_df_round_trip(model):
    u = np.linspace(0.01, 0.99, 25)
    back = model.df(model.quantile(u))
    assert np.allclose(back, u, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("model", [burr(0.25, 0.6), pareto(0.5)])
def test_survival_plus_df_is_one(model):
    x = np.geomspace(0.1, 1e6, 30) if model.family != "pareto" else np.geomspace(1.0, 1e6, 30)
    total = model.survival(x) + model.df(x)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-12)


def test_survival_is_nonincreasing():
    for model in (burr(0.25, 0.6), pareto(1.5)):
        x = np.geomspace(1e-3, 1e8, 200)
        s = model.survival(x)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all((0.0 <= s) & (s <= 1.0))


def test_tail_decay_matches_index():
    # survival(x) ~ x^(-1/gamma): the log-log slope between two far points
    for model in (burr(0.25, 0.6), pareto(0.7)):
        s4, s6 = model.survival(1e4), model.survival(1e6)
        slope = (math.log(s6) - math.log(s4)) / (math.log(1e6) - math.log(1e4))
        assert slope == pytest.approx(-1.0 / model.tail_index, rel=1e-3)


def test_sample_reproducible_and_distributed():
    model = burr(0.25, 0.6)
    a = model.sample(500, seed=42)
    b = model.sample(500, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, model.sample(500, seed=43))
    # Kolmogorov-Smirnov style bound, comfortably above the 1% point
    for seed in (7, 19, 101):
        draw = np.sort(model.sample(2000, seed=seed))
        ecdf_hi = np.arange(1, 2001) / 2000.0
        ecdf_lo = np.arange(0, 2000) / 2000.0
        fx = model.df(draw)
        gap = max(np.max(np.abs(fx - ecdf_hi)), np.max(np.abs(fx - ecdf_lo)))
        assert gap < 1.7 / math.sqrt(2000)


def test_constructor_validation():
    for family in ("cauchy", "frechet"):
        with pytest.raises(ValueError, match="unknown family"):
            HeavyTailModel(family, 1.0)
    with pytest.raises(ValueError):
        burr(0.25, -0.6)
    with pytest.raises(ValueError):
        burr(0.0, 0.6)
    with pytest.raises(ValueError):
        HeavyTailModel("pareto", 0.5, delta=0.25)
    for bad in (math.nan, math.inf, -math.inf, 0.0, 1.0):
        for u in (bad, np.array([0.5, bad]), np.array([[bad], [0.5]])):
            for model in (burr(0.25, 0.6), pareto(1.0)):
                with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                    model.quantile(u)
    with pytest.raises(ValueError):
        pareto(1.0).survival(-1.0)
    with pytest.raises(ValueError, match="x must be finite"):
        burr(0.25, 0.6).survival(np.nan)
    with pytest.raises(ValueError, match="count must be >= 1"):
        burr(0.25, 0.6).sample(0, 1)
