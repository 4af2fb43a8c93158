import math
import warnings

import numpy as np
import pytest

from trunctail import burr
from trunctail.seeding import derive_rng


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


@pytest.mark.parametrize("model", [burr(0.25, 0.6), burr(2.0, 1.1)])
def test_quantile_df_round_trip(model):
    u = np.linspace(0.01, 0.99, 25)
    back = model.df(model.quantile(u))
    assert np.allclose(back, u, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("model", [burr(0.25, 0.6)])
def test_survival_plus_df_is_one(model):
    x = np.geomspace(0.1, 1e6, 30)
    total = model.survival(x) + model.df(x)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-12)


def test_overflow_safe_forms_keep_the_plain_expressions_bits():
    # the plain expressions, evaluated with overflow silenced: wherever
    # they are finite the model returns their bits, and where an
    # intermediate power overflows it returns a finite value, warning-free
    u = derive_rng(20261021).integers(1, 1 << 53, size=20_000) / float(1 << 53)
    u = np.concatenate([u, 1.0 - np.arange(1, 201) / float(1 << 53)])
    x = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 20_000)])
    beyond = 0
    for d in (0.25, 0.5, 1.0, 2.0):
        for g in (0.6, 1.4, 5.4, 19.4):
            model = burr(d, g)
            with np.errstate(over="ignore"):
                plain_q = np.expm1((-g / d) * np.log1p(-u)) ** d
                power = x ** (1.0 / d)
            plain_s = np.exp((-d / g) * np.log1p(power))
            plain_f = -np.expm1((-d / g) * np.log1p(power))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q, s, f = model.quantile(u), model.survival(x), model.df(x)
            kept = np.isfinite(plain_q)
            assert np.array_equal(q[kept], plain_q[kept]), (d, g)
            # exp(delta*t) overflows too for the u nearest 1 at gamma/delta = 77.6
            assert np.isfinite(q[~kept & (u < 1.0 - 4.0 / (1 << 53))]).all(), (d, g)
            kept = np.isfinite(power)
            assert np.array_equal(s[kept], plain_s[kept]), (d, g)
            assert np.array_equal(f[kept], plain_f[kept]), (d, g)
            # there log1p(x^(1/delta)) = log(x)/delta to far below an ulp
            beyond_x = x[~kept]
            assert np.allclose(s[~kept], beyond_x ** (-1.0 / g), rtol=1e-12, atol=1e-300)
            assert np.allclose(s[~kept] + f[~kept], 1.0, rtol=0, atol=1e-15)
            beyond += (~np.isfinite(plain_q)).sum() + (~kept).sum()
    assert beyond > 0   # the grids reach the overflow regions


def test_quantile_beyond_the_expm1_range():
    # ((1 - 0.9)^(-99/0.25) - 1)^0.25 = (10^396 - 1)^0.25, about 1e99,
    # while expm1 overflows past t = 709.78
    assert burr(0.25, 99.0).quantile(0.9) == pytest.approx(1e99, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_survival_deep_in_the_tail():
    # (1 + x^4)^(-0.25/0.6) with x^4 = 1e320 above the largest float:
    # survival = exp(-(5/12) * log(1e320)) = 10^(-400/3)
    model = burr(0.25, 0.6)
    assert model.survival(1e80) == pytest.approx(10.0 ** (-400.0 / 3.0), rel=1e-12)
    assert model.df(1e80) == 1.0
    assert model.survival(np.array([1e60, 1e78, 1e150])).min() > 0.0


def test_survival_is_nonincreasing():
    for model in (burr(0.25, 0.6), burr(2.0, 1.5)):
        x = np.geomspace(1e-3, 1e8, 200)
        s = model.survival(x)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all((0.0 <= s) & (s <= 1.0))


def test_tail_decay_matches_index():
    # survival(x) ~ x^(-1/gamma): the log-log slope between two far points
    for model in (burr(0.25, 0.6), burr(1.0, 0.7)):
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
    for bad in (-0.6, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tail_index must be finite and > 0"):
            burr(0.25, bad)
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            burr(bad, 0.6)
    for bad in (math.nan, math.inf, -math.inf, 0.0, 1.0):
        for u in (bad, np.array([0.5, bad]), np.array([[bad], [0.5]])):
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                burr(0.25, 0.6).quantile(u)
    with pytest.raises(ValueError, match="x must be >= 0"):
        burr(0.25, 0.6).survival(-1.0)
    with pytest.raises(ValueError, match="x must be finite"):
        burr(0.25, 0.6).survival(np.nan)
    with pytest.raises(ValueError, match="count must be >= 1"):
        burr(0.25, 0.6).sample(0, 1)
