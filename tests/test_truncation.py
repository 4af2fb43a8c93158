import io
import math

import numpy as np
import pytest
from scipy import integrate

from trunctail import (EmptySampleError, TruncatedSample, TruncationModel,
                       burr, frechet, gamma2_for_target_p, pareto)


def _pair(p=0.7, gamma1=0.6, delta=0.25):
    gamma2 = gamma2_for_target_p(gamma1, p)
    return TruncationModel(burr(delta, gamma1), burr(delta, gamma2))


def test_sample_validation_errors():
    with pytest.raises(EmptySampleError):
        TruncatedSample(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        TruncatedSample(np.array([1.0, 2.0]), np.array([3.0]))
    with pytest.raises(ValueError):
        TruncatedSample(np.array([1.0, np.inf]), np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match=r"row\(s\) 2"):
        TruncatedSample(np.array([1.0, 5.0, 2.0]), np.array([3.0, 2.0, 6.0]))


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(5)
    x = np.exp(rng.normal(size=40) * 3)
    y = x * (1.0 + rng.random(40))
    sample = TruncatedSample(x, y)
    buf = io.StringIO()
    sample.write_csv(buf)
    buf.seek(0)
    again = TruncatedSample.read_csv(buf)
    assert np.array_equal(sample.x, again.x)
    assert np.array_equal(sample.y, again.y)


def test_csv_diagnostics():
    with pytest.raises(ValueError, match="header"):
        TruncatedSample.read_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ValueError, match="data row 2"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,2\n1,oops\n"))
    with pytest.raises(ValueError, match="data row 1"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,2,3\n"))
    # a blank line is not a data row, in the parse errors and in the
    # x > y check alike: both name the line "5,..." as data row 2
    with pytest.raises(ValueError, match="^data row 2: non-numeric"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,3\n\n5,oops\n"))
    with pytest.raises(ValueError, match=r"^x > y at data row\(s\) 2$"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,3\n\n5,2\n4,6\n"))
    with pytest.raises(ValueError, match="no data rows"):
        TruncatedSample.read_csv(io.StringIO("x,y\n"))
    with pytest.raises(ValueError, match=r"^non-finite value at data row\(s\) 2, 3$"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,2\nnan,3\n2,inf\n"))


def test_gamma2_for_target_p():
    assert gamma2_for_target_p(0.6, 0.7) == pytest.approx(1.4, rel=1e-14)
    assert gamma2_for_target_p(0.8, 0.9) == pytest.approx(7.2, rel=1e-12)
    with pytest.raises(ValueError):
        gamma2_for_target_p(0.6, 1.0)
    with pytest.raises(ValueError):
        gamma2_for_target_p(-1.0, 0.7)


def test_truncation_probability_closed_form_cases():
    assert _pair(0.7, 0.6).p == pytest.approx(0.7, rel=1e-14)
    pp = TruncationModel(pareto(0.6), pareto(1.4))
    assert pp.p == pytest.approx(0.7, rel=1e-14)
    mixed = TruncationModel(burr(0.25, 0.6), burr(0.5, 1.4))
    assert not mixed._has_closed_form_p()
    assert mixed.p == mixed._quadrature_p()


def test_truncation_probability_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4), 0.1)
    model = _pair(0.7, 0.6)
    assert model.p == pytest.approx(0.7, rel=1e-14)
    assert "p" in vars(model)  # computed once, then cached


def test_truncation_probability_quadrature_agrees_with_closed():
    for p, gamma1 in ((0.7, 0.6), (0.8, 0.6), (0.9, 0.8)):
        model = _pair(p, gamma1)
        quad_p = model._quadrature_p()
        assert quad_p == pytest.approx(p, abs=1e-6)
    pp = TruncationModel(pareto(0.5), pareto(2.0))
    assert pp._quadrature_p() == pytest.approx(0.8, abs=1e-6)


def test_truncation_probability_mixed_families():
    # independent route: p = E[F(Y)] = int F(y) g(y) dy with the
    # explicit Frechet density
    model = TruncationModel(pareto(0.5), frechet(1.0))
    f, g = model.f_model, model.g_model
    dens = lambda y: math.exp(-1.0 / y) / y ** 2
    direct, err = integrate.quad(lambda y: f.df(y) * dens(y), 0.0, np.inf)
    assert err < 1e-9
    assert model.p == pytest.approx(direct, abs=1e-7)


def test_observed_target_survival_against_density_quadrature():
    # p * Fbar_obs(x) = int_x^inf Gbar(t) f(t) dt with the explicit
    # Burr density f(t) = t^(1/d - 1) (1 + t^(1/d))^(-d/g - 1) / g
    model = _pair(0.7, 0.6, 0.25)
    f, g = model.f_model, model.g_model
    d, gm = 0.25, 0.6

    def dens(t):
        return t ** (1.0 / d - 1.0) * (1.0 + t ** (1.0 / d)) ** (-d / gm - 1.0) / gm

    p = model.p
    for x in np.geomspace(0.5, 1e3, 8):
        fobs, gobs, cov = model.observed_marginals(x)
        direct, err = integrate.quad(lambda t: g.survival(t) * dens(t), x, np.inf,
                                     limit=200)
        assert err < 1e-7
        assert (1.0 - fobs) * p == pytest.approx(direct, rel=1e-6, abs=1e-10)
        assert cov == pytest.approx((1.0 - gobs) - (1.0 - fobs), abs=1e-9)


def test_observed_marginals_shape():
    model = _pair()
    f0, g0, c0 = model.observed_marginals(0.0)
    assert f0 == pytest.approx(0.0, abs=1e-9)
    assert g0 == pytest.approx(0.0, abs=1e-9)
    assert c0 == pytest.approx(0.0, abs=1e-9)
    f1, g1, c1 = model.observed_marginals(2.0)
    f2, g2, c2 = model.observed_marginals(20.0)
    assert f2 > f1 and g2 > g1
    # observed target df dominates the truncation df (x <= y pointwise)
    assert f1 >= g1 and f2 >= g2
    assert 0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0


def test_observed_tail_index_formula():
    model = _pair(0.7, 0.6)
    assert model.observed_tail_index == pytest.approx(0.6 * 1.4 / 2.0, rel=1e-14)


def test_model_warns_when_ordering_violated():
    with pytest.warns(UserWarning, match="gamma1") as record:
        TruncationModel(pareto(1.4), pareto(0.6))
    assert [w.filename for w in record] == [__file__]   # the caller's line


def test_sample_reproducible_and_respects_truncation():
    model = _pair(0.7, 0.6)
    a = model.sample(400, seed=11)
    b = model.sample(400, seed=11)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.all(a.x <= a.y)
    assert not np.array_equal(a.x, model.sample(400, seed=12).x)


def test_sample_fraction_near_p():
    # n/N is Binomial(N, p)/N; 2000 draws put 4 sigma around 0.04
    for p in (0.7, 0.9):
        model = _pair(p, 0.6)
        fractions = [model.sample(2000, seed=s).n / 2000.0 for s in (3, 17, 29)]
        assert abs(np.mean(fractions) - p) < 0.03


def test_sample_can_reject_everything():
    lopsided = TruncationModel(pareto(5.0), pareto(0.01))
    with pytest.raises(EmptySampleError):
        lopsided.sample(2, seed=0)
