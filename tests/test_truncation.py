import io
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from trunctail import (EmptySampleError, TruncatedSample, TruncationModel,
                       burr, gamma2_for_target_p, pareto)


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
    # where numpy's reader and the csv module's could part, the csv module's answer holds
    sample = TruncatedSample.read_csv(io.StringIO("x,y\n1_0,20\n"))
    assert (sample.x.tolist(), sample.y.tolist()) == ([10.0], [20.0])
    sample = TruncatedSample.read_csv(io.StringIO("x,y\r1,2\r3,4\r", newline=""))
    assert (sample.x.tolist(), sample.y.tolist()) == ([1.0, 3.0], [2.0, 4.0])
    with pytest.raises(ValueError, match="^data row 2: expected two columns$"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,2\n \t\n3,4\n"))
    with pytest.raises(ValueError, match="^data row 1: expected two columns$"):
        TruncatedSample.read_csv(io.StringIO("x,y\n1,2,3\n4,5,6\n"))
    sample = TruncatedSample.read_csv(io.StringIO('x,y\n"1",2\n3,"4"\n'))
    assert (sample.x.tolist(), sample.y.tolist()) == ([1.0, 3.0], [2.0, 4.0])
    # "1_0" sends the file to the csv module's reader, whose field size
    # limit a 200 002-character field exceeds: a ValueError naming the row
    text = "x,y\n1_0,20\n" + "1" * 200_002 + ",2\n" + "1,2\n" * 29
    with pytest.raises(ValueError, match="^data row 2: field larger than field limit"):
        TruncatedSample.read_csv(io.StringIO(text))
    with pytest.raises(ValueError, match="^bad CSV header: field larger than field limit"):
        TruncatedSample.read_csv(io.StringIO("x" * 200_002 + ",y\n1,2\n"))


def test_read_csv_reads_a_pipe():
    read_end, write_end = os.pipe()
    with open(write_end, "w") as out:
        out.write("x,y\n1,2\n3,4\n")
    with open(read_end, newline="") as fh:
        assert not fh.seekable()
        sample = TruncatedSample.read_csv(fh)
    assert (sample.x.tolist(), sample.y.tolist()) == ([1.0, 3.0], [2.0, 4.0])


def _read_outcome(read, text):
    try:
        sample = read(io.StringIO(text, newline=""))
    except ValueError as exc:
        return type(exc), str(exc)
    return sample.x.tobytes(), sample.y.tobytes()


_CSV_NUMBER = st.floats(min_value=0.0).map(repr)
# plain, quoted, or quoted across a line end
_CSV_QUOTED = st.sampled_from(["{}", '"{}"', '"{}\n"'])
_CSV_PAIR = st.tuples(st.lists(_CSV_NUMBER, min_size=2, max_size=2).map(
    lambda pair: sorted(pair, key=float)), _CSV_QUOTED, _CSV_QUOTED).map(
    lambda t: t[1].format(t[0][0]) + "," + t[2].format(t[0][1]))
_CSV_LINE_END = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"])
_CSV_JUNK = st.sampled_from(["_", "١", "#", ";", " ", "\t", "nan", "inf", "e", "E", "+", "-",
                             ".", ",", '"', '""', "\r", "\n", "\n \t\n"])
# one piece of junk put anywhere in a row of two numbers
_CSV_ODD_ROW = st.tuples(_CSV_PAIR, _CSV_JUNK, st.integers(0, 60)).map(
    lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(header=st.sampled_from(["x,y\n", "x,y\r\n", "x,y\r"]),
       rows=st.lists(_CSV_PAIR, max_size=6), odd=st.none() | _CSV_ODD_ROW,
       at=st.integers(0, 6), ends=st.lists(_CSV_LINE_END, min_size=7, max_size=7))
def test_read_csv_matches_the_csv_module_reader(header, rows, odd, at, ends):
    # at most one odd row, so that whole files reach numpy's reader
    # and any row it reads otherwise than the csv module shows
    if odd is not None:
        rows.insert(at, odd)
    text = header + "".join(row + end for row, end in zip(rows, ends))
    assert (_read_outcome(TruncatedSample.read_csv, text)
            == _read_outcome(TruncatedSample._read_csv_rows, text))


def test_gamma2_for_target_p():
    assert gamma2_for_target_p(0.6, 0.7) == pytest.approx(1.4, rel=1e-14)
    assert gamma2_for_target_p(0.8, 0.9) == pytest.approx(7.2, rel=1e-12)
    with pytest.raises(ValueError):
        gamma2_for_target_p(0.6, 1.0)
    with pytest.raises(ValueError):
        gamma2_for_target_p(-1.0, 0.7)


def _burr_density(delta, gamma):
    """f(t) = t^(1/d - 1) (1 + t^(1/d))^(-d/g - 1) / g, the Burr density."""
    return lambda t: (t ** (1.0 / delta - 1.0)
                      * (1.0 + t ** (1.0 / delta)) ** (-delta / gamma - 1.0) / gamma)


def _quad(fun, lo, hi):
    value, err = integrate.quad(fun, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)
    assert err <= 1e-9 * abs(value), (value, err)
    return value


def _tail_integral(fun, x):
    """int_x^inf fun(t) dt, taken over u = log(t/x) so that a power-law
    integrand decays exponentially however deep x lies.  Every t*fun(t)
    here falls at least like t^(-1/1.4), so cutting u at 60 drops a
    relative 1e-18, and t^(1/delta) stays finite."""
    return _quad(lambda u: fun(x * math.exp(u)) * x * math.exp(u), 0.0, 60.0)


def test_truncation_probability_closed_form_cases():
    assert _pair(0.7, 0.6).p == pytest.approx(0.7, rel=1e-14)
    pp = TruncationModel(pareto(0.6), pareto(1.4))
    assert pp.p == pytest.approx(0.7, rel=1e-14)


def test_truncation_probability_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4), 0.1)
    model = _pair(0.7, 0.6)
    assert model.p == pytest.approx(0.7, rel=1e-14)


@pytest.mark.parametrize("f,g", [(burr(0.25, 0.6), burr(0.5, 1.4)),
                                 (burr(0.25, 0.6), pareto(1.0)),
                                 (pareto(0.5), burr(0.25, 1.0))])
def test_model_refuses_pairs_without_closed_forms(f, g):
    with pytest.raises(ValueError, match=re.escape(f"got {f} and {g}")):
        TruncationModel(f, g)


def test_truncation_probability_quadrature_agrees_with_closed():
    # p = P(X <= Y) = E[F(Y)] = int_0^1 F(Q_G(v)) dv
    for f, g in ((burr(0.25, 0.6), burr(0.25, 1.4)), (burr(1.0, 0.6), burr(1.0, 2.4)),
                 (burr(2.0, 0.8), burr(2.0, 7.2)), (pareto(0.5), pareto(2.0))):
        quad_p = _quad(lambda v: f.df(g.quantile(v)), 0.0, 1.0)
        assert TruncationModel(f, g).p == pytest.approx(quad_p, rel=1e-9)


def test_observed_target_survival_against_density_quadrature():
    # p * Fbar_obs(x) = int_x^inf Gbar(t) f(t) dt and
    # p * Gbar_obs(x) = int_x^inf F(t) g(t) dt with the explicit Burr densities
    for delta in (0.25, 1.0):
        model = _pair(0.7, 0.6, delta)
        f, g = model.f_model, model.g_model
        f_dens, g_dens = _burr_density(delta, model.gamma1), _burr_density(delta, model.gamma2)
        for x in np.geomspace(0.5, 1e3, 8):
            f_bar, g_bar, cov = model.observed_survivals(x)
            direct = _tail_integral(lambda t: g.survival(t) * f_dens(t), x)
            assert f_bar * model.p == pytest.approx(direct, rel=1e-8)
            direct = _tail_integral(lambda t: f.df(t) * g_dens(t), x)
            assert g_bar * model.p == pytest.approx(direct, rel=1e-8)
            assert cov == pytest.approx(g_bar - f_bar, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("delta", [0.25, 1.0])
def test_observed_survivals_deep_in_the_tail(delta):
    # at x = 1e6, p * Fbar_obs ~ 7e-12 is an integral over the sliver
    # [F(x), 1] of the probability scale, where adaptive quadrature
    # misses a 1e-7 relative tolerance; the closed forms stay finite and
    # match the density quadrature of Fbar_obs
    model = TruncationModel(burr(delta, 0.6), burr(delta, 5.4))
    f, g = model.f_model, model.g_model
    f_bar, g_bar, cov = model.observed_survivals(1e6)
    assert np.isfinite([f_bar, g_bar, cov]).all()
    assert 0.0 < f_bar < g_bar < 1.0
    assert cov == pytest.approx(g_bar - f_bar, rel=1e-12)
    f_dens = _burr_density(delta, 0.6)
    assert f_bar * model.p == pytest.approx(
        _tail_integral(lambda t: g.survival(t) * f_dens(t), 1e6), rel=1e-8)


def test_observed_survivals_shape():
    model = _pair()
    assert model.observed_survivals(0.0) == (1.0, 1.0, 0.0)
    f1, g1, c1 = model.observed_survivals(2.0)
    f2, g2, c2 = model.observed_survivals(20.0)
    assert f2 < f1 and g2 < g1
    # observed target survival lies below the truncation's (x <= y pointwise)
    assert f1 <= g1 and f2 <= g2
    assert 0.0 < c1 <= 1.0 and 0.0 < c2 <= 1.0


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
    with pytest.raises(ValueError, match="big_n must be >= 1"):
        model.sample(0, 1)


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
