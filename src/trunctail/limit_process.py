"""The limiting Gaussian law of the truncated-data tail estimator.

For tail indices gamma1 < gamma2 put gamma = gamma1*gamma2/(gamma1+gamma2)
and rho = 1 - gamma/gamma2.  With W a standard Wiener process on [0, 1],
the centered scaled estimator converges to the Gaussian variable

    L(W) = -gamma W(1)
           + gamma/(gamma1+gamma2)
             * int_0^1 (gamma2 - gamma1 - gamma log s) s^(rho-2) W(s) ds,

a linear combination of Delta1 = int s^(rho-2) W ds,
Delta2 = int s^(rho-2) log(s) W ds and Delta3 = W(1), whose second
moments have the closed forms returned by delta_moments.  The same
ingredients evaluated at a point x give the full limit process
gamma_process.

Numerics.  The integrands blow up like s^(rho-2) near 0, integrable
only against W(s) ~ s^(1/2).  Two measures keep this exact and cheap:

* Integrals of the piecewise-linear interpolated path are computed in
  closed form per segment (no quadrature grid, no truncation near 0),
  so every functional here is exactly linear in the path values.  One
  kernel, _segment_weights, turns a grid into node weights for every
  such integral; gamma_process reuses it on the grid cut at
  c = x^(-1/gamma), with (c, W(c)) as the last node.
* Monte Carlo ensembles sample W at the warped times s_j = (j/m)^q
  with q = 2/(2 rho - 1).  On a uniform grid the first cell [0, 1/m]
  alone hides an O(m^(1/2 - rho)) share of the limit variance in
  sub-grid Brownian roughness (about 13% of sigma^2 at m = 2^14 for
  gamma1 = 0.6, gamma2 = 1.4); the warped grid concentrates points
  near 0 at equal resolution in the flattened variable u = s^(1/q) and
  reduces that loss below 1e-5 relative.  simulate_wiener keeps the
  plain uniform grid for direct use.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelViolationError, NumericError
from .seeding import derive_rng

__all__ = [
    "DeltaMoments",
    "EnsembleStats",
    "WienerPath",
    "combined_delta_second_moment",
    "delta_moments",
    "delta_moments_mc",
    "gamma_process",
    "limiting_rv",
    "mc_variance",
    "simulate_wiener",
    "transformed_grid",
]


@dataclass(frozen=True)
class WienerPath:
    """A Wiener trajectory observed on a grid of times in [0, 1].

    Attributes:
        grid: strictly increasing times, grid[0] = 0 and grid[-1] = 1.
        values: W at the grid times, values[0] = 0.

    simulate_wiener produces paths on the uniform grid j/m; the Monte
    Carlo ensembles use warped grids (see transformed_grid).  Between
    grid points the path is understood as linearly interpolated.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("grid and values must be 1-d arrays of equal length >= 2")
        if g[0] != 0.0 or g[-1] != 1.0 or np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must increase strictly from 0 to 1")
        if v[0] != 0.0:
            raise ValueError("a Wiener path starts at W(0) = 0")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.grid.size - 1

    def at(self, s):
        """Linearly interpolated value(s) W(s) for s in [0, 1]."""
        return np.interp(s, self.grid, self.values)


def simulate_wiener(m: int, seed: int) -> WienerPath:
    """Simulate W on the uniform grid {j/m} with iid N(0, 1/m) increments."""
    if m < 2:
        raise ValueError("m must be >= 2")
    rng = derive_rng(seed)
    increments = rng.standard_normal(m) / math.sqrt(m)
    values = np.empty(m + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return WienerPath(np.arange(m + 1) / m, values)


def transformed_grid(m: int, q: float) -> np.ndarray:
    """Warped time grid (j/m)^q concentrating resolution near 0."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if not (np.isfinite(q) and q >= 1.0):
        raise ValueError("q must be finite and >= 1")
    grid = (np.arange(m + 1) / m) ** q
    if grid[1] == 0.0 or np.any(np.diff(grid) <= 0.0):
        raise NumericError(
            f"warped grid underflows at m={m}, q={q}; "
            "the tail indices are too close for this resolution"
        )
    return grid


def _segment_weights(grid: np.ndarray, a: float):
    """Node weights making w @ values the exact integral of the
    piecewise-linear path against s^a ds and s^a log(s) ds.

    Requires -2 < a < -1.  The first segment uses the path's linear
    run from W(0) = 0, which is what keeps the singular weight
    integrable there.  Segment formulas are written in power-ratio form
    with expm1/log1p so nearly-equal endpoint powers do not cancel.
    """
    p = a + 1.0
    if not (-1.0 < p < 0.0):
        raise ValueError(f"exponent a must lie in (-2, -1), got {a}")
    s1 = grid[1]
    if abs(p * math.log(s1)) > 700.0:
        raise NumericError(f"weight s^{p} overflows at the first grid point {s1!r}")
    n_nodes = grid.size
    w_plain = np.zeros(n_nodes)
    w_log = np.zeros(n_nodes)
    # first segment: W(s) = W(s1) * s/s1 on [0, s1]
    w_plain[1] = s1 ** p / (p + 1.0)
    w_log[1] = s1 ** p * ((p + 1.0) * math.log(s1) - 1.0) / (p + 1.0) ** 2
    if n_nodes == 2:
        return w_plain, w_log
    sl = grid[1:-1]
    sr = grid[2:]
    log_sl = np.log(sl)
    lr = np.log1p((sr - sl) / sl)
    em_p = np.expm1(p * lr)
    em_p1 = np.expm1((p + 1.0) * lr)
    rm1 = np.expm1(lr)
    r = rm1 + 1.0
    slp = np.exp(p * log_sl)
    # plain weight: A = int s^a, B = int s^(a+1), scaled by sl^p
    a_hat = em_p / p
    b_hat = em_p1 / (p + 1.0)
    w_plain[1:-1] += slp * (r * a_hat - b_hat) / rm1
    w_plain[2:] += slp * (b_hat - a_hat) / rm1
    # log weight: C = int s^a log s, D = int s^(a+1) log s, scaled by sl^p
    c_hat = (em_p * (p * log_sl - 1.0) + (em_p + 1.0) * p * lr) / p ** 2
    d_hat = (em_p1 * ((p + 1.0) * log_sl - 1.0) + (em_p1 + 1.0) * (p + 1.0) * lr) / (p + 1.0) ** 2
    w_log[1:-1] += slp * (r * c_hat - d_hat) / rm1
    w_log[2:] += slp * (d_hat - c_hat) / rm1
    return w_plain, w_log


def _tail_parameters(gamma1: float, gamma2: float):
    if not (np.isfinite(gamma1) and gamma1 > 0 and np.isfinite(gamma2)):
        raise ValueError("tail indices must be finite and positive")
    if gamma2 <= gamma1:
        raise ModelViolationError(
            f"limit law requires gamma1 < gamma2 (got {gamma1}, {gamma2})"
        )
    gamma = gamma1 * gamma2 / (gamma1 + gamma2)
    rho = 1.0 - gamma / gamma2
    return gamma, rho


def gamma_process(x: float, path: WienerPath, gamma1: float, gamma2: float) -> float:
    """Limit process at a point x >= 1 for a given Wiener path.

    Evaluates

        (gamma/gamma1) x^(-1/gamma1) {x^(1/gamma) W(x^(-1/gamma)) - W(1)}
        + gamma/(gamma1+gamma2) x^(-1/gamma1)
          * int_0^1 s^(-gamma/gamma2 - 1)
                    {x^(1/gamma) W(x^(-1/gamma) s) - W(s)} ds

    with the path linearly interpolated and each segment integrated in
    closed form.  At x = 1 both braces vanish identically and the
    result is exactly 0.0.  Points x < 1 would read the path beyond
    time 1 and are rejected.
    """
    gamma, _ = _tail_parameters(gamma1, gamma2)
    x = float(x)
    if not (np.isfinite(x) and x >= 1.0):
        raise ValueError("x must satisfy x >= 1 (the path lives on [0, 1])")
    grid, values = path.grid, path.values
    a = -gamma / gamma2 - 1.0
    p = a + 1.0
    c = x ** (-1.0 / gamma)
    scale = x ** (1.0 / gamma)
    w_c = float(np.interp(c, grid, values))
    # the interpolated path is linear between nodes, so cutting the
    # grid at c and ending it with the node (c, W(c)) integrates it
    # exactly over [0, c]; at c = 1 the cut grid is the full grid
    j = int(np.searchsorted(grid, c, side="left"))
    full = _segment_weights(grid, a)[0] @ values
    part_c = _segment_weights(np.append(grid[:j], c), a)[0] @ np.append(values[:j], w_c)
    integral = scale * c ** (-p) * part_c - full
    lead = x ** (-1.0 / gamma1)
    return float((gamma / gamma1) * lead * (scale * w_c - values[-1])
                 + gamma / (gamma1 + gamma2) * lead * integral)


def limiting_rv(path: WienerPath, gamma1: float, gamma2: float) -> float:
    """Centered limiting variable L(W) for one path (see module docstring).

    Exactly linear in the path values; the zero path maps to 0.0.
    """
    _, rho = _tail_parameters(gamma1, gamma2)
    w_plain, w_log = _segment_weights(path.grid, rho - 2.0)
    return _combine(float(w_plain @ path.values), float(w_log @ path.values),
                    float(path.values[-1]), gamma1, gamma2)


def _combine(d1, d2, d3, gamma1: float, gamma2: float):
    """L(W) from (Delta1, Delta2, Delta3), elementwise on scalars or arrays."""
    gamma, _ = _tail_parameters(gamma1, gamma2)
    return (-gamma * d3
            + gamma / (gamma1 + gamma2) * ((gamma2 - gamma1) * d1 - gamma * d2))


class DeltaMoments(NamedTuple):
    """Second moments of (Delta1, Delta2, Delta3); see module docstring."""

    d11: float
    d22: float
    d33: float
    d12: float
    d13: float
    d23: float


def delta_moments(rho: float) -> DeltaMoments:
    """Closed-form second moments of the three limit ingredients.

    Args:
        rho: 1 - gamma/gamma2, must lie in (1/2, 1).

    Returns:
        (E[D1^2], E[D2^2], E[D3^2], E[D1 D2], E[D1 D3], E[D2 D3]) for
        D1 = int_0^1 s^(rho-2) W(s) ds, D2 = the log-weighted version,
        D3 = W(1).
    """
    if not (0.5 < rho < 1.0):
        raise ValueError(f"rho must lie in (0.5, 1), got {rho}")
    r2 = 2.0 * rho - 1.0
    d11 = 2.0 / (rho * r2)
    d22 = 2.0 * (4.0 * rho - 1.0) / (rho ** 2 * r2 ** 3)
    d33 = 1.0
    d12 = (1.0 - 4.0 * rho) / (rho ** 2 * r2 ** 2)
    d13 = 1.0 / rho
    d23 = -1.0 / rho ** 2
    return DeltaMoments(d11, d22, d33, d12, d13, d23)


def combined_delta_second_moment(gamma1: float, gamma2: float) -> float:
    """E[(a D1 + b D2 - D3)^2] assembled from delta_moments.

    Here a = (gamma2-gamma1)/(gamma1+gamma2) and b = -gamma/(gamma1+gamma2);
    multiplying by gamma^2 reproduces the limiting variance
    asymptotic_variance(gamma1, gamma2).
    """
    gamma, rho = _tail_parameters(gamma1, gamma2)
    mom = delta_moments(rho)
    a = (gamma2 - gamma1) / (gamma1 + gamma2)
    b = -gamma / (gamma1 + gamma2)
    return (a * a * mom.d11 + b * b * mom.d22 + mom.d33
            + 2.0 * a * b * mom.d12 - 2.0 * a * mom.d13 - 2.0 * b * mom.d23)


def _ensemble(rho: float, m: int, seed: int, n_paths: int):
    """(Delta1, Delta2, Delta3) arrays over n_paths warped Wiener paths.

    Path i draws from the stream (seed, i), so any subset of paths can
    be regenerated independently of evaluation order.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    grid = transformed_grid(m, 2.0 / (2.0 * rho - 1.0))
    w_plain, w_log = _segment_weights(grid, rho - 2.0)
    sds = np.sqrt(np.diff(grid))
    values = np.empty(m + 1)
    values[0] = 0.0
    d1 = np.empty(n_paths)
    d2 = np.empty(n_paths)
    d3 = np.empty(n_paths)
    for i in range(n_paths):
        increments = derive_rng(seed, i).standard_normal(m) * sds
        np.cumsum(increments, out=values[1:])
        d1[i] = w_plain @ values
        d2[i] = w_log @ values
        d3[i] = values[-1]
    return d1, d2, d3


def delta_moments_mc(rho: float, n_paths: int, m: int, seed: int) -> DeltaMoments:
    """Monte Carlo counterpart of delta_moments over n_paths Wiener paths.

    Sampling happens on the warped grid transformed_grid(m, q); see the
    module docstring for why a uniform grid would bias the moments low.
    """
    if not (0.5 < rho < 1.0):
        raise ValueError(f"rho must lie in (0.5, 1), got {rho}")
    d1, d2, d3 = _ensemble(rho, m, seed, n_paths)
    def mean_of(prod):
        return math.fsum(prod) / n_paths
    return DeltaMoments(
        d11=mean_of(d1 * d1),
        d22=mean_of(d2 * d2),
        d33=mean_of(d3 * d3),
        d12=mean_of(d1 * d2),
        d13=mean_of(d1 * d3),
        d23=mean_of(d2 * d3),
    )


@dataclass(frozen=True)
class EnsembleStats:
    """Monte Carlo summary of the limiting variable.

    Attributes:
        mean: sample mean of L(W) (should be near 0).
        variance: sample variance (ddof=1).
        std_error: standard error of the variance estimate.
        mean_std_error: standard error of the mean.
    """

    gamma1: float
    gamma2: float
    n_paths: int
    m: int
    mean: float
    variance: float
    std_error: float
    mean_std_error: float

    def to_dict(self) -> dict:
        from .tail_index import asymptotic_variance

        return {
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "n_paths": self.n_paths,
            "m": self.m,
            "mean": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "sigma2_closed_form": asymptotic_variance(self.gamma1, self.gamma2),
        }


def mc_variance(gamma1: float, gamma2: float, n_paths: int, m: int, seed: int) -> EnsembleStats:
    """Estimate the variance of the limiting variable by Monte Carlo.

    Simulates n_paths Wiener paths at resolution m on the warped grid,
    evaluates limiting_rv's linear functional on each, and aggregates
    with exact (order-independent) summation, so results depend only on
    (gamma1, gamma2, n_paths, m, seed).
    """
    _, rho = _tail_parameters(gamma1, gamma2)
    values_out = _combine(*_ensemble(rho, m, seed, n_paths), gamma1, gamma2)
    mean = math.fsum(values_out) / n_paths
    centered = values_out - mean
    variance = math.fsum(centered * centered) / (n_paths - 1)
    m4 = math.fsum(centered ** 4) / n_paths
    var_of_var = max(m4 - (n_paths - 3) / (n_paths - 1) * variance ** 2, 0.0) / n_paths
    return EnsembleStats(
        gamma1=gamma1,
        gamma2=gamma2,
        n_paths=n_paths,
        m=m,
        mean=mean,
        variance=variance,
        std_error=math.sqrt(var_of_var),
        mean_std_error=math.sqrt(variance / n_paths),
    )
