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
  such integral; gamma_process's row reuses it on the grid cut at
  c = x^(-1/gamma), with (c, W(c)) as the last node.
* Monte Carlo ensembles sample W at the warped times s_j = (j/m)^q
  with q = 2/(2 rho - 1).  On a uniform grid the first cell [0, 1/m]
  alone hides an O(m^(1/2 - rho)) share of the limit variance in
  sub-grid Brownian roughness (about 13% of sigma^2 at m = 2^14 for
  gamma1 = 0.6, gamma2 = 1.4); the warped grid concentrates points
  near 0 at equal resolution in the flattened variable u = s^(1/q) and
  reduces that loss below 1e-5 relative.  simulate_wiener keeps the
  plain uniform grid for direct use.

Ensembles.  A path is values = cumsum(sd * z) with sd_l the square
root of the l-th grid step and z iid N(0, 1), so a node-weight
functional w @ values equals a @ z for the increment weights
a_l = sd_l * sum_{j>=l} w_j.  _ensemble takes a stack of such rows
and a path costs one normal fill from its own stream (seed, i) and one
product-and-sum over the stack.  mc_variance passes L(W)'s row and
aggregates the values in _ensemble_stats; the three Delta rows of
_delta_rows go through _delta_moments, the Monte Carlo counterpart of
delta_moments.  Each row is reduced on its own, so rows from any grids
with the same m stack and keep the bits of their own passes.  A
row also gives its functional's exact variance on the grid, sum a_l^2,
so mc_variance can split its error into grid bias and Monte Carlo noise.
The functional a @ z is exactly N(0, sum a_l^2), so that noise has the
exact standard error sum a_l^2 * sqrt(2/(n-1)) with no estimate of it.
Every weight reduction in this module is numpy's fixed-order
np.add.reduce, never BLAS, whose thread count would change the sums.
Paths run on seeding._map, forked processes up to one per available
core (serially without os.fork); each path's values depend only on its
own stream and aggregation uses math.fsum, so the output depends
neither on the number of cores nor on the number of BLAS threads.
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelViolationError, NumericError
from .seeding import _map, derive_rng
from .tail_index import asymptotic_variance

__all__ = [
    "DeltaMoments",
    "EnsembleStats",
    "WienerPath",
    "combined_delta_second_moment",
    "delta_moments",
    "gamma_process",
    "limiting_rv",
    "mc_variance",
    "simulate_wiener",
]


@dataclass(frozen=True)
class WienerPath:
    """A Wiener trajectory observed on a grid of times in [0, 1].

    Attributes:
        grid: strictly increasing times, grid[0] = 0 and grid[-1] = 1.
        values: W at the grid times, values[0] = 0.

    simulate_wiener produces paths on the uniform grid j/m; the Monte
    Carlo ensembles use warped grids (see _warped_grid).  Between
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
    if not (0.5 < rho < 1.0):   # as it must for gamma1 < gamma2, unless rounded to an end
        raise NumericError(
            f"rho = 1 - gamma/gamma2 rounds to {rho} at gamma1={gamma1}, gamma2={gamma2}; "
            "the limit law needs 1/2 < rho < 1"
        )
    return gamma, rho


def gamma_process(x: float, path: WienerPath, gamma1: float, gamma2: float) -> float:
    """Limit process at a point x >= 1 for a given Wiener path.

    Evaluates

        (gamma/gamma1) x^(-1/gamma1) {x^(1/gamma) W(x^(-1/gamma)) - W(1)}
        + gamma/(gamma1+gamma2) x^(-1/gamma1)
          * int_0^1 s^(-gamma/gamma2 - 1)
                    {x^(1/gamma) W(x^(-1/gamma) s) - W(s)} ds

    with the path linearly interpolated and each segment integrated in
    closed form.  Like L(W), Gamma(x) is a node-weight row w @ values
    (_process_weights).  At x = 1 both braces vanish identically and the
    result is exactly 0.0.  Points x < 1 would read the path beyond
    time 1 and are rejected.
    """
    x = float(x)
    if not (np.isfinite(x) and x >= 1.0):
        raise ValueError("x must satisfy x >= 1 (the path lives on [0, 1])")
    return float(_weigh(_process_weights(path.grid, x, gamma1, gamma2), path.values))


def _process_weights(grid: np.ndarray, x: float, gamma1: float, gamma2: float) -> np.ndarray:
    """Node weights w with gamma_process(x) = w @ values on this grid.

    The grid cut at c = x^(-1/gamma) integrates the path over [0, c]; its
    last node (c, W(c)) splits its weight linearly onto nodes j-1 and j.
    The powers of x are combined so that none overflows.
    """
    gamma, _ = _tail_parameters(gamma1, gamma2)
    a = -gamma / gamma2 - 1.0
    c = x ** (-1.0 / gamma)
    if c == 0.0:
        raise NumericError(f"x^(-1/gamma) underflows to 0 at x={x!r}")
    j = int(np.searchsorted(grid, c))
    t = (c - grid[j - 1]) / (grid[j] - grid[j - 1])
    at_c = np.zeros(grid.size)      # W(c) = at_c @ values
    at_c[j - 1:j + 1] = 1.0 - t, t
    cut = _segment_weights(np.append(grid[:j], c), a)[0]
    part = np.pad(cut[:j], (0, grid.size - j)) + cut[j] * at_c
    lead = x ** (-1.0 / gamma1)
    weights = (gamma / (gamma1 + gamma2) * (part - lead * _segment_weights(grid, a)[0])
               + gamma / gamma1 * x ** (1.0 / gamma2) * at_c)
    weights[-1] -= gamma / gamma1 * lead
    return weights


def limiting_rv(path: WienerPath, gamma1: float, gamma2: float) -> float:
    """Centered limiting variable L(W) for one path (see module docstring).

    Exactly linear in the path values; the zero path maps to 0.0.
    """
    return float(_weigh(_limit_weights(path.grid, gamma1, gamma2), path.values))


def _limit_weights(grid: np.ndarray, gamma1: float, gamma2: float) -> np.ndarray:
    """Node weights w with L(W) = w @ values on this grid."""
    gamma, rho = _tail_parameters(gamma1, gamma2)
    w_plain, w_log = _segment_weights(grid, rho - 2.0)
    weights = gamma / (gamma1 + gamma2) * ((gamma2 - gamma1) * w_plain - gamma * w_log)
    weights[-1] -= gamma
    return weights


def _weigh(weights, x, prod=None):
    """Sum of weights * x over the last axis, in numpy's fixed pairwise
    order (no BLAS); prod is an optional preallocated buffer."""
    return np.add.reduce(np.multiply(weights, x, out=prod), axis=-1)


def _increment_weights(grid: np.ndarray, node_weights: np.ndarray) -> np.ndarray:
    """Rows a with a @ z == node_weights @ values for the path
    values = [0, cumsum(sqrt(diff(grid)) * z)] (see module docstring)."""
    suffix = np.cumsum(node_weights[..., ::-1], axis=-1)[..., ::-1]
    return np.sqrt(np.diff(grid)) * suffix[..., 1:]


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


def _warped_grid(rho: float, m: int) -> np.ndarray:
    """Time grid (j/m)^q with q = 2/(2 rho - 1), concentrating resolution near 0."""
    if m < 2:
        raise ValueError("m must be >= 2")
    q = 2.0 / (2.0 * rho - 1.0)
    grid = (np.arange(m + 1) / m) ** q
    if grid[1] == 0.0 or np.any(np.diff(grid) <= 0.0):
        raise NumericError(
            f"warped grid underflows at m={m}, q={q}; "
            "the tail indices are too close for this resolution"
        )
    return grid


def _delta_rows(rho: float, m: int) -> np.ndarray:
    """Increment-weight rows of (Delta1, Delta2, Delta3) on the warped grid."""
    grid = _warped_grid(rho, m)
    w_plain, w_log = _segment_weights(grid, rho - 2.0)
    w_end = np.zeros(grid.size)
    w_end[-1] = 1.0
    return _increment_weights(grid, np.stack([w_plain, w_log, w_end]))


def _limit_row(gamma1: float, gamma2: float, m: int) -> np.ndarray:
    """Increment-weight row of L(W) on the m-step warped grid."""
    grid = _warped_grid(_tail_parameters(gamma1, gamma2)[1], m)
    return _increment_weights(grid, _limit_weights(grid, gamma1, gamma2))


def _ensemble(rows: np.ndarray, seed: int, n_paths: int) -> np.ndarray:
    """rows @ z for the increments z of n_paths Wiener paths, shape
    (len(rows), n_paths).

    Path i draws z from the stream (seed, i), so the result does not
    depend on how the paths are split over processes.  Each forked
    process writes only its own copy of the buffers z and prod.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    z = np.empty(rows.shape[1])
    prod = np.empty(rows.shape)

    def path(i):
        derive_rng(seed, i).standard_normal(out=z)
        return _weigh(rows, z, prod).tolist()

    return np.array(_map(path, range(n_paths), n_paths)).T


def _delta_moments(values: np.ndarray) -> DeltaMoments:
    """Sample second moments of the ensemble's (Delta1, Delta2, Delta3) rows."""
    d1, d2, d3 = values
    return DeltaMoments(*(math.fsum(a * b) / d1.size
                          for a, b in ((d1, d1), (d2, d2), (d3, d3), (d1, d2), (d1, d3), (d2, d3))))


@dataclass(frozen=True)
class EnsembleStats:
    """Monte Carlo summary of the limiting variable.

    Attributes:
        mean: sample mean of L(W) (should be near 0).
        variance: sample variance (ddof=1).
        grid_variance: exact variance of the discretized L(W) on the
            m-step warped grid; its gap to sigma^2 is the grid bias.

    On the grid L(W) is exactly N(0, grid_variance), so std_error is the
    exact standard error of variance and grid_z an exact z-score.
    """

    gamma1: float
    gamma2: float
    n_paths: int
    m: int
    mean: float
    variance: float
    grid_variance: float

    @property
    def std_error(self) -> float:
        """grid_variance * sqrt(2/(n_paths-1)), the sd of variance."""
        return self.grid_variance * math.sqrt(2.0 / (self.n_paths - 1))

    def to_dict(self) -> dict:
        """The limit-check report: these fields, std_error, grid_z, the closed form and the error to it."""
        closed = asymptotic_variance(self.gamma1, self.gamma2)
        return {
            **asdict(self),
            "std_error": self.std_error,
            "grid_z": (self.variance - self.grid_variance) / self.std_error,
            "sigma2_closed_form": closed,
            "relative_error": abs(self.variance / closed - 1.0),
        }


def mc_variance(gamma1: float, gamma2: float, n_paths: int, m: int, seed: int) -> EnsembleStats:
    """Estimate the variance of the limiting variable by Monte Carlo.

    Simulates n_paths Wiener paths at resolution m on the warped grid,
    evaluates limiting_rv's linear functional on each, and aggregates
    with exact (order-independent) summation, so results depend only on
    (gamma1, gamma2, n_paths, m, seed), not on the core or BLAS thread
    count.
    """
    row = _limit_row(gamma1, gamma2, m)
    return _ensemble_stats(gamma1, gamma2, row, _ensemble(row[np.newaxis], seed, n_paths)[0])


def _ensemble_stats(gamma1: float, gamma2: float, row: np.ndarray,
                    values: np.ndarray) -> EnsembleStats:
    """EnsembleStats of the L(W) values an ensemble computed from row."""
    n_paths = values.size
    mean = math.fsum(values) / n_paths
    centered = values - mean
    variance = math.fsum(centered * centered) / (n_paths - 1)
    return EnsembleStats(gamma1, gamma2, n_paths, row.size, mean, variance,
                         math.fsum(row * row))
