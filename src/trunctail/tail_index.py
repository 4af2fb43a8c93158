"""Tail-index estimation for randomly right-truncated data.

The central estimator generalizes Hill's estimator: each of the top k
log-ratios log(X_(n-i+1) / X_(n-k)) is weighted by the fitted
product-limit df over the coverage, F_n/C_n, evaluated at that order
statistic, and the weighted sum is normalized by the weight total.
With the Lynden-Bell variant on complete data all weights collapse to
one and the classical Hill estimator is recovered exactly.

The limiting standard deviation of sqrt(k) (gamma1_hat - gamma1) under
the truncation model is sigma with

    sigma^2 = gamma^2 (1 + r)(1 + r^2) / (1 - r)^3,
    r = gamma1/gamma2,  gamma = gamma1 gamma2 / (gamma1 + gamma2),

which backs the plug-in confidence intervals here.

Threshold choice uses a dispersion criterion: k* minimizes the
i^theta-weighted mean absolute deviation of the estimator path from
its running median.  Prefixes with fewer than two summands are
excluded (a singleton's deviation from its own median is identically
zero, which would otherwise pin the argmin at the smallest k).  The
scan range lives in select_k_dispersion's defaults alone, which every
caller that selects k* uses.  One
running-median pass scores every k in O(n log n); only the thresholds
whose score could reach the minimum within the pass's rounding error
are re-scored from the definition, so the choice is exactly that of a
direct scan.

scipy is imported inside the two functions that use it, so importing
the package, or a run that asks for no interval and no quadrature,
does not pay for loading it.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
# np.median imports numpy.ma on its first call; importing it with the module
# lets forked study workers inherit it instead of loading it once per pool
import numpy.ma  # noqa: F401

from .errors import DegenerateTailError, ModelViolationError, NumericError
from .product_limit import WOODROOFE, fit_product_limit
from .truncation import TruncatedSample, _data_rows

__all__ = [
    "ConfidenceInterval",
    "TailIndexEstimate",
    "asymptotic_variance",
    "confidence_interval",
    "default_k_max",
    "estimate_gamma2",
    "full_report",
    "gamma1_estimate",
    "gamma1_path",
    "generalized_statistic_complete",
    "hill",
    "hill_path",
    "select_k_dispersion",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    level: float
    lower: float
    upper: float


@dataclass
class TailIndexEstimate:
    """Estimation result with optional variance plug-ins.

    Attributes:
        gamma1_hat: estimated tail index of the target variable.
        k: number of top order statistics used.
        variant: product-limit variant behind the weights.
        n: observed sample size.
        gamma2_hat: plug-in estimate of the truncation tail index.
        k2: threshold used for gamma2_hat.
        sigma2_hat: plug-in limiting variance.
        ci: plug-in confidence interval, if computable.
        warnings: human-readable caveats accumulated while estimating.
        path: the gamma1_path the estimate was read from, if kept; not reported.
    """

    gamma1_hat: float
    k: int
    variant: str
    n: int
    gamma2_hat: float | None = None
    k2: int | None = None
    sigma2_hat: float | None = None
    ci: ConfidenceInterval | None = None
    warnings: list = field(default_factory=list)
    path: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready report with a fixed key set."""
        return {
            "gamma1_hat": self.gamma1_hat,
            "k": self.k,
            "variant": self.variant,
            "gamma2_hat": self.gamma2_hat,
            "k2": self.k2,
            "sigma2_hat": self.sigma2_hat,
            "ci": None if self.ci is None else {
                "level": self.ci.level,
                "lower": self.ci.lower,
                "upper": self.ci.upper,
            },
            "n": self.n,
            "warnings": list(self.warnings),
        }


def _check_positive(values: np.ndarray):
    bad = values <= 0.0
    if np.any(bad):
        raise ValueError(f"value <= 0 at data row(s) {_data_rows(bad)}; cannot take logs")


def gamma1_path(sample: TruncatedSample, variant: str = WOODROOFE) -> np.ndarray:
    """Estimator value for every threshold k in one pass.

    Returns:
        Array path of length n with path[k] = estimate at threshold k
        for 1 <= k <= n-1; path[0] is NaN (no threshold 0).

    The whole path costs O(n log n): the weights F_n/C_n at the order
    statistics do not depend on k, so cumulative sums give every
    threshold at once.
    """
    _check_positive(sample.x)
    fit = fit_product_limit(sample, variant)
    return _weighted_hill_path(fit.atoms[::-1], (fit.df_at_atoms / fit.coverage)[::-1])


def _weighted_hill_path(z_desc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """path[k] = sum_{i<k} w_i log z_i / sum_{i<k} w_i - log z_k; path[0] is NaN.

    z_desc holds the order statistics in descending order and w their
    weights; unit weights give the classical Hill path.
    """
    logz = np.log(z_desc)
    path = np.full(z_desc.size, np.nan)
    path[1:] = np.cumsum(w * logz)[:-1] / np.cumsum(w)[:-1] - logz[1:]
    return path


def gamma1_estimate(sample: TruncatedSample, k: int, variant: str = WOODROOFE) -> TailIndexEstimate:
    """Weighted-Hill estimate of the target tail index.

    Args:
        sample: observed truncated pairs.
        k: number of top order statistics, 1 <= k <= n-1 (k = 1 uses a
            single log-ratio; the weight cancels).
        variant: product-limit variant for the weights.
    """
    n = sample.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    path = gamma1_path(sample, variant)
    return TailIndexEstimate(gamma1_hat=float(path[k]), k=int(k), variant=variant, n=n)


def hill_path(values) -> np.ndarray:
    """Hill estimator for every threshold; path[k] as in gamma1_path."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-d sample with at least two values")
    _check_positive(v)
    return _weighted_hill_path(np.sort(v)[::-1], np.ones(v.size))


def hill(values, k: int) -> float:
    """Classical Hill estimator: mean of the top-k log ratios."""
    v = np.asarray(values, dtype=float)
    if not 1 <= k < v.size:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={v.size}")
    return float(hill_path(v)[k])


def asymptotic_variance(gamma1: float, gamma2: float) -> float:
    """Limiting variance of sqrt(k)(gamma1_hat - gamma1).

    Requires 0 < gamma1 < gamma2.  As gamma2 -> inf (no truncation)
    the value tends to gamma1^2, the Hill limit.
    """
    if not (np.isfinite(gamma1) and gamma1 > 0):
        raise ValueError("gamma1 must be > 0")
    if not (gamma2 > gamma1):
        raise ModelViolationError(
            f"variance undefined unless gamma1 < gamma2 "
            f"(got gamma1={gamma1}, gamma2={gamma2})"
        )
    r = gamma1 / gamma2
    gamma = gamma1 * gamma2 / (gamma1 + gamma2)
    return gamma ** 2 * (1.0 + r) * (1.0 + r * r) / (1.0 - r) ** 3


def confidence_interval(estimate: TailIndexEstimate, gamma2_hat: float,
                        level: float = 0.95) -> ConfidenceInterval:
    """Plug-in normal interval gamma1_hat +/- z * sigma_hat / sqrt(k).

    Raises:
        ModelViolationError: if gamma2_hat <= gamma1_hat, which leaves
            the plug-in variance undefined.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    from scipy.special import ndtri   # the normal quantile; bitwise equal to norm.ppf

    sigma2 = asymptotic_variance(estimate.gamma1_hat, gamma2_hat)
    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * math.sqrt(sigma2 / estimate.k)
    return ConfidenceInterval(level=level,
                              lower=estimate.gamma1_hat - half,
                              upper=estimate.gamma1_hat + half)


def default_k_max(n: int) -> int:
    """Default upper end of the threshold scan: floor(0.95 n) - 1, at most n-2."""
    return min(int(math.floor(0.95 * n)) - 1, n - 2)


def select_k_dispersion(path: np.ndarray, theta: float = 0.3,
                        k_min: int = 2, k_max: int | None = None) -> int:
    """Threshold minimizing the weighted dispersion of an estimator path.

    The score at k is (1/k) * sum_{i=2..k} i^theta |path[i] - m_k| with
    m_k the median of path[2..k].  The argmin is taken over
    k in [max(k_min, 4), k_max], with ties going to the smaller k.

    Prefixes shorter than three summands are never candidates: at k = 2
    the single summand equals its own median and the score is an exact
    zero, and at k = 3 the score vanishes whenever path[2] and path[3]
    happen to lie close together, which at usual sample sizes occurs
    often enough to swamp the genuine minimum with noise.  Requiring
    three deviations from the running median is the smallest guard that
    makes the criterion informative.

    Cost: O(n log n) for one running-median pass that scores every k,
    plus O(k) for each re-scored candidate (see _rescore_candidates);
    on continuous data that is rarely more than one.

    Args:
        path: estimator values indexed by threshold, as returned by
            gamma1_path or hill_path.
        theta: dispersion exponent in [0, 0.5].
        k_min, k_max: scan range, 2 <= k_min < k_max < n.  The defaults,
            [4, default_k_max(n)], are the package's one scan range; an
            n <= 5 leaves it empty and raises DegenerateTailError.
    """
    n = path.shape[0]
    if k_max is None:
        k_max = default_k_max(n)
        if k_min == 2 and k_max < 4:      # the default range [4, k_max] is empty
            raise DegenerateTailError(f"sample too small for threshold selection (n={n})")
    if not (0.0 <= theta <= 0.5):
        raise ValueError("theta must lie in [0, 0.5]")
    if not 2 <= k_min < k_max < n:
        raise ValueError(f"need 2 <= k_min < k_max < n, got ({k_min}, {k_max}, {n})")
    start = max(k_min, 4)
    if start > k_max:
        raise DegenerateTailError(
            f"no informative thresholds to scan: k_max={k_max} lies below {start}")
    seg = np.ascontiguousarray(path[2:k_max + 1])
    if np.any(~np.isfinite(seg)):
        raise DegenerateTailError("estimator path is not finite over the scan range")
    weights = np.arange(2, k_max + 1, dtype=float) ** theta
    fast, bound = _running_scores(seg, weights)
    return _rescore_candidates(seg, weights, fast[start - 2:], bound[start - 2:], start)


_U = 2.0 ** -53        # unit roundoff of float64
_ETA = 2.0 ** -1074    # smallest subnormal: the absolute error unit under underflow


def _running_scores(seg: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dispersion score of every prefix of seg in one pass, with error bounds.

    Entry j belongs to k = j + 2, the prefix seg[:j+1].  A max-heap of
    the lower half and a min-heap of the upper half track the median;
    running sums of w and w*x per half give the score as
    (S_hi - med W_hi + med W_lo - S_lo) / k.

    bound[j] is a rigorous bound on |fast[j] - direct[j]|, where direct
    is the score as _rescore_candidates rounds it from the definition.
    Both differ from the exact score of the same floats and median (the
    even-count median is fl(a + b) / 2 in both, as in np.median):
      * each running sum takes at most 3 additions per step between the
        two halves, each off by at most u times a partial sum, which is
        bounded by the prefix total A(t) of |terms|: 4u sum_t A(t);
      * each term w*x is rounded once: 2u A(s);
      * the closing formula does 5 operations on terms bounded by
        M = |S_hi| + |med W_hi| + |med W_lo| + |S_lo|: 8u M;
      * the direct dot product of s terms, the subtraction and the
        division are off by at most gamma_{s+2} times the exact score;
      * underflow adds at most one subnormal unit per rounded product
        or quotient.
    The constants exceed the operation counts (4 for 3, 8 for 6), which
    also covers the rounding of the bound and of fast +/- bound.
    """
    xs = seg.tolist()
    ws = weights.tolist()
    wx = weights * seg
    wxs = wx.tolist()
    size = len(xs)
    trail = []                # median, S_lo, W_lo, S_hi, W_hi after each step
    lo, hi = [], []           # lo holds (-x, j), hi holds (x, j)
    odd = False               # lo holds one element more than hi
    s_lo = w_lo = s_hi = w_hi = 0.0
    for j in range(size):
        x = xs[j]
        if odd:               # the new element ends in hi, by way of lo if below its max
            if x < -lo[0][0]:
                v, i = heapq.heapreplace(lo, (-x, j))
                heapq.heappush(hi, (-v, i))
                s_lo += wxs[j]
                w_lo += ws[j]
                s_lo -= wxs[i]
                w_lo -= ws[i]
            else:
                i = j
                heapq.heappush(hi, (x, j))
            s_hi += wxs[i]
            w_hi += ws[i]
            med = (-lo[0][0] + hi[0][0]) / 2
        else:                 # the new element ends in lo, by way of hi if above its min
            if hi and x > hi[0][0]:
                v, i = heapq.heapreplace(hi, (x, j))
                heapq.heappush(lo, (-v, i))
                s_hi += wxs[j]
                w_hi += ws[j]
                s_hi -= wxs[i]
                w_hi -= ws[i]
            else:
                i = j
                heapq.heappush(lo, (-x, j))
            s_lo += wxs[i]
            w_lo += ws[i]
            med = -lo[0][0]
        odd = not odd
        trail.extend((med, s_lo, w_lo, s_hi, w_hi))
    med, s_lo, w_lo, s_hi, w_hi = np.array(trail).reshape(size, 5).T
    count = np.arange(1, size + 1, dtype=float)           # summands in the prefix
    k = count + 1.0
    fast = (s_hi - med * w_hi + med * w_lo - s_lo) / k

    abs_med = np.abs(med)
    a_wx = np.cumsum(np.abs(wx))
    a_w = np.cumsum(weights)
    terms = np.abs(s_hi) + abs_med * w_hi + abs_med * w_lo + np.abs(s_lo)
    fast_err = (4.0 * _U * (np.cumsum(a_wx) + abs_med * np.cumsum(a_w))
                + 2.0 * _U * a_wx + 8.0 * _U * terms) / k
    gamma = (count + 2.0) * _U / (1.0 - (count + 2.0) * _U)
    bound = (fast_err + gamma * (np.abs(fast) + fast_err)
             + (2.0 * count + 8.0) * _ETA)
    return fast, bound


def _rescore_candidates(seg: np.ndarray, weights: np.ndarray, fast: np.ndarray,
                        bound: np.ndarray, start: int) -> int:
    """Smallest k attaining the minimum score computed from the definition.

    fast[j] and bound[j] belong to k = start + j.  A k whose lowest
    possible direct score exceeds the lowest upper bound over all k
    cannot attain the minimum; every other k is re-scored directly, in
    ascending order with a strict comparison, so exact ties resolve as
    a full direct scan would.  A non-finite bound keeps its k.  Scores
    are >= 0, so the scan stops at the first score of exactly 0.0: no
    later k can beat it, and a constant path, whose every k stays a
    candidate, costs one re-score.
    """
    ceiling = np.min(fast + bound)
    candidates = np.flatnonzero(~(fast - bound > ceiling))
    best_k, best_score = None, np.inf
    for k in (candidates + start).tolist():
        m = k - 1                      # number of summands i = 2..k
        med = np.median(seg[:m])
        score = float(weights[:m] @ np.abs(seg[:m] - med)) / k
        if score < best_score:
            best_k, best_score = k, score
            if score == 0.0:
                break
    return int(best_k)


def estimate_gamma2(sample: TruncatedSample, k2: int | None = None,
                    theta: float = 0.3) -> tuple[float, int]:
    """Hill estimate of the truncation tail index from the observed y's.

    When k2 is omitted the dispersion criterion picks it, scanning from
    max(4, floor(sqrt(n))) upward.  The higher floor matters here: the
    observed y's behave like a complete heavy-tailed sample, their Hill
    path is already stable by k = sqrt(n), and over the long default
    scan range a short noisy prefix would otherwise produce a spurious
    minimum in a large fraction of samples.

    Args:
        sample: observed pairs; only the y side is used.
        k2: threshold; chosen by the dispersion criterion when omitted.

    Returns:
        (gamma2_hat, k2).

    Raises:
        DegenerateTailError: if k2 is omitted and n <= 6, which leaves
            no threshold above the floor to scan.
    """
    path = hill_path(sample.y)
    if k2 is None:
        k_min = max(4, math.isqrt(sample.n))
        if k_min >= default_k_max(sample.n):
            raise DegenerateTailError(
                f"sample too small for the gamma2 plug-in (n={sample.n})")
        k2 = select_k_dispersion(path, theta, k_min=k_min)
    elif not 1 <= k2 < sample.n:
        raise ValueError(f"k2 must satisfy 1 <= k2 < n, got k2={k2}, n={sample.n}")
    return float(path[k2]), int(k2)


def generalized_statistic_complete(values, k: int, g, alpha: float) -> float:
    """Weighted power-mean of log ratios over its continuous normalizer.

    Computes
        [(1/k) sum_{i=1..k} g(i/(k+1)) (log X_(n-i+1)/X_(n-k))^alpha]
        / int_0^1 g(x) (-log x)^alpha dx
    for complete (untruncated) data.  With g == 1 and alpha = 1 this is
    exactly the Hill estimator.
    """
    v = np.asarray(values, dtype=float)
    if not 1 <= k < v.size:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={v.size}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be > 0")
    _check_positive(v)
    z = np.sort(v)[::-1]
    ratios = np.log(z[:k] / z[k])
    i = np.arange(1, k + 1)
    gi = np.asarray([float(g(t)) for t in i / (k + 1.0)])
    numerator = float(np.mean(gi * ratios ** alpha))
    from scipy import integrate

    denom, abserr = integrate.quad(lambda x: float(g(x)) * (-np.log(x)) ** alpha,
                                   0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    if not np.isfinite(denom) or abserr > 1e-8 * max(abs(denom), 1.0):
        raise NumericError(f"normalizer quadrature failed (value={denom!r}, abserr={abserr!r})")
    if abs(denom) < 1e-12:
        raise ValueError("normalizing integral vanishes for this weight function")
    return numerator / denom


def full_report(sample: TruncatedSample, k: int | None = None,
                variant: str = WOODROOFE, theta: float = 0.3,
                level: float | None = 0.95) -> TailIndexEstimate:
    """Estimate gamma1 with automatic threshold choice and plug-ins.

    When k is omitted the dispersion criterion picks it; the estimate
    keeps the whole path as `path`, so no caller need refit it.  A gamma2
    plug-in and confidence interval are attached when the data allow;
    a truncation tail estimated at or below gamma1_hat is recorded as
    a model-violation warning and the interval is refused rather than
    reporting an invalid variance.  Pass level=None to skip the
    interval.
    """
    n = sample.n
    if n < 3:
        raise DegenerateTailError(f"need at least 3 observed pairs, got {n}")
    path = gamma1_path(sample, variant)
    if k is None:
        k = select_k_dispersion(path, theta)
    elif not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    est = TailIndexEstimate(float(path[k]), int(k), variant, n, path=path)
    if not np.isfinite(est.gamma1_hat) or est.gamma1_hat <= 0:
        est.warnings.append(
            f"estimate {est.gamma1_hat!r} is not a positive real; "
            "tail may be degenerate at this threshold"
        )
    try:
        g2, k2 = estimate_gamma2(sample, theta=theta)
        est.gamma2_hat, est.k2 = g2, k2
    except (ValueError, DegenerateTailError) as exc:
        est.warnings.append(f"gamma2 plug-in unavailable: {exc}")
        return est
    if level is None:
        return est
    try:
        est.ci = confidence_interval(est, est.gamma2_hat, level)
        est.sigma2_hat = asymptotic_variance(est.gamma1_hat, est.gamma2_hat)
        est.warnings.append(
            "interval ignores the deterministic bias term; no bias correction applied"
        )
    except ModelViolationError as exc:
        est.warnings.append(f"confidence interval refused: {exc}")
    return est
