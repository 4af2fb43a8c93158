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

Threshold choice uses the dispersion heuristic of Reiss & Thomas
(2007): k* minimizes the i^theta-weighted mean absolute deviation of
the estimator path from its running median.  Two guards are added to
it, each argued in select_k_dispersion: a prefix needs three summands,
and the default scan starts at k = max(4, floor(sqrt(n))).  That scan
range lives in select_k_dispersion's defaults alone, which the gamma1
and the gamma2 selections both use.  One running-median pass finds
each prefix median once and scores every k in O(n log n): its heaps
hold integer ranks alone, and the sums behind each score are
vectorised.  Only the thresholds whose score could reach the minimum
within the pass's rounding error are re-scored from the definition,
with the pass's medians, so the choice is exactly a direct scan's.

The interval's normal quantile is _ndtri, a port of Cephes ndtri that
gives scipy.special.ndtri's bits, so no estimate loads scipy.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTailError, ModelViolationError
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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the code behind scipy.special.ndtri: P0/Q0 serve
# |p - 1/2| < 1/2 - e^-2; P1/Q1 and P2/Q2 serve the tails in
# x = sqrt(-2 log min(p, 1 - p)) below and from 8, each in 1/x.  Each Q
# omits its leading 1.
_S2PI = 2.50662827463100050242E0   # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189   # e^-2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _horner(x: float, coef: tuple, lead: float) -> float:
    # lead*x^n + coef[0]*x^(n-1) + ...: Cephes polevl at lead 0.0 (0.0*x
    # adds exactly nothing for a finite x), p1evl at lead 1.0
    acc = lead
    for c in coef:
        acc = acc * x + c
    return acc


def _ndtri(p: float) -> float:
    """Standard normal quantile, bit for bit scipy.special.ndtri on [0, 1]."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0, 0.0) / _horner(y2, _Q0, 1.0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, P, 0.0) / _horner(z, Q, 1.0)
    return x if upper else -x


def _interval_z(level: float) -> float:
    """Normal quantile z of a two-sided interval; raises as confidence_interval documents."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    z = _ndtri(0.5 * (1.0 + level))   # bitwise equal to scipy.stats.norm.ppf
    if not math.isfinite(z):
        raise ValueError(f"level {level!r} is too close to 1: its normal quantile is infinite")
    return z


def confidence_interval(estimate: TailIndexEstimate, gamma2_hat: float,
                        level: float = 0.95) -> ConfidenceInterval:
    """Plug-in normal interval gamma1_hat +/- z * sigma_hat / sqrt(k).

    Raises:
        ValueError: if level is outside (0, 1), or so close to 1 that
            its normal quantile z overflows.
        ModelViolationError: if gamma2_hat <= gamma1_hat, which leaves
            the plug-in variance undefined.
    """
    sigma2 = asymptotic_variance(estimate.gamma1_hat, gamma2_hat)
    half = _interval_z(level) * math.sqrt(sigma2 / estimate.k)
    return ConfidenceInterval(level=level,
                              lower=estimate.gamma1_hat - half,
                              upper=estimate.gamma1_hat + half)


def default_k_max(n: int) -> int:
    """Default upper end of the threshold scan: floor(0.95 n) - 1, at most n-2."""
    return min(int(math.floor(0.95 * n)) - 1, n - 2)


def select_k_dispersion(path: np.ndarray, theta: float = 0.3,
                        k_min: int | None = None, k_max: int | None = None) -> int:
    """Threshold minimizing the weighted dispersion of an estimator path.

    The score at k is (1/k) * sum_{i=2..k} i^theta |path[i] - m_k| with
    m_k the median of path[2..k], the heuristic of Reiss & Thomas
    (Statistical Analysis of Extreme Values, 3rd ed., 2007).  The argmin
    is taken over k in [max(k_min, 4), k_max], with ties going to the
    smaller k.

    Two guards are added to the heuristic.  Prefixes shorter than three
    summands are never candidates: at k = 2 the single summand equals
    its own median and the score is an exact zero, and at k = 3 it
    vanishes whenever path[2] and path[3] happen to lie close together.
    And the default scan starts at max(4, floor(sqrt(n))): a short noisy
    prefix scores small by construction, so a scan from k = 4 puts about
    half the argmins on truncated Burr samples at k <= 10, where the
    rmse of gamma1_hat stops falling as n grows.

    Cost: O(n log n) for one running-median pass that scores every k
    (a Python loop moves integer ranks through two heaps; sorting and
    the score sums are numpy, see _running_scores), plus O(k) for each
    re-scored candidate (see _rescore_candidates); on continuous data
    that is rarely more than one.

    Args:
        path: estimator values indexed by threshold, as returned by
            gamma1_path or hill_path.
        theta: dispersion exponent in [0, 0.5].
        k_min, k_max: scan range, 2 <= k_min < k_max < n.  The defaults,
            [max(4, isqrt(n)), default_k_max(n)], are the package's one
            scan range, for gamma1 and gamma2 alike; an n <= 5 leaves it
            empty and raises DegenerateTailError.
    """
    n = path.shape[0]
    if k_max is None:
        k_max = default_k_max(n)
        if k_max < 4:                     # n <= 5: no default range
            raise DegenerateTailError(f"sample too small for threshold selection (n={n})")
    if not (0.0 <= theta <= 0.5):
        raise ValueError("theta must lie in [0, 0.5]")
    if not (k_min is None or 2 <= k_min < k_max) or k_max >= n:
        raise ValueError(f"need 2 <= k_min < k_max < n, got ({k_min}, {k_max}, {n})")
    start = max(4, math.isqrt(n) if k_min is None else k_min)
    if start > k_max:
        raise DegenerateTailError(
            f"no informative thresholds to scan: k_max={k_max} lies below {start}")
    seg = np.ascontiguousarray(path[2:k_max + 1])
    if np.any(~np.isfinite(seg)):
        raise DegenerateTailError("estimator path is not finite over the scan range")
    weights = np.arange(2, k_max + 1, dtype=float) ** theta
    fast, bound, med = _running_scores(seg, weights)
    return _rescore_candidates(seg, weights, fast[start - 2:], bound[start - 2:],
                               med[start - 2:], start)


_U = 2.0 ** -53        # unit roundoff of float64
_ETA = 2.0 ** -1074    # smallest subnormal: the absolute error unit under underflow


def _running_scores(seg: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dispersion score and median of every prefix of seg in one pass, with error bounds.

    Entry j belongs to k = j + 2, the prefix seg[:j+1].  One stable
    argsort gives each value an integer rank (ties by index).  A
    max-heap of the lower half and a min-heap of the upper half, both
    of ranks alone, track the median; the loop records the rank of
    max(lo) and of min(hi) after each step, and everything else is
    vectorised.  A step changes the lower half in at most three ways:
    the new element joins it, min(hi) moves in, or max(lo) moves out.
    The lower-half sums S_lo = sum w*x and W_lo = sum w are cumulative
    sums of those deltas, and with S_all and W_all the prefix totals
    the score is

        (S_all - 2 S_lo - med (W_all - 2 W_lo)) / k.

    med[j] is the prefix median, for an even count fl(a + b) / 2 of the
    middle two values, which lies between the halves; _rescore_candidates
    reads it too, so no median is computed twice.

    bound[j] is a rigorous bound on |fast[j] - direct[j]|, where direct
    is the score as _rescore_candidates rounds it from the definition
    with the same med[j].  Both differ from the exact score of the same
    floats and median, which is the formula above.
    With u the unit roundoff, A(s) the prefix total of |w*x| and B(s)
    that of w, k times the fast score's error is at most the sum of:
      * S_all: one rounded addition per step, off by at most u times a
        partial sum bounded by A(s): u sum_s A(s);
      * S_lo: per step at most one rounded delta w*x_in - w*x_out of
        two distinct terms and one rounded addition, each off by at most
        u A(s), doubled in 2 S_lo: 4u sum_s A(s);
      * W_all and W_lo alike, scaled by |med|: 5u |med| sum_s B(s);
      * the rounding of each term w*x, counted once in S_hi - S_lo: u A;
      * the closing formula's 5 operations (two differences, the product
        with med, their difference and the division) on terms bounded by
        M = |S_all| + 2 |S_lo| + |med| (W_all + 2 W_lo): 5u M;
      * underflow: one subnormal unit per rounded product or quotient.
    The direct dot product of s terms, the subtraction and the division
    are off by at most gamma_{s+2} times the exact score.  The constants
    used, 6, 2 and 8 for 5, 1 and 5, exceed the operation counts, which
    also covers the rounding of the bound and of fast +/- bound.
    """
    size = seg.size
    order = np.argsort(seg, kind="stable")
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    ranks, negated = rank.tolist(), (-rank).tolist()
    # step j adds seg[j]: lo holds one element more than hi before an odd
    # step, as many before an even one.  Only odd steps record lo[0] and
    # min(hi); an even step leaves max(lo) = min(min(hi), max(max(lo), s)).
    tops = []
    lo, hi = [negated[0]], []          # lo holds -rank: lo[0] is -max(lo)
    push, pushpop, record = heapq.heappush, heapq.heappushpop, tops.append
    for r, s in zip(negated[1::2], ranks[2::2]):
        push(hi, -pushpop(lo, r))      # the larger of the new rank and max(lo) goes up
        record(lo[0])
        record(hi[0])
        push(lo, -pushpop(hi, s))      # the smaller of s and min(hi) comes down
    if size % 2 == 0:                  # a last odd step without its pair
        push(hi, -pushpop(lo, negated[-1]))
        record(lo[0])
        record(hi[0])
    steps = np.fromiter(tops, dtype=np.intp, count=len(tops)).reshape(-1, 2)
    evens = (size - 1) // 2            # even steps after step 0
    hi_top = steps[:, 1]               # min(hi) after each odd step
    lo_top = np.empty(size, dtype=np.intp)
    lo_top[0] = ranks[0]
    lo_top[1::2] = -steps[:, 0]
    lo_top[2::2] = np.minimum(hi_top[:evens],
                              np.maximum(lo_top[1:size - 1:2], rank[2::2]))
    values = seg[order]
    med = values[lo_top]
    med[1::2] = (med[1::2] + values[hi_top]) / 2

    # lower-half deltas, by rank: an even step brings min(new rank, min(hi))
    # into lo; an odd step brings in min(new rank, max(lo)) and takes out
    # max(lo), which is an exact 0 when the new element went to hi
    wx = weights * seg
    wx_ranked, w_ranked = wx[order], weights[order]
    came_in = rank.copy()
    went_out = lo_top[0:size - 1:2]
    np.minimum(came_in[1::2], went_out, out=came_in[1::2])
    np.minimum(came_in[2::2], hi_top[:evens], out=came_in[2::2])
    d_s = wx_ranked[came_in]
    d_w = w_ranked[came_in]
    d_s[1::2] -= wx_ranked[went_out]
    d_w[1::2] -= w_ranked[went_out]
    s_lo = np.cumsum(d_s)
    w_lo = np.cumsum(d_w)
    s_all = np.cumsum(wx)
    w_all = np.cumsum(weights)
    count = np.arange(1, size + 1, dtype=float)           # summands in the prefix
    k = count + 1.0
    fast = (s_all - 2.0 * s_lo - med * (w_all - 2.0 * w_lo)) / k

    abs_med = np.abs(med)
    a_wx = np.cumsum(np.abs(wx))
    terms = np.abs(s_all) + 2.0 * np.abs(s_lo) + abs_med * (w_all + 2.0 * w_lo)
    fast_err = (6.0 * _U * (np.cumsum(a_wx) + abs_med * np.cumsum(w_all))
                + 2.0 * _U * a_wx + 8.0 * _U * terms) / k
    gamma = (count + 2.0) * _U / (1.0 - (count + 2.0) * _U)
    bound = (fast_err + gamma * (np.abs(fast) + fast_err)
             + (2.0 * count + 8.0) * _ETA)
    return fast, bound, med


def _rescore_candidates(seg: np.ndarray, weights: np.ndarray, fast: np.ndarray,
                        bound: np.ndarray, med: np.ndarray, start: int) -> int:
    """Smallest k attaining the minimum score computed from the definition.

    fast[j], bound[j] and the prefix median med[j] belong to k = start + j,
    as _running_scores returns them.  A k whose lowest possible direct
    score exceeds the lowest upper bound over all k cannot attain the
    minimum; every other k is re-scored directly with med[j], in
    ascending order with a strict comparison, so exact ties resolve as
    a full direct scan would.  A non-finite bound keeps its k.  Scores
    are >= 0, so the scan stops at the first score of exactly 0.0: no
    later k can beat it, and a constant path, whose every k stays a
    candidate, costs one re-score.
    """
    ceiling = np.min(fast + bound)
    candidates = np.flatnonzero(~(fast - bound > ceiling))
    best_k, best_score = None, np.inf
    for j in candidates.tolist():
        k = start + j
        m = k - 1                      # number of summands i = 2..k
        score = float(weights[:m] @ np.abs(seg[:m] - med[j])) / k
        if score < best_score:
            best_k, best_score = k, score
            if score == 0.0:
                break
    return int(best_k)


def estimate_gamma2(sample: TruncatedSample, theta: float = 0.3) -> tuple[float, int]:
    """(gamma2_hat, k2): Hill estimate of the truncation tail index from the y's.

    k2 is chosen by select_k_dispersion over its default scan range;
    hill(sample.y, k) gives the estimate at a fixed k.
    """
    path = hill_path(sample.y)
    k2 = select_k_dispersion(path, theta)
    return float(path[k2]), int(k2)


def full_report(sample: TruncatedSample, k: int | None = None,
                variant: str = WOODROOFE, theta: float = 0.3,
                level: float | None = 0.95) -> TailIndexEstimate:
    """Estimate gamma1 with automatic threshold choice and plug-ins.

    When k is omitted the dispersion criterion picks it; the estimate
    keeps the whole path as `path`, so no caller need refit it.  A gamma2
    plug-in and confidence interval are attached when the data allow;
    a truncation tail estimated at or below gamma1_hat is recorded as
    a model-violation warning and the interval is refused rather than
    reporting an invalid variance.  An interval reaching down to 0 or
    below is kept as computed and named in a warning.  Pass level=None
    to skip the interval; any other level is checked before fitting.
    """
    if level is not None:
        _interval_z(level)
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
    except DegenerateTailError as exc:
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
        if est.ci.lower <= 0:
            est.warnings.append(
                f"interval lower bound {est.ci.lower:.6g} <= 0 lies outside the "
                "domain of a tail index; it is reported unclipped"
            )
    except ModelViolationError as exc:
        est.warnings.append(f"confidence interval refused: {exc}")
    return est
