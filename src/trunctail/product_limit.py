"""Product-limit estimation of the truncated target distribution.

Under random right truncation the empirical df of the observed x's is
biased; the product-limit estimator corrects it using the coverage
process C_n(z) = n^-1 #{i: x_i <= z <= y_i}.  Two variants are
provided:

    woodroofe:   df(x) = prod_{atoms a > x} exp(-1 / (n C_n(a)))
    lynden-bell: df(x) = prod_{atoms a > x} (1 - 1 / (n C_n(a)))

The Woodroofe form satisfies df = exp(-hazard) exactly, where hazard
is the cumulative sum of 1/(n C_n) over atoms above x; it is the
package default.  The Lynden-Bell form reproduces the plain empirical
df exactly on complete (untruncated) data; a factor can reach zero
when an atom is covered only by its own pair, which zeroes the df
below that atom (documented behaviour, not an error).

Ties in x are broken by stable input order and contribute one factor
per atom, matching the limit of an infinitesimal jitter.  Evaluation
is right-continuous: the df at an atom includes that atom's own jump.
All queries run in O(log n) after an O(n log n) fit via precomputed
suffix arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTailError
from .truncation import TruncatedSample

__all__ = [
    "WOODROOFE",
    "LYNDEN_BELL",
    "ProductLimitFit",
    "fit_product_limit",
    "tail_process",
]

WOODROOFE = "woodroofe"
LYNDEN_BELL = "lynden-bell"
_VARIANTS = (WOODROOFE, LYNDEN_BELL)


@dataclass
class ProductLimitFit:
    """Fitted product-limit estimator.

    Attributes:
        variant: "woodroofe" or "lynden-bell".
        n: number of observed pairs.
        atoms: observed x's in ascending order (stable under ties).
        coverage: C_n evaluated at each atom.
        df_at_atoms: df value at each atom, own jump included; for tied
            atoms these follow the per-atom jitter order.
    """

    variant: str
    n: int
    atoms: np.ndarray
    coverage: np.ndarray
    _suffix_df: np.ndarray  # _suffix_df[j] = prod of factors for atoms >= j

    @property
    def df_at_atoms(self) -> np.ndarray:
        return self._suffix_df[1:]

    def df(self, x):
        """P-hat(X <= x), right-continuous in x.  Scalar or array."""
        idx = np.searchsorted(self.atoms, x, side="right")
        out = self._suffix_df[idx]
        return float(out) if np.ndim(x) == 0 else out

    def survival(self, x):
        """1 - df(x).  Scalar or array."""
        return 1.0 - self.df(x)


def fit_product_limit(sample: TruncatedSample, variant: str = WOODROOFE) -> ProductLimitFit:
    """Fit the product-limit df to an observed truncated sample.

    Args:
        sample: observed pairs.
        variant: "woodroofe" (default) or "lynden-bell".
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = sample.n
    order = sample.x.argsort(kind="stable")
    xs = sample.x[order]
    ys = np.sort(sample.y)
    # n*C_n at each atom: #{x_i <= a} - #{y_i < a}; always >= 1 (own pair)
    counts = (xs.searchsorted(xs, side="right")
              - ys.searchsorted(xs, side="left")).astype(float)
    hazard_terms = 1.0 / counts
    if variant == WOODROOFE:
        suffix_hazard = np.zeros(n + 1)
        suffix_hazard[:n] = hazard_terms[::-1].cumsum()[::-1]
        suffix_df = np.exp(-suffix_hazard)
    else:
        suffix_df = np.ones(n + 1)
        suffix_df[:n] = np.cumprod((1.0 - hazard_terms)[::-1])[::-1]
    return ProductLimitFit(
        variant=variant,
        n=n,
        atoms=xs,
        coverage=counts / n,
        _suffix_df=suffix_df,
    )


def tail_process(fit: ProductLimitFit, k: int, gamma1: float, grid) -> np.ndarray:
    """Scaled tail ratio of the fitted survival against a pure power law.

    For threshold t = (k+1)-th largest atom, computes

        D(x) = sqrt(k) * (survival(x t) / survival(t) - x^(-1/gamma1))

    Args:
        fit: fitted product-limit estimator.
        k: number of tail order statistics, 1 < k < n.
        gamma1: candidate tail index, > 0.
        grid: evaluation points x >= x0 > 0.

    Returns:
        Array of shape (len(grid), 2) with rows (x, D(x)).

    Raises:
        DegenerateTailError: if the fitted survival vanishes at the
            threshold, which leaves the ratio undefined.
    """
    n = fit.n
    if not 1 < k < n:
        raise ValueError(f"k must satisfy 1 < k < n, got k={k}, n={n}")
    if not (np.isfinite(gamma1) and gamma1 > 0):
        raise ValueError("gamma1 must be > 0")
    xg = np.asarray(grid, dtype=float)
    if xg.ndim != 1 or xg.size == 0 or np.any(~np.isfinite(xg)) or np.any(xg <= 0):
        raise ValueError("grid must be a 1-d array of positive reals")
    threshold = fit.atoms[n - k - 1]
    denom = fit.survival(threshold)
    if denom <= 0.0:
        raise DegenerateTailError("fitted survival vanishes at the tail threshold")
    ratio = fit.survival(xg * threshold) / denom
    d = np.sqrt(k) * (ratio - xg ** (-1.0 / gamma1))
    return np.column_stack((xg, d))
