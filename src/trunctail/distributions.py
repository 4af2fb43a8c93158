"""The Burr model, the one marginal family of the package.

Burr(delta, gamma) has survival (1 + x^(1/delta))^(-delta/gamma) on
x >= 0.  It is regularly varying at infinity with index -1/gamma, the
only property the estimators downstream rely on; the shape delta sets
the second-order approach to the pure power law, and Pareto on
[1, inf) is its delta -> 0 limit.

Numerics: survival/df/quantile are written with log1p/expm1 so that
round-trips hold to ~1e-12 even near the support boundary.  Where an
intermediate power overflows although the result is a float, its
logarithm takes over: log(x)/delta for log1p(x^(1/delta)) in the
survival, and exp(delta*t) for expm1(t)^delta in the quantile.  There
each equals the plain form's exact value to far below an ulp, since
log1p(y) = log(y) + log1p(1/y) and expm1(t) = e^t (1 - e^-t); elsewhere
the plain expressions run unchanged, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .seeding import derive_rng

__all__ = [
    "HeavyTailModel",
    "burr",
]


def _scalar_like(result, x):
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class HeavyTailModel:
    """Burr model with survival (1 + x^(1/delta))^(-delta/tail_index).

    Attributes:
        tail_index: extreme value index gamma > 0 of the survival
            function, i.e. survival is regularly varying with index
            -1/gamma.
        delta: Burr shape parameter, > 0.
    """

    tail_index: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.tail_index) and self.tail_index > 0):
            raise ValueError("tail_index must be finite and > 0")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and > 0")

    def _log_survival(self, x):
        """log P(X > x) for a scalar or array x >= 0."""
        xa = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xa)):
            raise ValueError("x must be finite")
        if np.any(xa < 0.0):
            raise ValueError("x must be >= 0")
        d = self.delta
        with np.errstate(over="ignore", divide="ignore"):
            power = xa ** (1.0 / d)
            log1p_power = np.where(np.isinf(power), np.log(xa) / d, np.log1p(power))
        return (-d / self.tail_index) * log1p_power

    def survival(self, x):
        """P(X > x).  Accepts a scalar or array, x >= 0."""
        return _scalar_like(np.exp(self._log_survival(x)), x)

    def df(self, x):
        """P(X <= x).  Accepts a scalar or array, x >= 0."""
        return _scalar_like(-np.expm1(self._log_survival(x)), x)

    def quantile(self, u):
        """Inverse df: the unique x with df(x) = u, for u in (0, 1).

        A quantile above the largest float reads inf.
        """
        ua = np.asarray(u, dtype=float)
        if not ((ua > 0.0) & (ua < 1.0)).all():   # NaN fails both comparisons
            raise ValueError("u must lie strictly inside (0, 1)")
        return _scalar_like(self._quantile(ua), u)

    def _quantile(self, ua):
        """quantile of an array of u already known to lie in (0, 1)."""
        d = self.delta
        with np.errstate(over="ignore"):
            t = (-self.tail_index / d) * np.log1p(-ua)
            out = np.expm1(t) ** d
            if np.isinf(out).any():   # rare, so only then pay for exp(delta*t)
                out = np.where(np.isinf(out), np.exp(d * t), out)
        return out

    def sample(self, count: int, seed: int, *tags: int) -> np.ndarray:
        """Draw count iid values by inverting uniforms from derive_rng(seed, *tags).

        The uniforms are multiples of 2^-53 on the open interval (0, 1),
        so the quantile is always defined.  Identical (count, seed, tags)
        give identical output.

        Raises:
            NumericError: if a draw lies above the largest float.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        u = derive_rng(seed, *tags).integers(1, 1 << 53, size=count) / float(1 << 53)
        out = self._quantile(u)
        if np.isinf(out).any():
            raise NumericError(f"{self} drew a value above the largest float")
        return out


def burr(delta: float, tail_index: float) -> HeavyTailModel:
    """Burr model with survival (1 + x^(1/delta))^(-delta/tail_index)."""
    return HeavyTailModel(tail_index, delta)
