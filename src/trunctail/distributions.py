"""Heavy-tailed marginal models: Burr and Pareto.

Both families have survival functions that are regularly varying at
infinity with index -1/tail_index, which is the only property the
estimators downstream rely on.  The Burr family additionally exposes a
shape parameter delta controlling the second-order approach to the
pure power law.

Numerics: survival/df/quantile are written with log1p/expm1 so that
round-trips hold to ~1e-12 even near the support boundary.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

__all__ = [
    "HeavyTailModel",
    "burr",
    "pareto",
]

_FAMILIES = ("burr", "pareto")


def _as_array(x, name, lower=0.0):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < lower):
        raise ValueError(f"{name} must be >= {lower}")
    return arr


def _scalar_like(result, x):
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class HeavyTailModel:
    """A heavy-tailed distribution with tail index tail_index > 0.

    Attributes:
        family: "burr" or "pareto".
        tail_index: extreme value index gamma > 0 of the survival
            function, i.e. survival is regularly varying with index
            -1/gamma.
        delta: Burr shape parameter (> 0); None for Pareto.
    """

    family: str
    tail_index: float
    delta: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (np.isfinite(self.tail_index) and self.tail_index > 0):
            raise ValueError("tail_index must be finite and > 0")
        if self.family == "burr":
            if self.delta is None or not (np.isfinite(self.delta) and self.delta > 0):
                raise ValueError("burr requires delta > 0")
        elif self.delta is not None:
            raise ValueError(f"{self.family} takes no delta parameter")

    def survival(self, x):
        """P(X > x).  Accepts a scalar or array, x >= 0."""
        xa = _as_array(x, "x")
        g = self.tail_index
        if self.family == "burr":
            d = self.delta
            out = np.exp((-d / g) * np.log1p(xa ** (1.0 / d)))
        else:
            out = np.where(xa < 1.0, 1.0, np.power(np.maximum(xa, 1.0), -1.0 / g))
        return _scalar_like(out, x)

    def df(self, x):
        """P(X <= x).  Accepts a scalar or array, x >= 0."""
        xa = _as_array(x, "x")
        g = self.tail_index
        if self.family == "burr":
            d = self.delta
            out = -np.expm1((-d / g) * np.log1p(xa ** (1.0 / d)))
        else:
            with np.errstate(divide="ignore"):
                out = np.where(xa < 1.0, 0.0, -np.expm1((-1.0 / g) * np.log(np.maximum(xa, 1.0))))
        return _scalar_like(out, x)

    def quantile(self, u):
        """Inverse df: the unique x with df(x) = u, for u in (0, 1)."""
        ua = np.asarray(u, dtype=float)
        if not ((ua > 0.0) & (ua < 1.0)).all():   # NaN fails both comparisons
            raise ValueError("u must lie strictly inside (0, 1)")
        g = self.tail_index
        if self.family == "burr":
            d = self.delta
            out = np.expm1((-g / d) * np.log1p(-ua)) ** d
        else:
            out = np.exp(-g * np.log1p(-ua))
        return _scalar_like(out, u)

    def sample(self, count: int, seed: int, *tags: int) -> np.ndarray:
        """Draw count iid values by inverting uniforms from derive_rng(seed, *tags).

        The uniforms are multiples of 2^-53 on the open interval (0, 1),
        so the quantile is always defined.  Identical (count, seed, tags)
        give identical output.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        u = derive_rng(seed, *tags).integers(1, 1 << 53, size=count) / float(1 << 53)
        return self.quantile(u)


def burr(delta: float, tail_index: float) -> HeavyTailModel:
    """Burr model with survival (1 + x^(1/delta))^(-delta/tail_index)."""
    return HeavyTailModel("burr", tail_index, delta)


def pareto(tail_index: float) -> HeavyTailModel:
    """Pareto model with survival x^(-1/tail_index) on [1, inf)."""
    return HeavyTailModel("pareto", tail_index)
