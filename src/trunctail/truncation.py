"""Random right truncation of one heavy-tailed variable by another.

A target variable X with marginal F and an independent truncation
variable Y with marginal G are observed only on the event X <= Y.
This module computes the truncation probability p = P(X <= Y), the
marginals F and G of the observed pair, the coverage function
C(z) = F(z) - G(z), and draws observed samples.

Quadrature note: the defining integrals are taken to the probability
scale (substituting u = F(z) or v = G(z)), which maps each improper
tail integral onto (0, 1) with a bounded smooth integrand; adaptive
Gauss-Kronrod then converges quickly with no tail cutoff to choose.
scipy.integrate is imported by the first quadrature, not with the
module: same-family models have a closed-form p and never need it.
"""

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import HeavyTailModel
from .errors import EmptySampleError, NumericError

__all__ = [
    "TruncatedSample",
    "TruncationModel",
    "gamma2_for_target_p",
]

_QUAD_RTOL = 1e-8
_TAG_TARGET, _TAG_TRUNCATOR = 1, 2


def _data_rows(mask: np.ndarray) -> str:
    """The 1-based data rows where mask holds, the first 20 of them."""
    return ", ".join(str(i + 1) for i in np.flatnonzero(mask)[:20].tolist())


@dataclass
class TruncatedSample:
    """Observed pairs (x_i, y_i) with x_i <= y_i for every i.

    Attributes:
        x: observed target values, shape (n,).
        y: observed truncation values, shape (n,).
        big_n: number of pairs generated before truncation, if known.
        seed: seed used to generate the sample, if known.
    """

    x: np.ndarray
    y: np.ndarray
    big_n: int | None = None
    seed: int | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.x.size == 0:
            raise EmptySampleError("sample contains no pairs")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("sample values must be finite")
        bad = self.x > self.y
        if np.any(bad):
            raise ValueError(f"x > y at data row(s) {_data_rows(bad)}")

    @property
    def n(self) -> int:
        return int(self.x.size)

    def to_csv(self, path) -> None:
        """Write the pairs as CSV with header x,y at full precision."""
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y"])
        for xi, yi in zip(self.x, self.y):
            writer.writerow([repr(float(xi)), repr(float(yi))])

    @classmethod
    def from_csv(cls, path) -> "TruncatedSample":
        """Read pairs from a CSV file with header x,y."""
        with open(path, "r", newline="") as fh:
            return cls.read_csv(fh)

    @classmethod
    def read_csv(cls, fh) -> "TruncatedSample":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV: expected header x,y") from None
        if [h.strip() for h in header] != ["x", "y"]:
            raise ValueError(f"bad CSV header {header!r}: expected x,y")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"data row {lineno}: expected two columns")
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError:
                raise ValueError(f"data row {lineno}: non-numeric value") from None
        if not xs:
            raise ValueError("CSV contains no data rows")
        return cls(np.array(xs), np.array(ys))


def _quad(fun, lo, hi, what):
    from scipy import integrate

    with warnings.catch_warnings():
        # the abserr check below is the convergence guard; QUADPACK's own
        # roundoff chatter on extreme-tail slivers is not actionable
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(fun, lo, hi, epsabs=0.0,
                                       epsrel=_QUAD_RTOL, limit=200)
    if not np.isfinite(value) or abserr > 10 * _QUAD_RTOL * max(abs(value), 1e-12):
        raise NumericError(
            f"quadrature for {what} did not converge "
            f"(value={value!r}, abserr={abserr!r})"
        )
    return value


@dataclass
class TruncationModel:
    """Pair of marginal models defining the truncation experiment.

    Attributes:
        f_model: marginal of the target variable X (tail index gamma1).
        g_model: marginal of the truncation variable Y (tail index gamma2).

    The tail theory downstream needs gamma1 < gamma2; constructing a
    model without that property emits a warning rather than an error so
    boundary behaviour stays explorable.
    """

    f_model: HeavyTailModel
    g_model: HeavyTailModel

    def __post_init__(self):
        if self.f_model.tail_index >= self.g_model.tail_index:
            warnings.warn(
                "truncation tail is not lighter than the target tail "
                f"(gamma1={self.f_model.tail_index} >= gamma2={self.g_model.tail_index}); "
                "limit theory does not apply",
                stacklevel=3,   # past the dataclass-generated __init__
            )

    @property
    def gamma1(self) -> float:
        return self.f_model.tail_index

    @property
    def gamma2(self) -> float:
        return self.g_model.tail_index

    @property
    def observed_tail_index(self) -> float:
        """Tail index of the observed target marginal: g1*g2/(g1+g2)."""
        g1, g2 = self.gamma1, self.gamma2
        return g1 * g2 / (g1 + g2)

    def _has_closed_form_p(self) -> bool:
        f, g = self.f_model, self.g_model
        if f.family == "pareto" and g.family == "pareto":
            return True
        return f.family == "burr" and g.family == "burr" and f.delta == g.delta

    def truncation_probability(self, method: str = "auto") -> float:
        """p = P(X <= Y) for independent X ~ F, Y ~ G.

        Args:
            method: "closed" forces the closed form (available when the
                two marginals share a family and, for Burr, a delta, in
                which case p = gamma2/(gamma1+gamma2)); "quadrature"
                forces numeric integration of P(X <= Y) = E[F(Y)];
                "auto" picks the closed form when it applies.
        """
        if method not in ("auto", "closed", "quadrature"):
            raise ValueError(f"unknown method {method!r}")
        closed_ok = self._has_closed_form_p()
        if method == "closed" and not closed_ok:
            raise ValueError("no closed form for this model pair")
        if method in ("closed", "auto") and closed_ok:
            return self.gamma2 / (self.gamma1 + self.gamma2)
        fun = lambda v: self.f_model.df(self.g_model.quantile(v))
        return _quad(fun, 0.0, 1.0, "truncation probability")

    @cached_property
    def p(self) -> float:
        return self.truncation_probability()

    def observed_marginals(self, x: float):
        """Marginals of the observed pair at a point.

        Args:
            x: evaluation point, x >= 0.

        Returns:
            (F(x), G(x), C(x)) where F and G are the dfs of the
            observed target and truncation values and C = F - G is the
            coverage function P(X <= x <= Y | X <= Y).
        """
        x = float(x)
        if not (np.isfinite(x) and x >= 0.0):
            raise ValueError("x must be finite and >= 0")
        p = self.p
        f, g = self.f_model, self.g_model
        # quadrature nodes on a sliver [1 - tiny, 1] can round to 1.0
        # exactly, where the quantile is undefined; pull them just inside
        top = np.nextafter(1.0, 0.0)
        # survival of observed X: p^-1 * int_{F(x)}^1 Gbar(QF(u)) du
        fbar = _quad(lambda u: g.survival(f.quantile(min(u, top))), f.df(x), 1.0,
                     "observed target survival") / p
        gbar = _quad(lambda v: f.df(g.quantile(min(v, top))), g.df(x), 1.0,
                     "observed truncation survival") / p
        cov = min(max(gbar - fbar, 0.0), 1.0)
        return 1.0 - fbar, 1.0 - gbar, cov

    def sample(self, big_n: int, seed: int) -> TruncatedSample:
        """Generate big_n independent pairs and keep those with x <= y.

        Streams for the two coordinates derive from (seed, purpose), so
        the same seed always reproduces the same sample.

        Raises:
            EmptySampleError: if every pair is rejected.
        """
        if big_n < 1:
            raise ValueError("big_n must be >= 1")
        from .seeding import derive_rng

        denom = float(1 << 53)
        ux = derive_rng(seed, _TAG_TARGET).integers(1, 1 << 53, size=big_n) / denom
        uy = derive_rng(seed, _TAG_TRUNCATOR).integers(1, 1 << 53, size=big_n) / denom
        x = self.f_model.quantile(ux)
        y = self.g_model.quantile(uy)
        keep = x <= y
        if not np.any(keep):
            raise EmptySampleError(
                f"all {big_n} generated pairs were rejected by truncation"
            )
        return TruncatedSample(x[keep], y[keep], big_n=big_n, seed=seed)


def gamma2_for_target_p(gamma1: float, p: float) -> float:
    """Truncation tail index giving truncation probability p.

    Inverts p = gamma2/(gamma1+gamma2), exact for same-family pairs
    (Pareto/Pareto, or Burr/Burr with a shared delta).

    Args:
        gamma1: target tail index, > 0.
        p: desired probability of keeping a pair, in (0, 1).
    """
    if not (np.isfinite(gamma1) and gamma1 > 0):
        raise ValueError("gamma1 must be > 0")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    return p * gamma1 / (1.0 - p)
