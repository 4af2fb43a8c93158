"""Random right truncation of one heavy-tailed variable by another.

A target variable X with marginal F and an independent truncation
variable Y with marginal G are observed only on the event X <= Y.
This module computes the truncation probability p = P(X <= Y), the
survivals of the observed pair, the coverage function
C(z) = F_obs(z) - G_obs(z), and draws observed samples.

The two marginals share a family: two Burr marginals with one delta,
or two Pareto marginals.  Then Gbar = Fbar^c with c = gamma1/gamma2,
and every quantity above is a product of F, Fbar and Gbar in closed
form.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import HeavyTailModel
from .errors import EmptySampleError

__all__ = [
    "TruncatedSample",
    "TruncationModel",
    "gamma2_for_target_p",
]

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
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.x.size == 0:
            raise EmptySampleError("sample contains no pairs")
        bad = ~(np.isfinite(self.x) & np.isfinite(self.y))
        if bad.any():
            raise ValueError(f"non-finite value at data row(s) {_data_rows(bad)}")
        bad = self.x > self.y
        if bad.any():
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
        """Read pairs from a CSV file with header x,y, after a UTF-8 byte-order mark if any."""
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            return cls.read_csv(fh)

    @classmethod
    def read_csv(cls, fh) -> "TruncatedSample":
        """Read pairs from a text handle at a header line x,y.

        On a seekable handle whose first line is exactly x,y, numpy's C
        reader parses the rows.  A body it refuses, a table that is not
        n x 2 and any other header or handle go to _read_csv_rows, from
        the start: that reader also takes underscored and non-ASCII
        digits, and names the first bad data row.  So the pairs, to the
        bit (both convert with PyOS_string_to_double), or the ValueError
        are that reader's.
        """
        if fh.seekable():
            start = fh.tell()
            if fh.readline().rstrip("\r\n") == "x,y":
                try:
                    with warnings.catch_warnings():
                        # an empty body fails the shape check below instead
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                                UserWarning)
                        xy = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                        ndmin=2, dtype=float)
                except ValueError:
                    pass
                else:
                    if xy.shape[0] >= 1 and xy.shape[1] == 2:
                        x, y = xy.T.copy()
                        return cls(x, y)
            fh.seek(start)
        return cls._read_csv_rows(fh)

    @classmethod
    def _read_csv_rows(cls, fh) -> "TruncatedSample":
        """read_csv by the csv module's reader, which names the first bad data row."""
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV: expected header x,y") from None
        except csv.Error as exc:
            raise ValueError(f"bad CSV header: {exc}") from None
        if [h.strip() for h in header] != ["x", "y"]:
            raise ValueError(f"bad CSV header {header!r}: expected x,y")
        xs, ys = [], []
        lineno = 0
        # blank lines are skipped and not counted, as in _data_rows
        try:
            for lineno, row in enumerate(filter(None, reader), start=1):
                if len(row) != 2:
                    raise ValueError(f"data row {lineno}: expected two columns")
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                except ValueError:
                    raise ValueError(f"data row {lineno}: non-numeric value") from None
        except csv.Error as exc:   # raised reading the row after the last one counted
            raise ValueError(f"data row {lineno + 1}: {exc}") from None
        if not xs:
            raise ValueError("CSV contains no data rows")
        return cls(np.array(xs), np.array(ys))


@dataclass
class TruncationModel:
    """Pair of marginal models defining the truncation experiment.

    Attributes:
        f_model: marginal of the target variable X (tail index gamma1).
        g_model: marginal of the truncation variable Y (tail index gamma2).

    The marginals must be two Burr models with one delta or two Pareto
    models; any other pair is a ValueError.  The tail theory downstream
    needs gamma1 < gamma2; constructing a model without that property
    emits a warning rather than an error so boundary behaviour stays
    explorable.
    """

    f_model: HeavyTailModel
    g_model: HeavyTailModel

    def __post_init__(self):
        f, g = self.f_model, self.g_model
        if not (f.family == g.family and f.delta == g.delta):
            raise ValueError(
                "truncation model needs two Burr marginals with one delta or two "
                f"Pareto marginals, got {f} and {g}"
            )
        if f.tail_index >= g.tail_index:
            warnings.warn(
                "truncation tail is not lighter than the target tail "
                f"(gamma1={f.tail_index} >= gamma2={g.tail_index}); "
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

    @property
    def p(self) -> float:
        """p = P(X <= Y) = gamma2/(gamma1+gamma2) for independent X ~ F, Y ~ G."""
        return self.gamma2 / (self.gamma1 + self.gamma2)

    def observed_survivals(self, x):
        """Survivals of the observed pair, and its coverage, at x >= 0.

        Returns:
            (Fbar_obs(x), Gbar_obs(x), C(x)): the survivals of the
            observed target and truncation values, Fbar*Gbar and
            Gbar*(1 + c*F), and the coverage function
            C = P(X <= x <= Y | X <= Y) = (1 + c)*F*Gbar, where
            c = gamma1/gamma2.  None is computed as 1 minus a df, so
            deep-tail values keep their relative precision.
        """
        c = self.gamma1 / self.gamma2
        f_df = self.f_model.df(x)
        f_bar, g_bar = self.f_model.survival(x), self.g_model.survival(x)
        return f_bar * g_bar, g_bar * (1.0 + c * f_df), (1.0 + c) * f_df * g_bar

    def sample(self, big_n: int, seed: int) -> TruncatedSample:
        """Generate big_n independent pairs and keep those with x <= y.

        Each coordinate is drawn by its marginal's sample(big_n, seed,
        purpose), so the same seed always reproduces the same sample.

        Raises:
            EmptySampleError: if every pair is rejected.
        """
        if big_n < 1:
            raise ValueError("big_n must be >= 1")
        x = self.f_model.sample(big_n, seed, _TAG_TARGET)
        y = self.g_model.sample(big_n, seed, _TAG_TRUNCATOR)
        keep = x <= y
        if not keep.any():
            raise EmptySampleError(f"all {big_n} generated pairs were rejected by truncation")
        return TruncatedSample(x[keep], y[keep])


def gamma2_for_target_p(gamma1: float, p: float) -> float:
    """Truncation tail index giving truncation probability p.

    Inverts TruncationModel.p = gamma2/(gamma1+gamma2), exact for every
    model the class accepts.

    Args:
        gamma1: target tail index, > 0.
        p: desired probability of keeping a pair, in (0, 1).
    """
    if not (np.isfinite(gamma1) and gamma1 > 0):
        raise ValueError("gamma1 must be > 0")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    return p * gamma1 / (1.0 - p)
