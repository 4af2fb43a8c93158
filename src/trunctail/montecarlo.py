"""Replicated truncation experiments on Burr tails.

A study cell fixes (p, gamma1, delta, N): the truncation tail index is
solved from the target probability p, N pairs are generated, the
truncated sample is estimated with an automatically selected
threshold, and bias/rmse aggregate over replicates.

Reproducibility contract: every replicate's RNG stream is keyed on
content - a stable hash of (master seed, cell parameters, replicate
index) - so a row's numbers never depend on cell order, worker count
or execution order.  Aggregation uses exact summation (math.fsum),
which is associative in effect, so parallel runs are byte-identical to
sequential ones.  Replicates run on seeding._map, the package's one
executor.
"""

import csv
import io
import json
import math
from dataclasses import astuple, dataclass

from .distributions import burr
from .errors import DegenerateTailError, EmptySampleError
from .product_limit import _VARIANTS, WOODROOFE
from .seeding import _map, stable_key
from .tail_index import gamma1_estimate
from .truncation import TruncationModel, gamma2_for_target_p

__all__ = [
    "CellSpec",
    "StudyConfig",
    "StudyReport",
    "StudyRow",
    "run_cell",
    "run_study",
]

_MIN_OBSERVED = 10
CSV_HEADER = ["p", "gamma1", "N", "mean_n", "mean_k_star", "abs_bias", "rmse", "completed"]


def _is_number(value, kind=(int, float)) -> bool:
    """A JSON number of that kind: true and false are Python ints but not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class CellSpec:
    """One parameter combination of the study grid.

    Attributes:
        p: target truncation probability in (0, 1).
        gamma1: target tail index.
        delta: Burr shape parameter shared by both marginals.
        sizes: pre-truncation sample sizes N to run.
    """

    p: float
    gamma1: float
    delta: float
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class StudyConfig:
    cells: tuple[CellSpec, ...]
    replicates: int
    variant: str = WOODROOFE
    theta: float = 0.3
    master_seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        """Build a config from parsed JSON, with pointer diagnostics."""
        def fail(pointer, message):
            raise ValueError(f"config error at {pointer}: {message}")

        if not isinstance(data, dict):
            fail("", "top level must be an object")
        unknown = set(data) - {"cells", "replicates", "variant", "theta", "master_seed"}
        if unknown:
            fail("", f"unknown key(s) {sorted(unknown)}")
        cells_raw = data.get("cells")
        if not isinstance(cells_raw, list) or not cells_raw:
            fail("/cells", "must be a non-empty array")
        cells = []
        for idx, cell in enumerate(cells_raw):
            where = f"/cells/{idx}"
            if not isinstance(cell, dict):
                fail(where, "must be an object")
            extra = set(cell) - {"p", "gamma1", "delta", "N"}
            if extra:
                fail(where, f"unknown key(s) {sorted(extra)}")
            p = cell.get("p")
            if not _is_number(p) or not 0.0 < p < 1.0:
                fail(f"{where}/p", "must be a number in (0, 1)")
            g1 = cell.get("gamma1")
            if not _is_number(g1) or g1 <= 0:
                fail(f"{where}/gamma1", "must be a positive number")
            delta = cell.get("delta", 0.25)
            if not _is_number(delta) or delta <= 0:
                fail(f"{where}/delta", "must be a positive number")
            sizes_raw = cell.get("N")
            if _is_number(sizes_raw, int):
                sizes_raw = [sizes_raw]
            if not isinstance(sizes_raw, list) or not sizes_raw:
                fail(f"{where}/N", "must be an integer or non-empty array of integers")
            for j, size in enumerate(sizes_raw):
                if not _is_number(size, int) or size < 2:
                    fail(f"{where}/N/{j}", "must be an integer >= 2")
            cells.append(CellSpec(float(p), float(g1), float(delta), tuple(sizes_raw)))
        replicates = data.get("replicates")
        if not _is_number(replicates, int) or replicates < 1:
            fail("/replicates", "must be an integer >= 1")
        variant = data.get("variant", WOODROOFE)
        if variant not in _VARIANTS:
            fail("/variant", f"must be one of {list(_VARIANTS)}")
        theta = data.get("theta", 0.3)
        if not _is_number(theta) or not 0.0 <= theta <= 0.5:
            fail("/theta", "must be a number in [0, 0.5]")
        master_seed = data.get("master_seed", 0)
        if not _is_number(master_seed, int):
            fail("/master_seed", "must be an integer")
        return cls(tuple(cells), replicates, variant, float(theta), master_seed)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "cells": [
                {"p": c.p, "gamma1": c.gamma1, "delta": c.delta, "N": list(c.sizes)}
                for c in self.cells
            ],
            "replicates": self.replicates,
            "variant": self.variant,
            "theta": self.theta,
            "master_seed": self.master_seed,
        }


@dataclass(frozen=True)
class StudyRow:
    """Aggregates for one (p, gamma1, N) combination, in CSV_HEADER order."""

    p: float
    gamma1: float
    big_n: int
    mean_n: float
    mean_k_star: float
    abs_bias: float
    rmse: float
    completed: int

    def to_dict(self) -> dict:
        return dict(zip(CSV_HEADER, astuple(self)))


@dataclass(frozen=True)
class StudyReport:
    rows: tuple[StudyRow, ...]

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(map(astuple, self.rows))   # floats are written by repr
        return out.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows]}


def _model(p: float, gamma1: float, delta: float) -> TruncationModel:
    """Burr(delta) target and truncation marginals with truncation probability p."""
    return TruncationModel(burr(delta, gamma1), burr(delta, gamma2_for_target_p(gamma1, p)))


def _run_replicate(args) -> tuple[int, int, float] | None:
    """One (model, N, variant, theta, seed) task: (n, k_star, gamma1_hat), None if degenerate."""
    model, big_n, variant, theta, rep_seed = args
    try:
        sample = model.sample(big_n, rep_seed)
    except EmptySampleError:
        return None
    if sample.n < _MIN_OBSERVED:
        return None
    est = gamma1_estimate(sample, variant=variant, theta=theta)
    return sample.n, est.k, est.gamma1_hat


def run_cell(p: float, gamma1: float, delta: float, big_n: int, replicates: int,
             variant: str = WOODROOFE, theta: float = 0.3, seed: int = 0,
             workers: int = 1) -> StudyRow:
    """Run one study cell and aggregate bias and rmse.

    Replicates with fewer than 10 observed pairs are dropped and only
    counted; if every replicate degenerates the cell raises.

    Args:
        p: target truncation probability.
        gamma1: target tail index.
        delta: Burr shape of both marginals.
        big_n: pairs generated per replicate before truncation.
        replicates: number of replicates.
        variant: product-limit variant for estimation.
        theta: window weight exponent for threshold selection.
        seed: cell-level seed; replicate r uses the content key
            (seed, r).
        workers: processes to run on, the calling one included, capped
            at the cores this process may use (at 1 without os.fork);
            any value yields identical output.
    """
    return _run_cells([(p, gamma1, _model(p, gamma1, delta), big_n, seed)],
                      replicates, variant, theta, workers)[0]


def _run_cells(cells, replicates: int, variant: str, theta: float,
               workers: int) -> list[StudyRow]:
    """Run every (p, gamma1, model, N, seed) cell; the replicates of all
    cells share their cell's model and form one task list for seeding._map."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    tasks = [
        (model, big_n, variant, theta, stable_key("replicate", seed, r))
        for _, _, model, big_n, seed in cells
        for r in range(replicates)
    ]
    results = _map(_run_replicate, tasks, workers)
    rows = []
    for index, (p, gamma1, _, big_n, _) in enumerate(cells):
        kept = [r for r in results[index * replicates:(index + 1) * replicates]
                if r is not None]
        if not kept:
            raise DegenerateTailError(
                f"all {replicates} replicates degenerate in cell "
                f"(p={p}, gamma1={gamma1}, N={big_n})"
            )
        count = len(kept)
        mean_n = math.fsum(r[0] for r in kept) / count
        mean_k = math.fsum(r[1] for r in kept) / count
        mean_g = math.fsum(r[2] for r in kept) / count
        rmse = math.sqrt(math.fsum((r[2] - gamma1) ** 2 for r in kept) / count)
        rows.append(StudyRow(
            p=p, gamma1=gamma1, big_n=big_n,
            mean_n=mean_n, mean_k_star=mean_k,
            abs_bias=abs(mean_g - gamma1), rmse=rmse, completed=count,
        ))
    return rows


def run_study(config: StudyConfig, workers: int = 1) -> StudyReport:
    """Run every cell of the study grid in configured order.

    Cell seeds are content keys of (master_seed, p, gamma1, delta, N),
    so reordering cells permutes rows without changing any number.  Each
    CellSpec's model is built once, here, before any fork.
    """
    cells = [(cell.p, cell.gamma1, model, big_n,
              stable_key("cell", config.master_seed, cell.p, cell.gamma1, cell.delta, big_n))
             for cell in config.cells
             for model in [_model(cell.p, cell.gamma1, cell.delta)]
             for big_n in cell.sizes]
    return StudyReport(tuple(_run_cells(cells, config.replicates, config.variant,
                                        config.theta, workers)))
