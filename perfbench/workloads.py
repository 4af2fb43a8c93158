"""The three benchmark workloads and the per-layer metrics of a traced run.

Every workload is a closed loop with one client: operation i writes its
seeded input (untimed), calls the `trunctail` command-line entry point
`cli.main` in-process (timed), then checks the files it wrote (untimed).
Inputs derive only from (workload, seed, i), and the Burr pairs are drawn
by this file's own numpy code, so the package sees nothing but CSV and
JSON files and a change to its samplers cannot change the inputs.

The traced form of an operation first calls each public layer function
the CLI path goes through, one span per call, then makes the same
`cli.main` call inside a span.  Spans come from this file only; the
package is not instrumented.
"""

import hashlib
import json
import math
import statistics
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from trunctail import (TailIndexEstimate, TruncatedSample, TruncationModel,
                       burr, default_k_max, estimate_gamma2,
                       fit_product_limit, full_report, gamma1_path,
                       gamma2_for_target_p, mc_variance, run_cell,
                       select_k_dispersion, simulate_wiener)
from trunctail import cli
from trunctail.errors import EmptySampleError
from trunctail.seeding import derive_rng, stable_key

from tracing import Tracer

DELTA, GAMMA1, GAMMA2 = 0.25, 0.6, 1.4
THETA = 0.3
P_VALUES = (0.7, 0.9)   # study cells' target observation probabilities
WORKERS = 2             # study --threads
REPORT_KEYS = frozenset(TailIndexEstimate(1.0, 4, "woodroofe", 10).to_dict())


def input_seed(workload: str, seed: int, i: int) -> int:
    digest = hashlib.sha256(f"{workload}|{seed}|{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def burr_pairs(seed: int, big_n: int) -> TruncatedSample:
    """Burr(DELTA; GAMMA1 | GAMMA2) pairs kept when x <= y, by inversion."""
    rng = np.random.default_rng(seed)
    u = rng.integers(1, 1 << 53, size=(2, big_n)) / float(1 << 53)
    x = np.expm1((-GAMMA1 / DELTA) * np.log1p(-u[0])) ** DELTA
    y = np.expm1((-GAMMA2 / DELTA) * np.log1p(-u[1])) ** DELTA
    keep = x <= y
    return TruncatedSample(x[keep], y[keep])


def call_cli(argv: list[str]):
    """Exit status of `trunctail ARGV`, or a description of what escaped."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code!r})"
    except Exception as exc:
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


class Workload:
    """One input stream and the CLI call that consumes it."""

    name = ""
    item = ""          # what items_per_s counts
    outputs: tuple[str, ...] = ()
    defaults: dict = {}
    ok_statuses = (cli.EXIT_OK,)

    def __init__(self, seed: int, workdir: Path, **sizes):
        unknown = set(sizes) - set(self.defaults)
        if unknown:
            raise ValueError(f"{self.name}: unknown size(s) {sorted(unknown)}")
        self.sizes = {**self.defaults, **sizes}
        self.seed = seed
        self.outcomes = Counter()
        self.dir = workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)

    def input_seed(self, i: int) -> int:
        return input_seed(self.name, self.seed, i)

    def clear_outputs(self) -> None:
        """Remove the previous operation's outputs, so a check never reads stale files."""
        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)

    def make_input(self, i: int) -> None:
        """Write operation i's input files."""

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, status: int) -> tuple[int, list[str], bytes]:
        """(items completed, failed checks, output bytes) of operation i."""
        raise NotImplementedError

    def trace_layers(self, i: int, tracer: Tracer) -> None:
        """Call the layers of operation i one by one, each in a span."""
        raise NotImplementedError


class Estimate(Workload):
    """`trunctail estimate FILE --json --trace` over distinct seeded CSVs."""

    name = "estimate"
    item = "files"
    outputs = ("report.json", "trace.csv")
    # A report with gamma2_hat <= gamma1_hat is outside the theory's
    # domain; the CLI still writes it and flags it with this exit status.
    ok_statuses = (cli.EXIT_OK, cli.EXIT_MODEL)
    defaults = {"big_n": 4000}

    def _path(self, i: int) -> Path:
        return self.dir / f"pairs-{i}.csv"

    def make_input(self, i: int) -> None:
        sample = burr_pairs(self.input_seed(i), self.sizes["big_n"])
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(sample.x.tolist(), sample.y.tolist()))
        self._path(i).write_text("x,y\n" + rows)

    def argv(self, i: int) -> list[str]:
        return ["estimate", str(self._path(i)),
                "--json", str(self.dir / "report.json"),
                "--trace", str(self.dir / "trace.csv")]

    def check(self, i: int, status: int):
        report_bytes = (self.dir / "report.json").read_bytes()
        report = json.loads(report_bytes)
        problems = []
        if set(report) != REPORT_KEYS:
            problems.append(f"report keys {sorted(report)}")
        else:
            k_max = default_k_max(report["n"])
            if not 4 <= report["k"] <= k_max:
                problems.append(f"k={report['k']} outside [4, {k_max}]")
            g1, g2 = report["gamma1_hat"], report["gamma2_hat"]
            violated = g2 is not None and g2 <= g1
            if violated:
                self.outcomes["model_violation"] += 1
            if g2 is None or violated != (status == cli.EXIT_MODEL):
                problems.append(f"exit status {status} with gamma1_hat={g1}, gamma2_hat={g2}")
        return 1, problems, report_bytes + (self.dir / "trace.csv").read_bytes()

    def trace_layers(self, i: int, tracer: Tracer) -> None:
        with tracer.span("truncation.read_csv"):
            sample = TruncatedSample.from_csv(self._path(i))
        with tracer.span("product_limit.fit"):
            fit_product_limit(sample)
        with tracer.span("tail_index.gamma1_path"):
            path = gamma1_path(sample)
        k_max = default_k_max(sample.n)
        with tracer.span("tail_index.select_k") as span:
            select_k_dispersion(path, THETA, 2, k_max)
        span.counts["candidates"] = k_max - 3
        with tracer.span("tail_index.estimate_gamma2"):
            estimate_gamma2(sample, theta=THETA)
        with tracer.span("tail_index.full_report"):
            full_report(sample, theta=THETA)


class Study(Workload):
    """`trunctail simulate --config --threads W` over distinct master seeds."""

    name = "study"
    item = "replicates"
    outputs = ("study.csv", "study.json")
    defaults = {"big_n": (300, 1000), "replicates": 12}

    def _config(self, i: int) -> Path:
        return self.dir / f"config-{i}.json"

    def _cells(self):
        return [{"p": p, "gamma1": GAMMA1, "delta": DELTA, "N": list(self.sizes["big_n"])}
                for p in P_VALUES]

    def make_input(self, i: int) -> None:
        config = {"cells": self._cells(), "replicates": self.sizes["replicates"],
                  "variant": "woodroofe", "theta": THETA,
                  "master_seed": self.input_seed(i)}
        self._config(i).write_text(json.dumps(config))

    def argv(self, i: int) -> list[str]:
        return ["simulate", "--config", str(self._config(i)),
                "--threads", str(WORKERS), "--out", str(self.dir / "study")]

    def check(self, i: int, status: int):
        json_bytes = (self.dir / "study.json").read_bytes()
        rows = json.loads(json_bytes)["rows"]
        reps = self.sizes["replicates"]
        expected = len(P_VALUES) * len(self.sizes["big_n"])
        problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
        problems += [f"row N={r['N']} p={r['p']}: completed {r['completed']} of {reps}"
                     for r in rows if r["completed"] != reps]
        done = sum(r["completed"] for r in rows)
        return done, problems, (self.dir / "study.csv").read_bytes() + json_bytes

    def trace_layers(self, i: int, tracer: Tracer) -> None:
        """Mirror run_study: each cell through run_cell, then its replicates serially."""
        reps = self.sizes["replicates"]
        master = self.input_seed(i)
        for cell in self._cells():
            p = cell["p"]
            gamma2 = gamma2_for_target_p(GAMMA1, p)
            model = TruncationModel(burr(DELTA, GAMMA1), burr(DELTA, gamma2))
            for big_n in cell["N"]:
                cell_seed = stable_key("cell", master, p, GAMMA1, DELTA, big_n)
                with tracer.span("montecarlo.cell") as cell_span:
                    with tracer.span("montecarlo.run_cell"):
                        row = run_cell(p, GAMMA1, DELTA, big_n, reps, theta=THETA,
                                       seed=cell_seed, workers=WORKERS)
                    for r in range(reps):
                        self._replicate(model, big_n, stable_key("replicate", cell_seed, r), tracer)
                cell_span.counts["dropped"] = reps - row.completed

    @staticmethod
    def _replicate(model, big_n: int, rep_seed: int, tracer: Tracer) -> None:
        """The steps of montecarlo._run_replicate, plus one quantile call on N uniforms."""
        uniforms = np.random.default_rng(rep_seed).integers(1, 1 << 53, size=big_n) / float(1 << 53)
        with tracer.span("distributions.quantile"):
            model.f_model.quantile(uniforms)
        try:
            with tracer.span("truncation.sample") as span:
                sample = model.sample(big_n, rep_seed)
        except EmptySampleError:
            return
        span.counts.update(kept=sample.n, drawn=big_n)
        k_max = default_k_max(sample.n)
        if sample.n < 10 or k_max < 4:
            return
        with tracer.span("product_limit.fit"):
            fit_product_limit(sample)
        with tracer.span("tail_index.gamma1_path"):
            path = gamma1_path(sample)
        with tracer.span("tail_index.select_k") as span:
            select_k_dispersion(path, THETA, 2, k_max)
        span.counts["candidates"] = k_max - 3


class Limit(Workload):
    """`trunctail limit-check --gamma1 0.6 --gamma2 1.4 --m M --paths P`."""

    name = "limit"
    item = "paths"
    outputs = ("limit.json",)
    defaults = {"m": 2 ** 14, "paths": 1000, "layer_calls": 100}

    def argv(self, i: int) -> list[str]:
        return ["limit-check", "--gamma1", repr(GAMMA1), "--gamma2", repr(GAMMA2),
                "--m", str(self.sizes["m"]), "--paths", str(self.sizes["paths"]),
                "--seed", str(self.input_seed(i)), "--json", str(self.dir / "limit.json")]

    def check(self, i: int, status: int):
        raw = (self.dir / "limit.json").read_bytes()
        out = json.loads(raw)
        problems = []
        gap = abs(out["variance"] - out["sigma2_closed_form"])
        if not gap <= 4.0 * out["std_error"]:
            problems.append(f"|variance - closed form| = {gap:.4g} > 4 std_error "
                            f"= {4.0 * out['std_error']:.4g}")
        if out["n_paths"] != self.sizes["paths"] or out["m"] != self.sizes["m"]:
            problems.append(f"ran n_paths={out['n_paths']} m={out['m']}")
        return self.sizes["paths"], problems, raw

    def trace_layers(self, i: int, tracer: Tracer) -> None:
        """The set-up of mc_variance, then derive_rng and simulate_wiener alone."""
        m, seed = self.sizes["m"], self.input_seed(i)
        with tracer.span("limit_process.setup") as span:
            mc_variance(GAMMA1, GAMMA2, 2, m, seed)
        span.counts.update(m=m, paths=self.sizes["paths"])
        for call in range(self.sizes["layer_calls"]):
            with tracer.span("seeding.derive_rng"):
                derive_rng(seed, call)
            with tracer.span("limit_process.simulate_wiener"):
                path = simulate_wiener(m, seed + call)
        # A reference cost, not a package call: two (m+1)-long float64 dot
        # products, the size of mc_variance's per-path weight step.
        weights = np.ones(m + 1)
        for _ in range(self.sizes["layer_calls"]):
            with tracer.span("limit_process.dot"):
                float(weights @ path.values)
                float(weights @ path.values)


WORKLOADS = {cls.name: cls for cls in (Estimate, Study, Limit)}

SCALING_DEFAULTS = {"small_n": 2000, "large_n": 10000, "repeats": 5}


def trace_scaling(seed: int, tracer: Tracer, small_n: int, large_n: int, repeats: int) -> None:
    """select_k_dispersion at two sample sizes, for its log-log slope."""
    for label, big_n in (("small", small_n), ("large", large_n)):
        for r in range(repeats):
            sample = burr_pairs(input_seed("scaling", seed, r), big_n)
            path = gamma1_path(sample)
            with tracer.span("scaling.select_k") as span:
                select_k_dispersion(path, THETA, 2, default_k_max(sample.n))
            span.counts.update(n=sample.n, size=label)


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics computable from the spans in tr; absent layers are skipped."""
    out: dict[str, float] = {}

    def put(name, value, scale=1.0):
        if value is not None:
            out[name] = value * scale

    for metric, span, scale in (
            ("cli.main_s", "cli.main", 1.0),
            ("truncation.read_csv_s", "truncation.read_csv", 1.0),
            ("truncation.sample_s", "truncation.sample", 1.0),
            ("distributions.quantile_s", "distributions.quantile", 1.0),
            ("product_limit.fit_s", "product_limit.fit", 1.0),
            ("tail_index.gamma1_path_s", "tail_index.gamma1_path", 1.0),
            ("tail_index.select_k_s", "tail_index.select_k", 1.0),
            ("tail_index.estimate_gamma2_s", "tail_index.estimate_gamma2", 1.0),
            ("tail_index.full_report_s", "tail_index.full_report", 1.0),
            ("montecarlo.run_cell_s", "montecarlo.run_cell", 1.0),
            ("seeding.derive_rng_us", "seeding.derive_rng", 1e6),
            ("limit_process.simulate_wiener_us", "limit_process.simulate_wiener", 1e6),
            ("limit_process.dot_us", "limit_process.dot", 1e6),
            ("limit_process.setup_ms", "limit_process.setup", 1e3)):
        put(metric, _median(tr.durations(span)), scale)

    samples = tr.named("truncation.sample")
    if samples:
        out["truncation.kept_frac"] = (sum(s.counts["kept"] for s in samples)
                                       / sum(s.counts["drawn"] for s in samples))

    selects = tr.named("tail_index.select_k")
    if selects:
        # Computed, not observed: select_k_dispersion returns only its k, and
        # the count is that of k = 4..default_k_max(n) it is documented to scan.
        first = min(s.op for s in selects)
        counts = [s.counts["candidates"] for s in selects if s.op == first]
        out["tail_index.select_k_candidates"] = sum(counts) / len(counts)

    scaling = tr.named("scaling.select_k")
    if scaling:
        by_size = {label: [s for s in scaling if s.counts["size"] == label]
                   for label in ("small", "large")}
        t = {k: _median([s.duration for s in v]) for k, v in by_size.items()}
        n = {k: _median([s.counts["n"] for s in v]) for k, v in by_size.items()}
        out["tail_index.select_k_exponent"] = (math.log(t["large"] / t["small"])
                                               / math.log(n["large"] / n["small"]))

    cli_ops = tr.per_op("cli.main")
    full, read = tr.per_op("tail_index.full_report"), tr.per_op("truncation.read_csv")
    output = [cli_ops[op] - full[op] - read[op] for op in full if op in cli_ops and op in read]
    put("cli.estimate_output_s", _median(output))

    cells = tr.named("montecarlo.cell")
    if cells:
        busy = [tr.within(c, {"truncation.sample", "tail_index.gamma1_path",
                              "tail_index.select_k"}) for c in cells]
        capacity = [WORKERS * tr.within(c, {"montecarlo.run_cell"}) for c in cells]
        out["montecarlo.replicate_busy_s"] = _median(busy)
        out["montecarlo.parallel_efficiency"] = sum(busy) / sum(capacity)
        out["montecarlo.dropped"] = sum(c.counts["dropped"] for c in cells)

    setups = tr.named("limit_process.setup")
    if setups:
        setup_by_op = {s.op: s for s in setups}
        per_path = [(cli_ops[op] - s.duration) / s.counts["paths"]
                    for op, s in setup_by_op.items() if op in cli_ops]
        put("limit_process.per_path_us", _median(per_path), 1e6)
        m = setups[0].counts["m"]
        # Computed from m, not measured: m normals per path; bytes are the
        # float64 traffic of one path in mc_variance: the normals written
        # (m), scaled by sds (read 2m, write m), the cumsum (read m, write
        # m) and the two dot products (each reading a weight vector and
        # the path, 2(m+1)).
        out["limit_process.normals_per_path"] = float(m)
        out["limit_process.bytes_per_path"] = 8.0 * (m + 3 * m + 2 * m + 4 * (m + 1))
    return out
