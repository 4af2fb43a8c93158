"""Benchmark of the trunctail command-line paths.

Run one workload, untraced for the end-to-end metrics or traced for the
per-layer metrics, from the root of a checkout:

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload limit --seed 1 --seconds 20 --trace 1 --out a.jsonl

The package is imported from the checkout's own src/ directory; with no
src/trunctail there the benchmark exits with status 1 and prints no
result.  Scratch files go to .perfbench_work/ under the checkout.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --out appends a fuller record (the
environment, output digest, error rate) to a JSON-lines file, and

    python3 perfbench/run.py --compare base.jsonl change.jsonl

compares two such files with the bounds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

WARMUP = -1
PROBE = 10 ** 6             # index of the first probe operation
PROBE_OPS = 3
MIN_OPS = {0: 40, 1: 5}     # untraced: ten operations beyond the 75th percentile
SETUP_RUNS = 3
MEASURE_CAP_S = 120.0
SETUP_TIMEOUT_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.main_s": "s",
    "truncation.read_csv_s": "s",
    "truncation.sample_s": "s",
    "truncation.kept_frac": "ratio",
    "distributions.quantile_s": "s",
    "product_limit.fit_s": "s",
    "tail_index.gamma1_path_s": "s",
    "tail_index.select_k_s": "s",
    "tail_index.estimate_gamma2_s": "s",
    "tail_index.full_report_s": "s",
    "tail_index.select_k_candidates": "count",
    "tail_index.select_k_exponent": "ratio",
    "cli.estimate_output_s": "s",
    "montecarlo.run_cell_s": "s",
    "montecarlo.replicate_busy_s": "s",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.dropped": "count",
    "seeding.derive_rng_us": "us",
    "limit_process.per_path_us": "us",
    "limit_process.simulate_wiener_us": "us",
    "limit_process.dot_us": "us",
    "limit_process.setup_ms": "ms",
    "limit_process.normals_per_path": "count",
    "limit_process.bytes_per_path": "bytes",
}

# Runs in a fresh interpreter: argv = bench dir, workload, seed, sizes JSON.
_SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup_once(*sys.argv[2:])"


def load_package() -> None:
    """Put the checkout's src/ first on sys.path and import trunctail from it."""
    if not (SRC / "trunctail" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trunctail package under {SRC}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import trunctail
    if Path(trunctail.__file__).resolve().parent != SRC / "trunctail":
        raise SystemExit(f"perfbench: imported trunctail from {trunctail.__file__}, not {SRC}")


def setup_once(workload: str, seed: str, sizes_json: str) -> None:
    """One set-up: import trunctail, write the warm-up input, run it once."""
    load_package()
    import workloads

    sizes = json.loads(sizes_json)
    warm_up(workloads.WORKLOADS[workload](int(seed), WORKDIR / "setup", **sizes.get(workload, {})))


def warm_up(wl) -> None:
    """Write the warm-up input and run its operation once, untimed."""
    from workloads import call_cli

    wl.make_input(WARMUP)
    status = call_cli(wl.argv(WARMUP))
    if status not in wl.ok_statuses:
        raise SystemExit(f"perfbench: warm-up {wl.name} operation exited with {status}")


def measure_setup(workload: str, seed: int, sizes: dict) -> float:
    """Median wall time of SETUP_RUNS fresh-process set-ups."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), workload,
                        str(seed), json.dumps(sizes)],
                       check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _one_op(wl, i: int, tracer):
    """Run operation i; return (seconds, status, layer error)."""
    from workloads import call_cli

    if tracer is None:
        t0 = time.perf_counter()
        status = call_cli(wl.argv(i))
        return time.perf_counter() - t0, status, None
    tracer.op = i
    layer_error = None
    with tracer.span("op") as op_span:
        try:
            wl.trace_layers(i, tracer)
        except Exception as exc:
            traceback.print_exc()
            layer_error = f"{type(exc).__name__}: {exc}"
        with tracer.span("cli.main"):
            status = call_cli(wl.argv(i))
    return op_span.duration, status, layer_error


class Tally:
    """Operations attempted and failed, items completed, output digest."""

    def __init__(self):
        self.times: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def run(self, wl, i: int, tracer=None, digest: bool = True) -> None:
        wl.clear_outputs()
        wl.make_input(i)
        seconds, status, layer_error = _one_op(wl, i, tracer)
        self.attempted += 1
        problems = [] if layer_error is None else [layer_error]
        items = 0
        if status not in wl.ok_statuses:
            problems.append(f"exit status {status}")
        else:
            try:
                items, more, output = wl.check(i, status)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                more, output = [f"unreadable output: {exc!r}"], b""
            problems += more
            if digest:
                self.digest.update(output)
        if problems:
            self.failed += 1
            print(f"perfbench: {wl.name} operation {i} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        else:
            self.items += items
        self.times.append(seconds)


def _traced_metrics(wl, seed: int, sizes: dict, tracer, tally: Tally) -> dict:
    """Per-layer metrics of the traced loop, then of probes for what it never reached.

    A layer the workload does not exercise is measured by PROBE_OPS
    traced operations of the workload that does, on the same seed, and
    the scaling of select_k_dispersion by its own probe.
    """
    import workloads
    from tracing import Tracer

    tracers = [tracer]
    for name, cls in workloads.WORKLOADS.items():
        if name != wl.name:
            probe = cls(seed, WORKDIR, **sizes.get(name, {}))
            warm_up(probe)
            tracers.append(Tracer())
            for i in range(PROBE, PROBE + PROBE_OPS):
                tally.run(probe, i, tracers[-1], digest=False)
    tracers.append(Tracer())
    workloads.trace_scaling(seed, tracers[-1],
                            **{**workloads.SCALING_DEFAULTS, **sizes.get("scaling", {})})
    metrics = {}
    for tr in tracers:
        for key, value in workloads.layer_metrics(tr).items():
            metrics.setdefault(key, value)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int,
        sizes: dict | None = None, min_ops: int | None = None) -> dict:
    """One benchmark run; returns the result record."""
    sizes = sizes or {}
    min_ops = MIN_OPS[trace] if min_ops is None else min_ops
    load_package()
    env = environment()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    setup_s = None if trace else measure_setup(workload, seed, sizes)

    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload](seed, WORKDIR, **sizes.get(workload, {}))
    tally = Tally()
    warm_up(wl)
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    i = 0
    while i < min_ops or (sum(tally.times) < seconds
                          and time.perf_counter() - start < MEASURE_CAP_S):
        tally.run(wl, i, tracer, digest=i < min_ops)
        i += 1

    if trace:
        metrics = _traced_metrics(wl, seed, sizes, tracer, tally)
        units = LAYER_UNITS
    else:
        q = statistics.quantiles(tally.times, n=4)
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": q[1],
            "op_p75_s": q[2],
            "items_per_s": tally.items / sum(tally.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"perfbench: no measurement for {sorted(missing)}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "item": wl.item,
        "error_rate": tally.failed / tally.attempted,
        "outcomes": dict(wl.outcomes),
        "outputs_sha256": tally.digest.hexdigest(),
        "digest_ops": min_ops,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(base_path: str, change_path: str) -> int:
    """Print each side's median and quartiles per end-to-end metric and workload.

    A metric is "worse" when the change's median is worse than the
    base's by more than its bound, and "unresolved" when either side's
    quartile spread exceeds the bound, unless every change run beats
    every base run.  Returns 1 if any metric is worse.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"base": _load(base_path), "change": _load(change_path)}
    names = [w["name"] for w in spec["workloads"]]
    any_worse = False
    for workload in names:
        runs = {side: [r for r in recs if r["workload"] == workload]
                for side, recs in sides.items()}
        plain = {side: [r for r in rs if r["trace"] == 0] for side, rs in runs.items()}
        if not all(plain.values()):
            print(f"{workload}: untraced runs missing on one side")
            continue
        print(f"{workload}: base {len(plain['base'])} runs, change {len(plain['change'])} runs")
        for side, rs in plain.items():
            failed = sum(r["failed"] for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            print(f"  {side} error_rate {failed / attempted:.4g} ({failed}/{attempted})")
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in plain.items()}
            q = {side: _quartiles(v) for side, v in values.items()}
            spread = max((hi - lo) / mid for lo, mid, hi in q.values())
            rel = q["change"][1] / q["base"][1] - 1.0
            worse = rel > bound if lower else rel < -bound
            better = rel < -bound if lower else rel > bound
            if lower:
                dominates = max(values["change"]) < min(values["base"])
            else:
                dominates = min(values["change"]) > max(values["base"])
            if spread > bound and not dominates:
                verdict = "unresolved"
            elif worse:
                verdict, any_worse = "WORSE", True
            elif better or dominates:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {name:<12} [{metric['unit']}] "
                  + "  ".join(f"{side} {lo:.4g}/{mid:.4g}/{hi:.4g}"
                              for side, (lo, mid, hi) in q.items())
                  + f"  change {rel:+.1%} (bound {bound:.0%}, spread {spread:.1%}): {verdict}")
        for side, rs in runs.items():
            traced = [r["metrics"]["cli.main_s"]["value"] for r in rs if r["trace"] == 1]
            if traced:
                untraced = statistics.median(r["metrics"]["op_p50_s"]["value"] for r in plain[side])
                print(f"  {side} tracing overhead: cli.main median {statistics.median(traced):.4g} s "
                      f"traced vs op_p50_s {untraced:.4g} s untraced "
                      f"({statistics.median(traced) / untraced - 1.0:+.1%})")
        digests = {side: {(r["seed"], r["trace"], r["digest_ops"]): r["outputs_sha256"] for r in rs}
                   for side, rs in runs.items()}
        for key in sorted(set(digests["base"]) & set(digests["change"])):
            if digests["base"][key] != digests["change"][key]:
                print(f"  outputs differ at seed {key[0]} trace {key[1]}")
    return 1 if any_worse else 0


def _print_result(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['failed']} of {rec['attempted']} operations failed; items are {rec['item']}")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    print(f"outputs_sha256 {rec['outputs_sha256']} (first {rec['digest_ops']} operations)")
    print(f"error_rate {rec['error_rate']:.6g}")
    for outcome, count in rec["outcomes"].items():
        print(f"{outcome} {count} of {rec['attempted']} operations")
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: rec[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["estimate", "study", "limit"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--out", metavar="FILE", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    rec = run(args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _print_result(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
