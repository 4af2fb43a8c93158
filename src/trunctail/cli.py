"""Command-line interface.

Subcommands:
    estimate    tail-index estimate from a CSV of observed (x, y) pairs
    simulate    replicated truncation study, CSV + JSON report
    limit-check Monte Carlo variance of the limit law vs the closed form
    replay      re-run a command from a previously written manifest

Every run that writes an output file also writes a manifest recording
the command, the fully resolved parameters, seeds, library version and
input digests; `replay` reproduces the outputs bit-for-bit (only the
manifest timestamp differs).

Exit codes: 0 ok, 2 bad input, 3 model violation, 4 degenerate data,
5 numeric failure.
"""

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from importlib.metadata import PackageNotFoundError, version

from . import __version__
from .errors import (DegenerateTailError, EmptySampleError,
                     ModelViolationError, NumericError)
from .limit_process import mc_variance
from .montecarlo import StudyConfig, run_study
from .product_limit import LYNDEN_BELL, WOODROOFE
from .tail_index import default_k_max, full_report
from .truncation import TruncatedSample

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_DEGENERATE = 4
EXIT_NUMERIC = 5


def _version() -> str:
    """Installed distribution version, else the package's own."""
    try:
        return version("artifact")
    except PackageNotFoundError:
        return __version__


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(path: str, command: str, parameters: dict, seeds: dict,
                    input_digests: dict, outputs: list) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "seeds": seeds,
        "library_version": _version(),
        "input_digests": input_digests,
        "outputs": outputs,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w") as fh:
        fh.write(_dump_json(manifest))


def cmd_estimate(params: dict) -> int:
    """Estimate from a CSV file; params are the resolved CLI arguments."""
    input_path = params["input"]
    try:
        sample = TruncatedSample.from_csv(input_path)
    except OSError as exc:
        print(f"error: cannot read {input_path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, EmptySampleError) as exc:
        print(f"error: {input_path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if sample.n < 3:
        print(f"error: {input_path}: need at least 3 data rows, got {sample.n}",
              file=sys.stderr)
        return EXIT_INPUT
    level = None if params["no_ci"] else params["level"]
    try:
        est = full_report(sample, k=params["k"], variant=params["variant"],
                          theta=params["theta"], level=level)
    except DegenerateTailError as exc:
        print(f"error: degenerate tail: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report_text = _dump_json(est.to_dict())
    outputs = []
    if params["json"] is not None:
        with open(params["json"], "w") as fh:
            fh.write(report_text)
        outputs.append(params["json"])
    else:
        sys.stdout.write(report_text)
    if params["trace"] is not None:
        k_max = default_k_max(sample.n)
        values = est.path[2:max(k_max, 2) + 1].tolist()
        with open(params["trace"], "w", newline="") as fh:
            fh.write("k,gamma1_hat\n"
                     + "".join(f"{k},{v!r}\n" for k, v in enumerate(values, start=2)))
        outputs.append(params["trace"])
    if outputs:
        manifest_path = params["manifest"] or outputs[0] + ".manifest.json"
        _write_manifest(manifest_path, "estimate", params, {},
                        {input_path: _sha256(input_path)}, outputs)
    if est.gamma2_hat is not None and est.gamma2_hat <= est.gamma1_hat:
        print(f"error: model violation: gamma2_hat={est.gamma2_hat:.6g} <= "
              f"gamma1_hat={est.gamma1_hat:.6g}; no valid variance",
              file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


def cmd_simulate(params: dict) -> int:
    """Run a study from a resolved config dict and write report files."""
    try:
        config = StudyConfig.from_dict(params["config"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = run_study(config, workers=params["threads"])
    prefix = params["out"]
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    report.to_csv(csv_path)
    with open(json_path, "w") as fh:
        fh.write(_dump_json(report.to_dict()))
    _write_manifest(prefix + ".manifest.json", "simulate", params,
                    {"master_seed": config.master_seed}, {},
                    [csv_path, json_path])
    return EXIT_OK


def cmd_limit_check(params: dict) -> int:
    """Compare the Monte Carlo limit variance against the closed form."""
    try:
        stats = mc_variance(params["gamma1"], params["gamma2"],
                            params["paths"], params["m"], params["seed"])
    except ModelViolationError:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = stats.to_dict()
    payload["mc_variance"] = stats.variance
    payload["relative_error"] = abs(stats.variance / payload["sigma2_closed_form"] - 1.0)
    text = _dump_json(payload)
    if params["json"] is not None:
        with open(params["json"], "w") as fh:
            fh.write(text)
        _write_manifest(params["json"] + ".manifest.json", "limit-check",
                        params, {"seed": params["seed"]}, {}, [params["json"]])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_replay(manifest_path: str, outdir: str | None) -> int:
    """Re-run the command recorded in a manifest."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: manifest is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    command = manifest.get("command")
    params = dict(manifest.get("parameters", {}))
    for path, digest in manifest.get("input_digests", {}).items():
        try:
            fresh = _sha256(path)
        except OSError as exc:
            print(f"error: manifest input missing: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if fresh != digest:
            print(f"error: input {path} changed since the manifest was written",
                  file=sys.stderr)
            return EXIT_INPUT

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)

    def remap(path):
        if path is None or outdir is None:
            return path
        return os.path.join(outdir, os.path.basename(path))

    if command == "estimate":
        for key in ("json", "trace", "manifest"):
            params[key] = remap(params.get(key))
        return cmd_estimate(params)
    if command == "simulate":
        params["out"] = remap(params["out"])
        return cmd_simulate(params)
    if command == "limit-check":
        params["json"] = remap(params.get("json"))
        return cmd_limit_check(params)
    print(f"error: manifest has unknown command {command!r}", file=sys.stderr)
    return EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunctail",
        description="Tail-index estimation under random right truncation.",
    )
    parser.add_argument("--version", action="version", version=_version())
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate gamma1 from a CSV of x,y pairs")
    est.add_argument("input", help="CSV file with header x,y")
    est.add_argument("--k", type=int, default=None,
                     help="threshold; chosen by the dispersion criterion if omitted")
    est.add_argument("--variant", choices=[WOODROOFE, LYNDEN_BELL], default=WOODROOFE)
    est.add_argument("--theta", type=float, default=0.3,
                     help="dispersion exponent for automatic k (default 0.3)")
    est.add_argument("--level", type=float, default=0.95,
                     help="confidence level (default 0.95)")
    est.add_argument("--no-ci", action="store_true", help="skip the confidence interval")
    est.add_argument("--json", default=None, metavar="PATH",
                     help="write the JSON report here instead of stdout")
    est.add_argument("--trace", default=None, metavar="PATH",
                     help="write a k,gamma1_hat CSV over the scan range")
    est.add_argument("--manifest", default=None, metavar="PATH",
                     help="manifest path (default: first output + .manifest.json)")

    sim = sub.add_parser("simulate", help="run a replicated truncation study")
    sim.add_argument("--config", default=None, metavar="PATH",
                     help="JSON study config; replaces the inline cell flags")
    sim.add_argument("--p", type=float, default=None, help="truncation probability")
    sim.add_argument("--gamma1", type=float, default=None, help="target tail index")
    sim.add_argument("--delta", type=float, default=None, help="Burr shape (default 0.25)")
    sim.add_argument("--N", type=int, action="append", default=None,
                     help="pre-truncation size; repeat for several sizes")
    sim.add_argument("--reps", type=int, default=None, help="replicates per cell")
    sim.add_argument("--variant", choices=[WOODROOFE, LYNDEN_BELL], default=None,
                     help=f"product-limit variant (default {WOODROOFE})")
    sim.add_argument("--theta", type=float, default=None,
                     help="dispersion exponent for automatic k (default 0.3)")
    sim.add_argument("--seed", type=int, default=None,
                     help="master seed (required unless --config supplies one)")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes (default 1); does not affect results")
    sim.add_argument("--out", default="study", metavar="PREFIX",
                     help="output prefix for .csv/.json/.manifest.json (default study)")

    lim = sub.add_parser("limit-check",
                         help="Monte Carlo check of the limiting variance")
    lim.add_argument("--gamma1", type=float, required=True)
    lim.add_argument("--gamma2", type=float, required=True)
    lim.add_argument("--paths", type=int, default=100000, help="number of Wiener paths")
    lim.add_argument("--m", type=int, default=2 ** 14, help="path resolution")
    lim.add_argument("--seed", type=int, required=True)
    lim.add_argument("--json", default=None, metavar="PATH",
                     help="write the JSON comparison here instead of stdout")

    rep = sub.add_parser("replay", help="re-run a command from its manifest")
    rep.add_argument("manifest", help="manifest JSON written by a previous run")
    rep.add_argument("--outdir", default=None,
                     help="redirect output files into this directory")
    return parser


def _simulate_params(args) -> dict:
    if args.config is not None:
        for flag, value in (("--p", args.p), ("--gamma1", args.gamma1),
                            ("--delta", args.delta), ("--N", args.N),
                            ("--reps", args.reps), ("--variant", args.variant),
                            ("--theta", args.theta)):
            if value is not None:
                raise ValueError(f"{flag} conflicts with --config")
        with open(args.config) as fh:
            config = StudyConfig.from_json(fh.read())
        if args.seed is not None:
            config = StudyConfig(config.cells, config.replicates, config.variant,
                                 config.theta, args.seed)
    else:
        missing = [flag for flag, value in
                   (("--p", args.p), ("--gamma1", args.gamma1),
                    ("--N", args.N), ("--reps", args.reps), ("--seed", args.seed))
                   if value is None]
        if missing:
            raise ValueError(f"missing required flag(s) {', '.join(missing)} "
                             "(or pass --config)")
        config = StudyConfig.from_dict({
            "cells": [{"p": args.p, "gamma1": args.gamma1,
                       "delta": 0.25 if args.delta is None else args.delta,
                       "N": args.N}],
            "replicates": args.reps,
            "variant": args.variant or WOODROOFE,
            "theta": 0.3 if args.theta is None else args.theta,
            "master_seed": args.seed,
        })
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    return {"config": config.to_dict(), "threads": args.threads, "out": args.out}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate({
                "input": args.input, "k": args.k, "variant": args.variant,
                "theta": args.theta, "level": args.level, "no_ci": args.no_ci,
                "json": args.json, "trace": args.trace, "manifest": args.manifest,
            })
        if args.command == "simulate":
            try:
                params = _simulate_params(args)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT
            return cmd_simulate(params)
        if args.command == "limit-check":
            return cmd_limit_check({
                "gamma1": args.gamma1, "gamma2": args.gamma2,
                "paths": args.paths, "m": args.m, "seed": args.seed,
                "json": args.json,
            })
        return cmd_replay(args.manifest, args.outdir)
    except ModelViolationError as exc:
        print(f"error: model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (EmptySampleError, DegenerateTailError) as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
