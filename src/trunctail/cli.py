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

Exit codes, mapped from exceptions in `main` alone: 0 ok, 2 bad input
(including unreadable input and unwritable output), 3 model violation,
4 degenerate data, 5 numeric failure.
"""

import argparse
import dataclasses
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
    except ValueError as exc:
        raise ValueError(f"{input_path}: {exc}") from None
    if sample.n < 3:
        raise ValueError(f"{input_path}: need at least 3 data rows, got {sample.n}")
    level = None if params["no_ci"] else params["level"]
    est = full_report(sample, k=params["k"], variant=params["variant"],
                      theta=params["theta"], level=level)

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
    config = StudyConfig.from_dict(params["config"])
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
    stats = mc_variance(params["gamma1"], params["gamma2"],
                        params["paths"], params["m"], params["seed"])
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


def cmd_replay(params: dict) -> int:
    """Re-run the command recorded in a manifest."""
    with open(params["manifest"]) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest is not valid JSON: {exc}") from None
    command = manifest.get("command")
    # str(): a JSON array or object is unhashable, and names no command
    handler, output_keys = _COMMANDS.get(str(command), (None, ()))
    if not output_keys:
        raise ValueError(f"manifest has unknown command {command!r}")
    for path, digest in manifest.get("input_digests", {}).items():
        if _sha256(path) != digest:
            raise ValueError(f"input {path} changed since the manifest was written")
    recorded = dict(manifest.get("parameters", {}))
    outdir = params["outdir"]
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        for key in output_keys:
            if recorded.get(key) is not None:
                recorded[key] = os.path.join(outdir, os.path.basename(recorded[key]))
    return handler(recorded)


# name: (handler, parameters that name output files, which replay --outdir
# redirects); a command with no outputs writes no manifest to replay
_COMMANDS = {
    "estimate": (cmd_estimate, ("json", "trace", "manifest")),
    "simulate": (cmd_simulate, ("out",)),
    "limit-check": (cmd_limit_check, ("json",)),
    "replay": (cmd_replay, ()),
}


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


# Inline simulate flags: (flag, StudyConfig key, required without --config).
# --seed alone may also override a --config file.
_STUDY_FLAGS = (("--p", "p", True), ("--gamma1", "gamma1", True),
                ("--delta", "delta", False), ("--N", "N", True),
                ("--reps", "replicates", True), ("--variant", "variant", False),
                ("--theta", "theta", False), ("--seed", "master_seed", True))
_CELL_KEYS = ("p", "gamma1", "delta", "N")


def _simulate_params(params: dict) -> dict:
    """Resolve the simulate flags into the config dict cmd_simulate runs."""
    given = {key: params[flag[2:]] for flag, key, _ in _STUDY_FLAGS
             if params[flag[2:]] is not None}
    if params["config"] is not None:
        for flag, key, _ in _STUDY_FLAGS:
            if key in given and key != "master_seed":
                raise ValueError(f"{flag} conflicts with --config")
        with open(params["config"]) as fh:
            config = StudyConfig.from_json(fh.read())
        if "master_seed" in given:
            config = dataclasses.replace(config, master_seed=given["master_seed"])
    else:
        missing = [flag for flag, key, required in _STUDY_FLAGS
                   if required and key not in given]
        if missing:
            raise ValueError(f"missing required flag(s) {', '.join(missing)} "
                             "(or pass --config)")
        cell = {key: given.pop(key) for key in _CELL_KEYS if key in given}
        config = StudyConfig.from_dict({"cells": [cell], **given})
    if params["threads"] < 1:
        raise ValueError("--threads must be >= 1")
    return {"config": config.to_dict(), "threads": params["threads"], "out": params["out"]}


def main(argv=None) -> int:
    params = vars(_build_parser().parse_args(argv))
    command = params.pop("command")
    try:
        if command == "simulate":
            params = _simulate_params(params)
        return _COMMANDS[command][0](params)
    except ModelViolationError as exc:
        print(f"error: model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (EmptySampleError, DegenerateTailError) as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # after the ValueError subclasses above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
