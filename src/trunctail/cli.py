"""Command-line interface.

Subcommands:
    estimate    tail-index estimate from a CSV of observed (x, y) pairs
    simulate    replicated truncation study, CSV + JSON report
    limit-check Monte Carlo variance of the limit law vs the closed form
    replay      re-run a command from a previously written manifest

Every run that writes an output file also writes a manifest recording
the command, the fully resolved parameters, seeds, the trunctail,
Python and numpy versions and input digests; `replay` reproduces the
outputs bit-for-bit (only the manifest timestamp differs) under the
versions it records; where any differs it warns on stderr, then runs.

Exit codes, mapped from exceptions in `main` alone: 0 ok, 2 bad input
(including unreadable input and unwritable output), 3 model violation,
4 degenerate data, 5 numeric failure.
"""

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (DegenerateTailError, EmptySampleError,
                     ModelViolationError, NumericError)
from .limit_process import mc_variance
from .montecarlo import StudyConfig, run_study
from .product_limit import _VARIANTS, WOODROOFE
from .tail_index import default_k_max, full_report
from .truncation import TruncatedSample

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_DEGENERATE = 4
EXIT_NUMERIC = 5


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# manifest key: (what wrote it, as replay's warning names it; the running version)
_VERSIONS = {
    "library_version": ("trunctail", __version__),
    "python_version": ("Python", "{}.{}.{}".format(*sys.version_info[:3])),
    "numpy_version": ("numpy", np.__version__),
}


def _write_manifest(path: str, command: str, parameters: dict, seeds: dict,
                    input_digests: dict, outputs: list) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "seeds": seeds,
        **{key: running for key, (_, running) in _VERSIONS.items()},
        "input_digests": input_digests,
        "outputs": outputs,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w") as fh:
        fh.write(_dump_json(manifest))


def cmd_estimate(params: dict) -> int:
    """Estimate from a CSV file; params are the resolved CLI arguments."""
    input_path = params["input"]
    # one read: the manifest's digest is that of the bytes parsed
    with open(input_path, "rb") as fh:
        data = fh.read()
    try:
        sample = TruncatedSample.read_csv(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except ValueError as exc:   # a UnicodeDecodeError too
        raise ValueError(f"{input_path}: {exc}") from None
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
                        {input_path: hashlib.sha256(data).hexdigest()}, outputs)
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
    text = _dump_json(mc_variance(params["gamma1"], params["gamma2"], params["paths"],
                                  params["m"], params["seed"]).to_dict())
    if params["json"] is not None:
        with open(params["json"], "w") as fh:
            fh.write(text)
        _write_manifest(params["json"] + ".manifest.json", "limit-check",
                        params, {"seed": params["seed"]}, {}, [params["json"]])
    else:
        sys.stdout.write(text)
    return EXIT_OK


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _check_recorded(command: str, recorded: dict) -> None:
    """Reject a recorded value the command's argument parser could never give."""
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for action in commands.choices[command]._actions:
        key = action.dest
        # simulate records its resolved config, which StudyConfig.from_dict checks
        if key not in recorded or (command, key) == ("simulate", "config"):
            continue
        value = recorded[key]
        nullable = action.default is None and not action.required
        if value is None and nullable:
            continue
        kind = bool if action.nargs == 0 else action.type or str
        # a JSON integer also stands for a float; true and false stand only for flags
        ok = (isinstance(value, (int, float) if kind is float else kind)
              and (kind is bool or not isinstance(value, bool)))
        if not ok or (action.choices is not None and value not in action.choices):
            expected = (f"one of {list(action.choices)}" if action.choices is not None
                        else _KINDS[kind]) + (" or null" if nullable else "")
            raise ValueError(f"manifest parameter {key!r} must be {expected}, got {value!r}")


class _RecordedParameters(dict):
    """A manifest's parameters; a key the handler reads but the manifest lacks is bad input."""

    def __missing__(self, key):
        raise ValueError(f"manifest parameters lack {key!r}")


def cmd_replay(params: dict) -> int:
    """Re-run the command recorded in a manifest."""
    with open(params["manifest"]) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    command = manifest.get("command")
    # str(): a JSON array or object is unhashable, and names no command
    handler, output_keys = _COMMANDS.get(str(command), (None, ()))
    if not output_keys:
        raise ValueError(f"manifest has unknown command {command!r}")
    digests = manifest.get("input_digests", {})
    recorded = manifest.get("parameters", {})
    for key, value in (("input_digests", digests), ("parameters", recorded)):
        if not isinstance(value, dict):
            raise ValueError(f"manifest {key} must be a JSON object")
    _check_recorded(command, recorded)
    for path, digest in digests.items():
        with open(path, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != digest:
            raise ValueError(f"input {path} changed since the manifest was written")
    for key, (name, running) in _VERSIONS.items():
        version = manifest.get(key, running)
        if version != running:
            print(f"warning: the manifest was written by {name} {version!r}; replaying "
                  f"with {running!r}, whose outputs may differ", file=sys.stderr)
    recorded = _RecordedParameters(recorded)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser: main and replay share it, and parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="trunctail",
        description="Tail-index estimation under random right truncation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate gamma1 from a CSV of x,y pairs")
    est.add_argument("input", help="CSV file with header x,y")
    est.add_argument("--k", type=int, default=None,
                     help="threshold; chosen by the window-variance rule if omitted")
    est.add_argument("--variant", choices=_VARIANTS, default=WOODROOFE)
    est.add_argument("--theta", type=float, default=0.3,
                     help="window weight exponent for automatic k (default 0.3)")
    est.add_argument("--level", type=float, default=0.95,
                     help="confidence level (default 0.95)")
    est.add_argument("--no-ci", action="store_true", help="skip the confidence interval")
    est.add_argument("--json", default=None, metavar="PATH",
                     help="write the JSON report here instead of stdout")
    est.add_argument("--trace", default=None, metavar="PATH",
                     help="write the estimate path as a k,gamma1_hat CSV for k = 2..k_max, "
                          "below the automatic scan's floor too")
    est.add_argument("--manifest", default=None, metavar="PATH",
                     help="manifest path (default: first output + .manifest.json)")

    sim = sub.add_parser("simulate", help="run a replicated truncation study")
    sim.add_argument("--config", required=True, metavar="PATH",
                     help="JSON study config: cells, replicates and estimation settings")
    sim.add_argument("--seed", type=int, default=None,
                     help="master seed; overrides the config's master_seed")
    sim.add_argument("--threads", type=int, default=1,
                     help="processes to run on, this one included, capped at the "
                          "available cores (default 1); never changes the output")
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


def _simulate_params(params: dict) -> dict:
    """Resolve the simulate flags into the config dict cmd_simulate runs."""
    with open(params["config"]) as fh:
        config = StudyConfig.from_json(fh.read())
    if params["seed"] is not None:
        config = dataclasses.replace(config, master_seed=params["seed"])
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
