import hashlib
import json
import math
import os
import subprocess
import sys
from importlib.metadata import PackageNotFoundError
from pathlib import Path

import numpy as np
import pytest

import trunctail
from trunctail import (TruncatedSample, burr, full_report, gamma1_path,
                       gamma2_for_target_p)
from trunctail import cli, limit_process, tail_index
from trunctail.cli import main
from trunctail.truncation import TruncationModel


def _child_env(**extra):
    """Environment for a child interpreter that imports this trunctail."""
    src = str(Path(trunctail.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _three_pair_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1,3\n2,2.5\n4,6\n")
    return str(path)


def _complete_csv(tmp_path):
    path = tmp_path / "complete.csv"
    path.write_text("x,y\n1,1e9\n2,1e9\n4,1e9\n8,1e9\n")
    return str(path)


def _simulated_csv(tmp_path, big_n=400, seed=13):
    model = TruncationModel(burr(0.25, 0.6),
                            burr(0.25, gamma2_for_target_p(0.6, 0.7)))
    sample = model.sample(big_n, seed)
    path = tmp_path / "sim.csv"
    sample.to_csv(path)
    return str(path)


def test_estimate_single_log_ratio(tmp_path, capsys):
    code = main(["estimate", _three_pair_csv(tmp_path), "--k", "1", "--no-ci"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["gamma1_hat"] == pytest.approx(math.log(2.0), abs=1e-5)
    assert out["k"] == 1 and out["n"] == 3
    assert out["ci"] is None


def test_estimate_reduces_to_hill_on_complete_data(tmp_path, capsys):
    code = main(["estimate", _complete_csv(tmp_path),
                 "--variant", "lynden-bell", "--k", "2", "--no-ci"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["gamma1_hat"] == pytest.approx(1.0397207708399177, abs=1e-5)
    assert out["variant"] == "lynden-bell"


def test_estimate_rejects_x_above_y(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,3\n5,2\n4,6\n")
    code = main(["estimate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "row(s) 2" in err


def test_estimate_names_non_positive_rows(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("x,y\n1,3\n2,2.5\n0,6\n4,6\n")
    code = main(["estimate", str(path)])
    assert code == 2
    assert "row(s) 3;" in capsys.readouterr().err


def test_estimate_fits_the_product_limit_once(tmp_path, capsys, monkeypatch):
    fits = []
    real_fit = tail_index.fit_product_limit

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(tail_index, "fit_product_limit", counting_fit)
    assert main(["estimate", _simulated_csv(tmp_path), "--json", str(tmp_path / "est.json"),
                 "--trace", str(tmp_path / "trace.csv")]) == 0
    assert len(fits) == 1
    capsys.readouterr()


def test_estimate_rejects_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("u,v\n1,2\n")
    assert main(["estimate", str(path)]) == 2
    assert main(["estimate", str(tmp_path / "absent.csv")]) == 2
    capsys.readouterr()


def test_estimate_unwritable_output_exits_2(tmp_path, capsys):
    out_json = tmp_path / "absent" / "r.json"
    assert main(["estimate", _simulated_csv(tmp_path), "--json", str(out_json)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_json.parent.exists()


def test_estimate_degenerate_without_threshold(tmp_path, capsys):
    code = main(["estimate", _complete_csv(tmp_path)])  # n=4, no --k
    assert code == 4
    assert "degenerate" in capsys.readouterr().err


def test_estimate_names_a_sample_too_small_for_gamma2(tmp_path, capsys):
    code = main(["estimate", _complete_csv(tmp_path), "--k", "1"])  # n=4
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["gamma2_hat"] is None and out["ci"] is None
    assert out["warnings"] == [
        "gamma2 plug-in unavailable: sample too small for threshold selection (n=4)"]


def test_estimate_two_rows_is_degenerate(tmp_path, capsys):
    # the minimum size is full_report's rule alone: 2 rows exit 4, as 4 rows do
    path = tmp_path / "two.csv"
    path.write_text("x,y\n1,2\n2,3\n")
    assert main(["estimate", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: degenerate data: need at least 3 observed pairs, got 2\n")


def test_estimate_rejects_theta_out_of_range_with_fixed_k(tmp_path, capsys):
    # theta also drives the gamma2 threshold scan, so a fixed --k does not
    # make a bad --theta harmless: it is bad input, as it is without --k
    data = _simulated_csv(tmp_path)
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 0.5\]"):
        full_report(TruncatedSample.from_csv(data), k=50, theta=0.9)
    assert main(["estimate", data, "--k", "50", "--theta", "0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theta must lie in [0, 0.5]" in captured.err


def test_estimate_full_run_with_files(tmp_path, capsys):
    data = _simulated_csv(tmp_path)
    out_json = str(tmp_path / "est.json")
    out_trace = str(tmp_path / "trace.csv")
    code = main(["estimate", data, "--json", out_json, "--trace", out_trace])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads((tmp_path / "est.json").read_text())
    assert report["ci"] is not None
    assert report["gamma2_hat"] > report["gamma1_hat"]
    assert 0.0 < report["gamma1_hat"] < 3.0
    trace_lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert trace_lines[0] == "k,gamma1_hat"
    first_k = int(trace_lines[1].split(",")[0])
    assert first_k == 2
    manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["outputs"] == [out_json, out_trace]
    assert data in manifest["input_digests"]


def test_estimate_trace_rows_are_numeric_and_exact(tmp_path, capsys):
    data = _simulated_csv(tmp_path)
    out_trace = tmp_path / "trace.csv"
    assert main(["estimate", data, "--json", str(tmp_path / "est.json"),
                 "--trace", str(out_trace)]) == 0
    header, *rows = out_trace.read_text().splitlines()
    assert header == "k,gamma1_hat"
    sample = TruncatedSample.from_csv(data)
    path = gamma1_path(sample)
    for expected_k, row in enumerate(rows, start=2):
        k_text, value_text = row.split(",")
        assert int(k_text) == expected_k
        assert float(value_text) == path[expected_k]
    assert len(rows) == trunctail.default_k_max(sample.n) - 1
    capsys.readouterr()


def test_estimate_replay_reproduces_outputs(tmp_path, capsys):
    data = _simulated_csv(tmp_path)
    first = tmp_path / "run1"
    first.mkdir()
    out_json = str(first / "est.json")
    out_trace = str(first / "trace.csv")
    assert main(["estimate", data, "--json", out_json, "--trace", out_trace]) == 0
    second = tmp_path / "run2"
    second.mkdir()
    code = main(["replay", out_json + ".manifest.json", "--outdir", str(second)])
    assert code == 0
    assert (second / "est.json").read_bytes() == (first / "est.json").read_bytes()
    assert (second / "trace.csv").read_bytes() == (first / "trace.csv").read_bytes()
    capsys.readouterr()


def test_manifest_version_falls_back_to_package(tmp_path, capsys, monkeypatch):
    # run from a source tree: no installed distribution to ask
    def not_installed(name):
        raise PackageNotFoundError(name)

    monkeypatch.setattr(cli, "version", not_installed)
    out_json = str(tmp_path / "est.json")
    assert main(["estimate", _simulated_csv(tmp_path), "--json", out_json]) == 0
    manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
    assert manifest["library_version"] == trunctail.__version__
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == trunctail.__version__


def test_replay_detects_changed_input(tmp_path, capsys):
    data = _simulated_csv(tmp_path)
    out_json = str(tmp_path / "est.json")
    assert main(["estimate", data, "--json", out_json]) == 0
    with open(data, "a") as fh:
        fh.write("5,6\n")
    code = main(["replay", out_json + ".manifest.json"])
    assert code == 2
    assert "changed" in capsys.readouterr().err


def test_replay_rejects_garbage(tmp_path, capsys):
    missing = main(["replay", str(tmp_path / "nope.json")])
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert missing == 2
    assert main(["replay", str(bad)]) == 2
    capsys.readouterr()


def test_replay_rejects_unknown_command(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"command": "frobnicate", "parameters": {}}))
    assert main(["replay", str(manifest)]) == 2
    assert "'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("manifest, problem", [
    ([1], "manifest must be a JSON object"),
    ({"command": "estimate", "parameters": []}, "manifest parameters must be a JSON object"),
    ({"command": "estimate", "parameters": {}, "input_digests": []},
     "manifest input_digests must be a JSON object"),
    ({"command": "estimate", "parameters": {}}, "manifest parameters lack 'input'"),
    ({"command": "limit-check", "parameters": {"gamma1": 0.6}},
     "manifest parameters lack 'gamma2'"),
], ids=["not-an-object", "parameters-array", "digests-array", "no-input", "no-gamma2"])
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, manifest, problem):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"


def _recorded_manifest(tmp_path, command):
    """Run `command` with small inputs and return the manifest it wrote."""
    out = str(tmp_path / "out")
    argv = {
        "estimate": ["estimate", _simulated_csv(tmp_path), "--json", out],
        "limit-check": ["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
                        "--paths", "50", "--m", "64", "--seed", "3", "--json", out],
        "simulate": ["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "150",
                     "--reps", "2", "--seed", "2", "--out", out],
    }[command]
    assert main(argv) == 0
    return tmp_path / "out.manifest.json"


@pytest.mark.parametrize("command, key, value, expected", [
    ("estimate", "k", "abc", "an integer or null"),
    ("estimate", "k", True, "an integer or null"),
    ("estimate", "theta", "0.3", "a number"),
    ("estimate", "no_ci", "yes", "true or false"),
    ("estimate", "variant", "hill", "one of ['woodroofe', 'lynden-bell']"),
    ("estimate", "json", 5, "a string or null"),
    ("limit-check", "paths", 2.5, "an integer"),
    ("simulate", "threads", "2", "an integer"),
])
def test_replay_rejects_a_recorded_value_of_the_wrong_type(tmp_path, capsys, command,
                                                           key, value, expected):
    # each value is one the subcommand's argument parser could never give
    path = _recorded_manifest(tmp_path, command)
    manifest = json.loads(path.read_text())
    manifest["parameters"][key] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["replay", str(path), "--outdir", str(tmp_path / "redo")]) == 2
    assert capsys.readouterr().err == (
        f"error: manifest parameter {key!r} must be {expected}, got {value!r}\n")


def test_estimate_rejects_a_level_whose_quantile_overflows(tmp_path, capsys):
    # 0.5 * (1 + level) rounds to 1.0, which would report the bounds as +-Infinity
    out = tmp_path / "est.json"
    code = main(["estimate", _simulated_csv(tmp_path), "--level", "0.9999999999999999",
                 "--json", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("error: level 0.9999999999999999 is too close to 1: "
                                       "its normal quantile is infinite\n")
    assert not out.exists()


@pytest.mark.parametrize("level,message", [
    ("1.5", "level must lie in (0, 1)"),
    ("0.9999999999999999", "level 0.9999999999999999 is too close to 1: "
                           "its normal quantile is infinite"),
])
def test_estimate_checks_the_level_where_no_interval_can_be_built(tmp_path, capsys,
                                                                  level, message):
    # 3 rows leave no gamma2 plug-in and so no interval, but a bad level
    # is still bad input; with --no-ci the level is unused
    path = _three_pair_csv(tmp_path)
    assert main(["estimate", path, "--k", "1", "--level", level]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["estimate", path, "--k", "1", "--level", level, "--no-ci"]) == 0
    assert json.loads(capsys.readouterr().out)["ci"] is None


def test_replay_takes_a_json_integer_for_a_number(tmp_path, capsys):
    path = _recorded_manifest(tmp_path, "estimate")
    manifest = json.loads(path.read_text())
    manifest["parameters"]["level"] = 0
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == "error: level must lie in (0, 1)\n"


def test_estimate_model_violation_still_prints(tmp_path, capsys):
    rng = np.random.default_rng(7)
    x = np.exp(rng.normal(size=60) * 2.0)
    y = x.max() * (2.0 + 1e-9 * rng.random(60))
    sample = TruncatedSample(x, y)
    path = tmp_path / "flat.csv"
    sample.to_csv(path)
    code = main(["estimate", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    out = json.loads(captured.out)
    assert out["gamma2_hat"] <= out["gamma1_hat"]
    assert out["ci"] is None
    assert "model violation" in captured.err


def test_simulate_inline(tmp_path, capsys):
    prefix = str(tmp_path / "study")
    code = main(["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "150",
                 "--reps", "6", "--seed", "1", "--out", prefix])
    assert code == 0
    lines = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert lines[0].startswith("p,gamma1,N,")
    assert len(lines) == 2
    report = json.loads((tmp_path / "study.json").read_text())
    assert report["rows"][0]["N"] == 150
    manifest = json.loads((tmp_path / "study.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == {"master_seed": 1}
    assert manifest["parameters"]["config"]["replicates"] == 6
    capsys.readouterr()


def test_simulate_flag_validation(tmp_path, capsys):
    assert main(["simulate", "--p", "0.7", "--gamma1", "0.6",
                 "--N", "100", "--reps", "4"]) == 2  # no seed
    err = capsys.readouterr().err
    assert "--seed" in err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"cells": [], "replicates": 2}))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "s")]) == 2
    assert "/cells" in capsys.readouterr().err
    config.write_text(json.dumps(
        {"cells": [{"p": 0.7, "gamma1": 0.6, "N": 100}], "replicates": 2}))
    assert main(["simulate", "--config", str(config), "--p", "0.5",
                 "--out", str(tmp_path / "s")]) == 2
    assert "conflicts" in capsys.readouterr().err


def test_simulate_threads_do_not_change_bytes(tmp_path, capsys):
    args = ["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "200",
            "--reps", "8", "--seed", "3"]
    p1 = str(tmp_path / "one")
    p2 = str(tmp_path / "two")
    assert main(args + ["--threads", "1", "--out", p1]) == 0
    assert main(args + ["--threads", "2", "--out", p2]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    capsys.readouterr()


_BUFFERED_THEN_FORK_SCRIPT = """
import sys
from trunctail import StudyConfig, montecarlo, run_study
montecarlo._worker_count = lambda: 2   # fork a child even on one core
sys.stdout.write("written once, before the fork\\n")   # held in the pipe's buffer
config = StudyConfig.from_dict({"cells": [{"p": 0.7, "gamma1": 0.6, "N": 150}],
                                "replicates": 4})
run_study(config, workers=2)
"""


def test_forked_study_children_do_not_repeat_buffered_output():
    # a child that left through sys.exit or a return would flush its copy
    # of the caller's stdout buffer, printing the line a second time
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", _BUFFERED_THEN_FORK_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "written once, before the fork\n"


@pytest.mark.parametrize("flag,value", [("--variant", "lynden-bell"),
                                        ("--theta", "0.1"), ("--delta", "0.5"),
                                        ("--reps", "3")])
def test_simulate_config_rejects_inline_estimation_flags(tmp_path, capsys, flag, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"cells": [{"p": 0.7, "gamma1": 0.6, "N": 100}], "replicates": 2}))
    assert main(["simulate", "--config", str(config), flag, value,
                 "--out", str(tmp_path / "s")]) == 2
    assert f"{flag} conflicts with --config" in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


def test_simulate_all_replicates_degenerate_exits_4(tmp_path, capsys):
    # N=5 never keeps the 10 observed pairs a replicate needs
    assert main(["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "5",
                 "--reps", "3", "--seed", "1", "--out", str(tmp_path / "s")]) == 4
    assert "degenerate" in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


def test_simulate_inline_records_defaults_and_flags(tmp_path, capsys):
    args = ["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "150",
            "--reps", "2", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert main(args + ["--variant", "lynden-bell", "--theta", "0.1", "--delta", "0.5",
                        "--out", str(tmp_path / "set")]) == 0
    plain = json.loads((tmp_path / "plain.manifest.json").read_text())["parameters"]
    chosen = json.loads((tmp_path / "set.manifest.json").read_text())["parameters"]
    assert plain["threads"] == 1
    assert (plain["config"]["variant"], plain["config"]["theta"],
            plain["config"]["cells"][0]["delta"]) == ("woodroofe", 0.3, 0.25)
    assert (chosen["config"]["variant"], chosen["config"]["theta"],
            chosen["config"]["cells"][0]["delta"]) == ("lynden-bell", 0.1, 0.5)
    capsys.readouterr()


def test_simulate_replay(tmp_path, capsys):
    prefix = str(tmp_path / "study")
    assert main(["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "150",
                 "--reps", "5", "--seed", "2", "--out", prefix]) == 0
    redo = tmp_path / "redo"
    redo.mkdir()
    assert main(["replay", prefix + ".manifest.json",
                 "--outdir", str(redo)]) == 0
    assert ((redo / "study.csv").read_bytes()
            == (tmp_path / "study.csv").read_bytes())
    assert ((redo / "study.json").read_bytes()
            == (tmp_path / "study.json").read_bytes())
    capsys.readouterr()


def test_limit_check_stdout(capsys):
    code = main(["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
                 "--paths", "400", "--m", "512", "--seed", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out) == {"gamma1", "gamma2", "n_paths", "m", "mean", "variance",
                        "std_error", "grid_variance", "grid_z", "sigma2_closed_form",
                        "mc_variance", "relative_error"}
    assert out["grid_z"] == pytest.approx(
        (out["variance"] - out["grid_variance"]) / out["std_error"], rel=1e-12)
    assert out["sigma2_closed_form"] == pytest.approx(1.598625, abs=1e-9)
    assert out["relative_error"] < 0.5


def test_limit_check_json_file_and_replay(tmp_path, capsys):
    out_json = str(tmp_path / "lc.json")
    args = ["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
            "--paths", "300", "--m", "256", "--seed", "8", "--json", out_json]
    assert main(args) == 0
    redo = tmp_path / "redo"
    redo.mkdir()
    assert main(["replay", out_json + ".manifest.json",
                 "--outdir", str(redo)]) == 0
    assert (redo / "lc.json").read_bytes() == (tmp_path / "lc.json").read_bytes()
    capsys.readouterr()


def test_limit_check_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at m = 2^14 a BLAS dot product is split over the BLAS threads, so
    # any weight reduction left on BLAS changes the last bits
    digests = set()
    for blas_threads in ("1", "2"):
        out_json = tmp_path / f"lc{blas_threads}.json"
        env = _child_env(OPENBLAS_NUM_THREADS=blas_threads)
        subprocess.run([sys.executable, "-m", "trunctail.cli", "limit-check",
                        "--gamma1", "0.6", "--gamma2", "1.4", "--paths", "200",
                        "--m", "16384", "--seed", "12345", "--json", str(out_json)],
                       env=env, check=True, timeout=120)
        digests.add(hashlib.sha256(out_json.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_limit_check_rejects_bad_ordering(capsys):
    code = main(["limit-check", "--gamma1", "1.4", "--gamma2", "0.6",
                 "--paths", "100", "--m", "128", "--seed", "1"])
    assert code == 3
    assert "model violation" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--paths", "1"), ("--m", "1"), ("--gamma1", "-1")])
def test_limit_check_bad_input_exits_2_before_any_thread_starts(capsys, monkeypatch,
                                                                 flag, value):
    def no_pool(*args, **kwargs):
        raise AssertionError("the thread pool was started")

    monkeypatch.setattr(limit_process, "ThreadPoolExecutor", no_pool)
    args = {"--gamma1": "0.6", "--gamma2": "1.4", "--paths": "100", "--m": "128",
            "--seed": "1", flag: value}
    code = main(["limit-check"] + [part for item in args.items() for part in item])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_limit_check_requires_seed():
    with pytest.raises(SystemExit) as excinfo:
        main(["limit-check", "--gamma1", "0.6", "--gamma2", "1.4"])
    assert excinfo.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


_COLD_START_SCRIPT = """
import contextlib, io, json, sys

def watched_modules():
    # scipy, plus what np.median (numpy.ma) and a process pool
    # (multiprocessing, concurrent.futures.process) load
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                  or m in ("numpy.ma", "multiprocessing", "concurrent.futures.process"))

csv_path, study_prefix, out_path = sys.argv[1:]
seen = {}
import trunctail
seen["import trunctail"] = watched_modules()
import trunctail.cli
seen["import trunctail.cli"] = watched_modules()
with contextlib.redirect_stdout(io.StringIO()):
    assert trunctail.cli.main(["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
                               "--paths", "200", "--m", "256", "--seed", "1"]) == 0
    seen["limit-check"] = watched_modules()
    assert trunctail.cli.main(["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "150",
                               "--reps", "2", "--seed", "1", "--out", study_prefix]) == 0
    seen["simulate"] = watched_modules()
    trunctail.montecarlo._worker_count = lambda: 2   # fork a child even on one core
    assert trunctail.cli.main(["simulate", "--p", "0.7", "--gamma1", "0.6", "--N", "150",
                               "--reps", "2", "--seed", "1", "--threads", "2",
                               "--out", study_prefix]) == 0
    seen["simulate --threads 2"] = watched_modules()
    assert trunctail.cli.main(["estimate", csv_path]) == 0
    seen["estimate"] = watched_modules()
trunctail.TruncationModel(trunctail.burr(0.25, 0.6), trunctail.pareto(1.4)).p
seen["mixed-family p"] = watched_modules()
with open(out_path, "w") as fh:
    json.dump(seen, fh)
"""


def test_scipy_is_imported_only_by_the_calls_that_need_it(tmp_path):
    # a fresh interpreter, since this test process has scipy loaded already
    out_path = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, _simulated_csv(tmp_path),
                    str(tmp_path / "study"), str(out_path)],
                   env=_child_env(), check=True, timeout=120)
    seen = json.loads(out_path.read_text())
    # neither scipy, numpy.ma nor a process pool; a parallel study forks its children
    for step in ("import trunctail", "import trunctail.cli", "limit-check", "simulate",
                 "simulate --threads 2"):
        assert seen[step] == [], step
    assert seen["estimate"] == []   # with its interval, whose quantile is the package's own
    assert "scipy.integrate" in seen["mixed-family p"]
