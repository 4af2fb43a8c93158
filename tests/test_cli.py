import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trunctail
from trunctail import (TruncatedSample, burr, full_report, gamma1_path,
                       gamma2_for_target_p)
from trunctail import cli, seeding, tail_index
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


def _study_config(tmp_path, big_n, replicates, seed, name="study-config.json"):
    """Write a one-cell (p = 0.7, gamma1 = 0.6) study config and return its path."""
    path = tmp_path / name
    path.write_text(json.dumps({"cells": [{"p": 0.7, "gamma1": 0.6, "N": big_n}],
                                "replicates": replicates, "master_seed": seed}))
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
    path.write_text("")
    assert main(["estimate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: empty CSV: expected header x,y\n"


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
    # on 4 rows the gamma2 scan is refused as too small before it reads
    # theta; full_report checks theta first, so these are bad input too
    report = tmp_path / "r.json"
    for theta in ("0.9", "nan"):
        args = ["estimate", _complete_csv(tmp_path), "--k", "2", "--theta", theta]
        assert main(args + ["--json", str(report)]) == 2
        assert capsys.readouterr().err == "error: theta must lie in [0, 0.5]\n"
        assert not report.exists() and not (tmp_path / "r.json.manifest.json").exists()


def _tied_top_csv(tmp_path):
    # the 20 largest x tie at 50.0: the gamma1 path reads 0 up to rounding for k < 20
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(1.0, 45.0, 80), np.full(20, 50.0)])
    data = tmp_path / "tied.csv"
    TruncatedSample(x, x * rng.uniform(1.0, 5.0, 100)).to_csv(data)
    return str(data)


def test_estimate_writes_the_report_when_the_interval_is_refused(tmp_path, capsys):
    # k = 10 lies inside the tie and reads gamma1_hat = -4.4e-16
    out_json = tmp_path / "est.json"
    assert main(["estimate", _tied_top_csv(tmp_path), "--k", "10",
                 "--json", str(out_json)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out_json.read_text())
    assert report["k"] == 10 and report["gamma1_hat"] <= 0.0
    assert report["ci"] is None and report["sigma2_hat"] is None
    assert report["warnings"][-1].startswith("confidence interval refused: gamma1 must be > 0")


def test_estimate_scans_thresholds_above_a_tied_maximum(tmp_path, capsys):
    data = _tied_top_csv(tmp_path)
    out_json = tmp_path / "est.json"
    code = main(["estimate", data, "--json", str(out_json)])
    report = json.loads(out_json.read_text())
    assert report["k"] >= 20
    path = gamma1_path(TruncatedSample.from_csv(data))
    assert report["k"] == tail_index.select_k_dispersion(path, 0.3, k_min=20)
    assert report["k"] == 41 and report["gamma1_hat"] == pytest.approx(0.2196, abs=1e-4)
    # the exit status follows gamma2_hat <= gamma1_hat, a model violation here
    assert report["gamma2_hat"] <= report["gamma1_hat"] and report["ci"] is None
    assert code == cli.EXIT_MODEL
    assert capsys.readouterr().err.startswith(
        "error: model violation: gamma2_hat=0.167998 <= gamma1_hat=0.219646")


def test_estimate_reads_a_csv_with_a_utf8_byte_order_mark(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports open with one
    plain = Path(_simulated_csv(tmp_path))
    marked = tmp_path / "marked.csv"
    marked.write_text(plain.read_text(), encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert main(["estimate", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["estimate", str(marked)]) == 0
    assert capsys.readouterr().out == expected


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


def test_manifest_and_version_flag_report_the_package_version(tmp_path, capsys):
    out_json = str(tmp_path / "est.json")
    assert main(["estimate", _simulated_csv(tmp_path), "--json", out_json]) == 0
    manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
    assert set(manifest) == {"command", "parameters", "seeds", "library_version",
                             "python_version", "numpy_version", "input_digests",
                             "outputs", "created_utc"}
    assert manifest["library_version"] == trunctail.__version__
    assert manifest["python_version"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert manifest["numpy_version"] == np.__version__
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == trunctail.__version__


def test_replay_warns_once_on_a_library_version_mismatch_and_still_runs(tmp_path, capsys):
    data = _simulated_csv(tmp_path)
    out_json = tmp_path / "est.json"
    assert main(["estimate", data, "--json", str(out_json)]) == 0
    manifest_path = tmp_path / "est.json.manifest.json"
    assert main(["replay", str(manifest_path), "--outdir", str(tmp_path / "same")]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads(manifest_path.read_text())
    manifest["library_version"] = "0.0.0"
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", str(manifest_path), "--outdir", str(tmp_path / "old")]) == 0
    assert capsys.readouterr().err == (
        f"warning: the manifest was written by trunctail '0.0.0'; replaying with "
        f"{trunctail.__version__!r}, whose outputs may differ\n")
    assert (tmp_path / "old" / "est.json").read_bytes() == out_json.read_bytes()


def test_replay_warns_on_a_python_or_numpy_version_mismatch(tmp_path, capsys):
    out_json = tmp_path / "est.json"
    assert main(["estimate", _simulated_csv(tmp_path), "--json", str(out_json)]) == 0
    manifest_path = tmp_path / "est.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    python, numpy = manifest["python_version"], manifest["numpy_version"]
    manifest.update(python_version="3.9.0", numpy_version="1.0.0")
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", str(manifest_path), "--outdir", str(tmp_path / "old")]) == 0
    assert capsys.readouterr().err == (
        f"warning: the manifest was written by Python '3.9.0'; replaying with {python!r}, "
        "whose outputs may differ\n"
        f"warning: the manifest was written by numpy '1.0.0'; replaying with {numpy!r}, "
        "whose outputs may differ\n")
    assert (tmp_path / "old" / "est.json").read_bytes() == out_json.read_bytes()


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(trunctail.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("trunctail is not imported from a source checkout")
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == trunctail.__version__


def test_manifest_digest_is_of_the_bytes_parsed(tmp_path, capsys, monkeypatch):
    data = Path(_simulated_csv(tmp_path))
    parsed = data.read_bytes()
    real_read_csv = TruncatedSample.read_csv.__func__

    def read_then_append(cls, fh):
        sample = real_read_csv(cls, fh)
        with open(data, "a") as out:     # the file changes after it was parsed
            out.write("5,6\n")
        return sample

    monkeypatch.setattr(TruncatedSample, "read_csv", classmethod(read_then_append))
    out_json = tmp_path / "est.json"
    assert main(["estimate", str(data), "--json", str(out_json)]) == 0
    manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
    assert manifest["input_digests"] == {str(data): hashlib.sha256(parsed).hexdigest()}
    assert data.read_bytes() != parsed
    capsys.readouterr()


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    data = _simulated_csv(tmp_path)
    assert main(["estimate", data, "--json", str(tmp_path / "est.json")]) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["estimate", data, "--k", "20", "--no-ci"]) == 0
    assert main(["replay", str(tmp_path / "est.json.manifest.json"),
                 "--outdir", str(tmp_path / "again")]) == 0
    assert built == []
    capsys.readouterr()


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
        "simulate": ["simulate", "--config", _study_config(tmp_path, 150, 2, 2),
                     "--out", out],
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
    code = main(["simulate", "--config", _study_config(tmp_path, 150, 6, 1), "--out", prefix])
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


def test_simulate_config_writes_pinned_bytes(tmp_path, capsys):
    # the sha256 of what `simulate --p 0.7 --gamma1 0.6 --N 200 --N 2000
    # --reps 20 --seed 20260824` wrote before the inline cell flags were
    # removed; the same study as a config file writes the same bytes
    config = _study_config(tmp_path, [200, 2000], 20, 20260824)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "s")]) == 0
    digests = {suffix: hashlib.sha256((tmp_path / f"s.{suffix}").read_bytes()).hexdigest()
               for suffix in ("csv", "json")}
    assert digests == {
        "csv": "86433c534650b5c88c9146723e2e92e5b1144726a4527af08562ab8cc9f30b85",
        "json": "c5dfc5ca8a20570958d24a884b67cd5af57babec1f43ed8cdbb46f3a6c6ad06b",
    }
    capsys.readouterr()


def test_simulate_seed_overrides_the_config(tmp_path, capsys):
    config = _study_config(tmp_path, 150, 3, 7)
    assert main(["simulate", "--config", config, "--seed", "5",
                 "--out", str(tmp_path / "over")]) == 0
    manifest = json.loads((tmp_path / "over.manifest.json").read_text())
    assert manifest["seeds"] == {"master_seed": 5}
    assert manifest["parameters"]["config"]["master_seed"] == 5
    # the same bytes as a config that says master_seed 5 itself
    written = _study_config(tmp_path, 150, 3, 5, name="seed5.json")
    assert main(["simulate", "--config", written, "--out", str(tmp_path / "five")]) == 0
    for suffix in ("csv", "json"):
        assert ((tmp_path / f"over.{suffix}").read_bytes()
                == (tmp_path / f"five.{suffix}").read_bytes())
    capsys.readouterr()


def test_simulate_flag_validation(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"cells": [], "replicates": 2}))
    prefix = str(tmp_path / "s")
    assert main(["simulate", "--config", str(config), "--out", prefix]) == 2
    assert "/cells" in capsys.readouterr().err
    config = _study_config(tmp_path, 100, 2, 1)
    assert main(["simulate", "--config", config, "--threads", "0", "--out", prefix]) == 2
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    # the study comes from --config alone: no run without it, and no inline cell flag
    for extra in ([], ["--p", "0.5"], ["--gamma1", "0.6"], ["--delta", "0.5"],
                  ["--N", "100"], ["--reps", "3"], ["--variant", "lynden-bell"],
                  ["--theta", "0.1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"] + (extra + ["--config", config] if extra else [])
                 + ["--out", prefix])
        assert excinfo.value.code == 2
        assert (f"unrecognized arguments: {' '.join(extra)}" if extra
                else "the following arguments are required: --config"
                ) in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


def test_simulate_threads_do_not_change_bytes(tmp_path, capsys):
    args = ["simulate", "--config", _study_config(tmp_path, 200, 8, 3)]
    p1 = str(tmp_path / "one")
    p2 = str(tmp_path / "two")
    assert main(args + ["--threads", "1", "--out", p1]) == 0
    assert main(args + ["--threads", "2", "--out", p2]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    capsys.readouterr()


_BUFFERED_THEN_FORK_SCRIPT = """
import sys
from trunctail import StudyConfig, cli, run_study, seeding
seeding._worker_count = lambda: 2   # fork a child even on one core
sys.stdout.write("written once, before the fork\\n")   # held in the pipe's buffer
config = StudyConfig.from_dict({"cells": [{"p": 0.7, "gamma1": 0.6, "N": 150}],
                                "replicates": 4})
run_study(config, workers=2)
sys.exit(cli.main(["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
                   "--paths", "4", "--m", "64", "--seed", "1"]))
"""


def test_forked_study_children_do_not_repeat_buffered_output():
    # a child that left through sys.exit or a return would flush its copy
    # of the caller's stdout buffer, printing the line a second time; the
    # study and limit-check each fork one child with the line still held
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", _BUFFERED_THEN_FORK_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    line, _, report = done.stdout.partition("\n")
    assert line == "written once, before the fork"
    assert json.loads(report)["n_paths"] == 4   # one JSON document, written once


def test_simulate_all_replicates_degenerate_exits_4(tmp_path, capsys):
    # N=5 never keeps the 10 observed pairs a replicate needs
    assert main(["simulate", "--config", _study_config(tmp_path, 5, 3, 1),
                 "--out", str(tmp_path / "s")]) == 4
    assert "degenerate" in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


def test_simulate_draws_quantiles_beyond_the_expm1_range(tmp_path):
    # at p = 0.97 the truncation marginal is Burr(0.25, 19.4), whose
    # quantile needs expm1(t) ** 0.25 for t past expm1's range on a few
    # draws; each is a finite float, so every replicate completes
    config = tmp_path / "p97.json"
    config.write_text(json.dumps({"cells": [{"p": 0.97, "gamma1": 0.6, "N": 1000}],
                                  "replicates": 100, "master_seed": 1}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s.json").read_text())["rows"][0]["completed"] == 100


def test_simulate_names_a_draw_above_the_largest_float(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"cells": [{"p": 0.7, "gamma1": 1e300, "N": 100}],
                                  "replicates": 4, "master_seed": 1}))
    assert main(["simulate", "--config", str(config), "--threads", "2",
                 "--out", str(tmp_path / "s")]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: numeric failure: HeavyTailModel(tail_index=1e+300, ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "s.manifest.json").exists()


def test_simulate_inline_records_defaults_and_flags(tmp_path, capsys):
    # a config without delta, variant, theta or master_seed gets their defaults
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"cells": [{"p": 0.7, "gamma1": 0.6, "N": 150}],
                                 "replicates": 2}))
    chosen = tmp_path / "chosen.json"
    chosen.write_text(json.dumps({"cells": [{"p": 0.7, "gamma1": 0.6, "N": 150, "delta": 0.5}],
                                  "replicates": 2, "variant": "lynden-bell", "theta": 0.1}))
    assert main(["simulate", "--config", str(plain), "--out", str(tmp_path / "plain")]) == 0
    assert main(["simulate", "--config", str(chosen), "--out", str(tmp_path / "set")]) == 0
    plain = json.loads((tmp_path / "plain.manifest.json").read_text())["parameters"]
    chosen = json.loads((tmp_path / "set.manifest.json").read_text())["parameters"]
    assert plain["threads"] == 1
    assert (plain["config"]["variant"], plain["config"]["theta"],
            plain["config"]["cells"][0]["delta"], plain["config"]["master_seed"]) == (
                "woodroofe", 0.3, 0.25, 0)
    assert (chosen["config"]["variant"], chosen["config"]["theta"],
            chosen["config"]["cells"][0]["delta"]) == ("lynden-bell", 0.1, 0.5)
    capsys.readouterr()


def test_simulate_replay(tmp_path, capsys):
    prefix = str(tmp_path / "study")
    assert main(["simulate", "--config", _study_config(tmp_path, 150, 5, 2),
                 "--out", prefix]) == 0
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
                        "relative_error"}
    assert out["std_error"] == out["grid_variance"] * math.sqrt(2.0 / (out["n_paths"] - 1))
    assert main(["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
                 "--paths", "400", "--m", "512", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["std_error"] == out["std_error"]
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
def test_limit_check_bad_input_exits_2_before_any_child_is_forked(capsys, monkeypatch,
                                                                   flag, value):
    def no_fork(*args, **kwargs):
        raise AssertionError("a child was forked")

    monkeypatch.setattr(seeding, "_fork_slice", no_fork)
    monkeypatch.setattr(seeding, "_worker_count", lambda: 2)   # valid input would fork
    args = {"--gamma1": "0.6", "--gamma2": "1.4", "--paths": "100", "--m": "128",
            "--seed": "1", flag: value}
    code = main(["limit-check"] + [part for item in args.items() for part in item])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("gamma1,gamma2", [("1.3522987986828883", "1.3522987986828885"),
                                           ("0.6", "1e300")])
def test_limit_check_names_a_rho_that_rounds_to_an_end(capsys, gamma1, gamma2):
    # rho = 1 - gamma/gamma2 rounds to 1/2 and to 1 here, where the warped
    # grid and the segment weights are undefined
    code = main(["limit-check", "--gamma1", gamma1, "--gamma2", gamma2,
                 "--paths", "2", "--m", "16", "--seed", "1"])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numeric failure: rho = 1 - gamma/gamma2 rounds to ")
    assert captured.err.count("\n") == 1


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
    # scipy, plus what np.median (numpy.ma), a thread or process pool
    # (multiprocessing, concurrent.futures) and a distribution's metadata
    # (importlib.metadata) load
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                  or m in ("numpy.ma", "multiprocessing", "concurrent.futures",
                           "concurrent.futures.process", "importlib.metadata"))

csv_path, study_config, study_prefix, out_path = sys.argv[1:]
seen = {}
import trunctail
seen["import trunctail"] = watched_modules()
import trunctail.cli
seen["import trunctail.cli"] = watched_modules()
with contextlib.redirect_stdout(io.StringIO()):
    assert trunctail.cli.main(["limit-check", "--gamma1", "0.6", "--gamma2", "1.4",
                               "--paths", "200", "--m", "256", "--seed", "1"]) == 0
    seen["limit-check"] = watched_modules()
    assert trunctail.cli.main(["simulate", "--config", study_config,
                               "--out", study_prefix]) == 0
    seen["simulate"] = watched_modules()
    trunctail.seeding._worker_count = lambda: 2   # fork a child even on one core
    assert trunctail.cli.main(["simulate", "--config", study_config, "--threads", "2",
                               "--out", study_prefix]) == 0
    seen["simulate --threads 2"] = watched_modules()
    assert trunctail.cli.main(["estimate", csv_path]) == 0
    seen["estimate"] = watched_modules()
model = trunctail.TruncationModel(trunctail.burr(0.25, 0.6), trunctail.burr(0.25, 1.4))
model.observed_survivals(2.0)
seen["observed_survivals"] = watched_modules()
with open(out_path, "w") as fh:
    json.dump(seen, fh)
"""


def test_scipy_is_imported_only_by_the_calls_that_need_it(tmp_path):
    # a fresh interpreter, since this test process has scipy loaded already
    out_path = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, _simulated_csv(tmp_path),
                    _study_config(tmp_path, 150, 2, 1), str(tmp_path / "study"),
                    str(out_path)],
                   env=_child_env(), check=True, timeout=120)
    seen = json.loads(out_path.read_text())
    # neither scipy, numpy.ma, a thread or process pool nor importlib.metadata;
    # parallel runs fork children, and estimate's interval uses the package's
    # own normal quantile
    for step in ("import trunctail", "import trunctail.cli", "limit-check", "simulate",
                 "simulate --threads 2", "estimate", "observed_survivals"):
        assert seen[step] == [], step
