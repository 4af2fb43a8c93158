"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced at sizes that take
seconds, and every metric named in BENCHMARK.json must come out with its
unit.  The repository's own test suite does not collect this file.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOY = {
    "estimate": {"big_n": 400},
    "study": {"big_n": [150], "replicates": 3},
    "limit": {"m": 256, "paths": 40, "layer_calls": 5},
    "scaling": {"small_n": 300, "large_n": 900, "repeats": 1},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    rec = run.run(workload, seed=3, seconds=0.0, trace=trace, sizes=TOY, min_ops=3)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in rec["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in rec["metrics"].values())
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 3


def test_without_package_source_exits_nonzero_and_prints_no_result():
    copy = run.WORKDIR / "no-src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "limit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=copy, capture_output=True, text=True, timeout=60)
    shutil.rmtree(copy)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _record(workload, seconds_per_op, seed):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["op_p50_s"]["value"] = seconds_per_op
    return {"workload": workload, "seed": seed, "trace": 0, "attempted": 40, "failed": 0,
            "metrics": metrics, "outputs_sha256": "0", "digest_ops": 40}


def test_compare_flags_only_changes_beyond_the_bound(capsys):
    files = run.WORKDIR / "compare"
    files.mkdir(parents=True, exist_ok=True)
    base, change = files / "base.jsonl", files / "change.jsonl"
    base.write_text("".join(json.dumps(_record("limit", t, s)) + "\n"
                            for s, t in enumerate((1.00, 1.01, 0.99))))
    change.write_text("".join(json.dumps(_record("limit", t, s)) + "\n"
                              for s, t in enumerate((1.50, 1.51, 1.49))))
    assert run.compare(str(base), str(change)) == 1
    verdicts = {line.split()[0]: line.rsplit(": ", 1)[1]
                for line in capsys.readouterr().out.splitlines() if "(bound" in line}
    assert verdicts == {"setup_s": "within bound", "op_p50_s": "WORSE", "op_p75_s": "within bound",
                        "items_per_s": "within bound", "peak_rss_mb": "within bound"}
    assert run.compare(str(base), str(base)) == 0
