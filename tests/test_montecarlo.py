import contextlib
import json
import math
import os
import signal

import numpy as np
import pytest

from trunctail import (DegenerateTailError, NumericError, StudyConfig, StudyReport,
                       StudyRow, burr, gamma1_path, gamma2_for_target_p,
                       run_cell, run_study, select_k_dispersion)
from trunctail import montecarlo
from trunctail.montecarlo import CSV_HEADER, CellSpec, _run_replicate
from trunctail.seeding import stable_key
from trunctail.truncation import TruncationModel


def _config(**overrides):
    data = {
        "cells": [{"p": 0.7, "gamma1": 0.6, "delta": 0.25, "N": [150, 300]}],
        "replicates": 8,
        "master_seed": 5,
    }
    data.update(overrides)
    return data


def test_config_round_trip():
    config = StudyConfig.from_dict(_config())
    again = StudyConfig.from_dict(config.to_dict())
    assert again == config
    assert config.cells[0] == CellSpec(0.7, 0.6, 0.25, (150, 300))
    assert config.theta == 0.3 and config.variant == "woodroofe"


def test_config_accepts_scalar_n_and_default_delta():
    config = StudyConfig.from_dict(
        {"cells": [{"p": 0.8, "gamma1": 0.6, "N": 500}], "replicates": 3})
    assert config.cells[0].sizes == (500,)
    assert config.cells[0].delta == 0.25


@pytest.mark.parametrize("mutate,pointer", [
    (lambda d: d.update(cells=[]), "/cells"),
    (lambda d: d.update(cells="no"), "/cells"),
    (lambda d: d["cells"][0].update(p=1.5), "/cells/0/p"),
    (lambda d: d["cells"][0].update(gamma1=-1.0), "/cells/0/gamma1"),
    (lambda d: d["cells"][0].update(N=[100, 1]), "/cells/0/N/1"),
    (lambda d: d["cells"][0].update(bogus=1), "/cells/0"),
    (lambda d: d.update(replicates=0), "/replicates"),
    (lambda d: d.update(variant="km"), "/variant"),
    (lambda d: d.update(theta=0.9), "/theta"),
    (lambda d: d.update(master_seed="x"), "/master_seed"),
    (lambda d: d.update(bogus=2), ""),
    # bool is an int in Python, but JSON true and false are not numbers
    pytest.param(lambda d: d["cells"][0].update(p=True), "/cells/0/p", id="true-p"),
    pytest.param(lambda d: d["cells"][0].update(gamma1=True), "/cells/0/gamma1",
                 id="true-gamma1"),
    pytest.param(lambda d: d["cells"][0].update(delta=True), "/cells/0/delta",
                 id="true-delta"),
    pytest.param(lambda d: d["cells"][0].update(N=True), "/cells/0/N", id="true-N"),
    pytest.param(lambda d: d.update(replicates=True), "/replicates", id="true-replicates"),
    pytest.param(lambda d: d.update(theta=False), "/theta", id="false-theta"),
    pytest.param(lambda d: d.update(master_seed=True), "/master_seed", id="true-master_seed"),
])
def test_config_pointer_diagnostics(mutate, pointer):
    data = _config()
    mutate(data)
    with pytest.raises(ValueError, match=f"config error at {pointer}:"):
        StudyConfig.from_dict(data)


def test_config_from_json_rejects_bad_text():
    with pytest.raises(ValueError, match="not valid JSON"):
        StudyConfig.from_json("{nope")


def test_single_replicate_matches_manual_computation():
    # reproduce replicate 0 of a cell by hand from the same seed chain
    p, gamma1, delta, big_n, seed = 0.7, 0.6, 0.25, 400, 13
    row = run_cell(p, gamma1, delta, big_n, replicates=1, seed=seed)
    rep_seed = stable_key("replicate", seed, 0)
    model = TruncationModel(burr(delta, gamma1),
                            burr(delta, gamma2_for_target_p(gamma1, p)))
    sample = model.sample(big_n, rep_seed)
    path = gamma1_path(sample)
    k_star = select_k_dispersion(path, 0.3)
    assert row.completed == 1
    assert row.mean_n == sample.n
    assert row.mean_k_star == k_star
    assert row.abs_bias == pytest.approx(abs(path[k_star] - gamma1), rel=1e-14)
    assert row.rmse == pytest.approx(abs(path[k_star] - gamma1), rel=1e-14)


def test_run_replicate_top_level_contract():
    rep_seed = stable_key("replicate", 13, 0)
    out = _run_replicate((0.7, 0.6, 0.25, 400, "woodroofe", 0.3, rep_seed))
    assert out is not None
    n, k_star, gamma1_hat = out
    assert n > 0 and k_star >= 4 and np.isfinite(gamma1_hat)
    # tiny big_n cannot reach the 10-pair floor
    assert _run_replicate((0.7, 0.6, 0.25, 5, "woodroofe", 0.3, rep_seed)) is None


def test_run_cell_worker_count_is_immaterial():
    serial = run_cell(0.7, 0.6, 0.25, 250, replicates=12, seed=3, workers=1)
    parallel = run_cell(0.7, 0.6, 0.25, 250, replicates=12, seed=3, workers=2)
    assert serial == parallel


_THREE_CELLS = {
    "cells": [{"p": 0.7, "gamma1": 0.6, "N": [150, 200]},
              {"p": 0.8, "gamma1": 0.8, "N": [180]}],
    "replicates": 4,
    "master_seed": 11,
}


def test_one_child_per_extra_slice_capped_at_task_count(monkeypatch):
    forks, joins, ran, in_child = [], [], [], [False]

    def fork_in_process(tasks):
        """Stands in for _fork_slice: runs the slice in-process at once,
        flagged as a child's, and returns a stand-in pid with its result."""
        in_child[0] = True
        try:
            result = montecarlo._run_slice(tasks)
        finally:
            in_child[0] = False
        forks.append(len(forks) + 1)
        return forks[-1], result

    def join_in_process(pid, result):
        """Stands in for _join_slice: the child exited 0 with its result."""
        joins.append(pid)
        return 0, result

    replicate = montecarlo._run_replicate

    def recorded(task):
        ran.append((task, in_child[0]))
        return replicate(task)

    def split():
        """Tasks run by the caller, and by the children in fork order."""
        return ([task for task, child in ran if not child],
                [task for task, child in ran if child])

    def children_of(study):
        """One study run's result and the children it forked, each
        joined once, in fork order."""
        forks.clear()
        joins.clear()
        result = study()
        assert joins == forks
        return result, len(forks)

    monkeypatch.setattr(montecarlo, "_fork_slice", fork_in_process)
    monkeypatch.setattr(montecarlo, "_join_slice", join_in_process)
    monkeypatch.setattr(montecarlo, "_run_replicate", recorded)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 64)
    serial, children = children_of(
        lambda: run_cell(0.7, 0.6, 0.25, 150, replicates=3, seed=3, workers=1))
    tasks = [task for task, _ in ran]
    assert children == 0 and len(tasks) == 3
    ran.clear()
    # capped at the task count: 3 processes, the caller and two children
    assert children_of(
        lambda: run_cell(0.7, 0.6, 0.25, 150, replicates=3, seed=3, workers=8)) == (serial, 2)
    assert split() == (tasks[::3], tasks[1::3] + tasks[2::3])

    config = StudyConfig.from_dict(_THREE_CELLS)
    ran.clear()
    serial = run_study(config, workers=1)
    tasks = [task for task, _ in ran]
    assert len(tasks) == 12
    # capped at the cores: 5 processes, the caller and four children
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 5)
    ran.clear()
    assert children_of(lambda: run_study(config, workers=64)) == (serial, 4)
    assert split() == (tasks[::5], [t for w in range(1, 5) for t in tasks[w::5]])
    # one core: the serial loop, no child
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
    assert children_of(lambda: run_study(config, workers=64)) == (serial, 0)
    # no os.fork: the serial loop too, whatever the cores
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 64)
    monkeypatch.delattr(os, "fork")
    assert children_of(lambda: run_study(config, workers=64)) == (serial, 0)


@pytest.fixture
def forked_pids(monkeypatch):
    """Pids of the study's forked children not yet reaped; a run that has
    not returned in 60 s kills them and fails instead of stalling the suite."""
    pids = []
    fork_slice, join_slice = montecarlo._fork_slice, montecarlo._join_slice

    def forked(tasks):
        child = fork_slice(tasks)
        pids.append(child[0])
        return child

    def joined(pid, pipe):
        result = join_slice(pid, pipe)
        pids.remove(pid)   # reaped: the pid may now belong to another process
        return result

    def hung(*_):
        for pid in pids:   # else the caller's read of its pipe waits on it
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        raise TimeoutError("run_study did not return in time")

    monkeypatch.setattr(montecarlo, "_fork_slice", forked)
    monkeypatch.setattr(montecarlo, "_join_slice", joined)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _failing_at(monkeypatch, failures):
    """A one-cell, 4-replicate study whose replicate r raises failures[r]()."""
    config = StudyConfig.from_dict(_config(cells=[{"p": 0.7, "gamma1": 0.6, "N": 150}],
                                           replicates=4))
    cell_seed = stable_key("cell", 5, 0.7, 0.6, 0.25, 150)
    seeds = [stable_key("replicate", cell_seed, r) for r in range(4)]
    replicate = montecarlo._run_replicate

    def flaky(task):
        r = seeds.index(task[-1])
        if r in failures:
            raise failures[r]()
        return replicate(task)

    monkeypatch.setattr(montecarlo, "_run_replicate", flaky)
    return config


@pytest.mark.parametrize("failing", [{0}, {1}, {1, 2}, {2, 3}])
def test_failing_replicate_raises_as_in_a_serial_run(monkeypatch, forked_pids, failing):
    # real forked children: at 2 workers replicates 0 and 2 run in the
    # caller, 1 and 3 in the child, at 3 workers 0 and 3 in the caller;
    # the lowest failing replicate's NumericError surfaces wherever it
    # was raised
    config = _failing_at(monkeypatch, {
        r: lambda r=r: NumericError(f"replicate {r} did not converge") for r in failing})
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
    expected = f"^replicate {min(failing)} did not converge$"
    for workers in (1, 2, 3):
        with pytest.raises(NumericError, match=expected):
            run_study(config, workers=workers)
    assert forked_pids == []


class _TwoArgError(Exception):
    """Pickles, but loading it calls __init__ with one argument and fails."""

    def __init__(self, replicate, reason):
        super().__init__(f"replicate {replicate} {reason}")


@pytest.mark.parametrize("kind", ["local-class", "two-arg-init"])
@pytest.mark.parametrize("child_replicate", [1, 3])
def test_unpicklable_child_exception_surfaces_as_text(monkeypatch, forked_pids, kind,
                                                      child_replicate):
    # replicates 0 and 2 run in the caller, 1 and 3 in the child; the
    # child's exception cannot cross the pipe and arrives as a
    # RuntimeError holding its repr, and the lower index still wins
    # against the caller's NumericError at replicate 2
    class LocalError(Exception):
        pass

    def unsendable():
        if kind == "local-class":
            return LocalError(f"replicate {child_replicate} cannot travel")
        return _TwoArgError(child_replicate, "cannot travel")

    config = _failing_at(monkeypatch, {
        child_replicate: unsendable,
        2: lambda: NumericError("replicate 2 did not converge")})
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    with pytest.raises(RuntimeError) as raised:
        run_study(config, workers=2)
    if child_replicate == 1:
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == repr(unsendable())
    else:
        assert type(raised.value) is NumericError
        assert str(raised.value) == "replicate 2 did not converge"
    assert forked_pids == []


def test_a_child_that_exits_without_a_result_is_named_and_reaped(monkeypatch, forked_pids):
    parent, run_slice = os.getpid(), montecarlo._run_slice

    def dies_in_a_child(tasks):
        if os.getpid() != parent:
            os._exit(3)
        return run_slice(tasks)

    monkeypatch.setattr(montecarlo, "_run_slice", dies_in_a_child)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
    with pytest.raises(RuntimeError, match="^study worker 1 exited with code 3 and no result$"):
        run_study(StudyConfig.from_dict(_THREE_CELLS), workers=3)
    assert forked_pids == []
    with pytest.raises(ChildProcessError):   # both children reaped, none left behind
        os.waitpid(-1, os.WNOHANG)


def test_run_study_parallel_bytes_match_serial_across_cells():
    # three cells share one task list; slicing it back per cell must
    # give every cell the row a serial run gives
    config = StudyConfig.from_dict(_THREE_CELLS)
    serial = run_study(config, workers=1).to_csv_text()
    assert serial.count("\n") == 4
    assert run_study(config, workers=2).to_csv_text() == serial


def test_run_study_names_the_degenerate_cell():
    config = StudyConfig.from_dict({
        "cells": [{"p": 0.7, "gamma1": 0.6, "N": [150, 2]},
                  {"p": 0.8, "gamma1": 0.8, "N": [180]}],
        "replicates": 3,
    })
    with pytest.raises(DegenerateTailError, match=r"p=0\.7, gamma1=0\.6, N=2\)"):
        run_study(config)


def test_run_cell_mean_observed_fraction():
    row = run_cell(0.7, 0.6, 0.25, 1000, replicates=30, seed=4)
    assert row.completed == 30
    assert abs(row.mean_n / 1000.0 - 0.7) < 0.04
    assert row.rmse >= row.abs_bias  # rmse dominates |bias| always


def test_run_cell_degenerate_when_nothing_survives():
    with pytest.raises(DegenerateTailError):
        run_cell(0.7, 0.6, 0.25, 2, replicates=3, seed=0)


def test_run_study_cell_order_immaterial():
    base = {
        "cells": [{"p": 0.7, "gamma1": 0.6, "N": [150]},
                  {"p": 0.8, "gamma1": 0.8, "N": [200]}],
        "replicates": 6,
        "master_seed": 9,
    }
    flipped = dict(base, cells=list(reversed(base["cells"])))
    rows_a = run_study(StudyConfig.from_dict(base)).rows
    rows_b = run_study(StudyConfig.from_dict(flipped)).rows
    assert rows_a == tuple(reversed(rows_b))


def test_run_study_seed_changes_results():
    base = _config(replicates=4)
    a = run_study(StudyConfig.from_dict(base))
    b = run_study(StudyConfig.from_dict(dict(base, master_seed=6)))
    assert a.rows[0].rmse != b.rows[0].rmse


def test_report_csv_shape_and_round_trip():
    report = run_study(StudyConfig.from_dict(_config(replicates=3)))
    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    # repr round-trip: parsing the text reproduces the float exactly
    assert float(first[3]) == report.rows[0].mean_n
    assert float(first[6]) == report.rows[0].rmse
    assert int(first[2]) == report.rows[0].big_n
    payload = report.to_dict()
    assert payload["rows"][0]["N"] == report.rows[0].big_n
    assert set(payload["rows"][0]) == {"p", "gamma1", "N", "mean_n",
                                       "mean_k_star", "abs_bias", "rmse",
                                       "completed"}


def test_report_files(tmp_path):
    report = StudyReport((StudyRow(0.7, 0.6, 100, 70.5, 9.25, 0.1, 0.3, 50),))
    csv_file = tmp_path / "out.csv"
    report.to_csv(csv_file)
    assert csv_file.read_text() == (
        "p,gamma1,N,mean_n,mean_k_star,abs_bias,rmse,completed\n"
        "0.7,0.6,100,70.5,9.25,0.1,0.3,50\n"
    )
    # the CSV columns and the JSON keys come from the one CSV_HEADER
    assert report.to_dict() == {"rows": [{
        "p": 0.7, "gamma1": 0.6, "N": 100, "mean_n": 70.5, "mean_k_star": 9.25,
        "abs_bias": 0.1, "rmse": 0.3, "completed": 50}]}
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


def test_estimates_center_on_truth_in_study_cell():
    # the estimator should track gamma1 in a mid-sized cell: bias well
    # below the spread
    row = run_cell(0.7, 0.6, 0.25, 1000, replicates=60, seed=8)
    assert row.abs_bias < 0.2
    assert 0.1 < row.rmse < 0.6
    spread = row.rmse / math.sqrt(row.completed)
    assert row.abs_bias < 6.0 * spread + 0.1
