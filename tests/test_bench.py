import importlib.util
import os

import numpy as np

from sepnmf import bench, lowrank
from sepnmf.bench import _fig2_worker, _tab2_worker, fig1_suite, run_suites, selector_grid
from sepnmf.cli import _method_list, main
from sepnmf.errors import SepnmfError
from sepnmf.lowrank import spa_rank_approx
from sepnmf.select import DEFAULT_BOUNDARY_TOL, DEFAULT_EPS

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def test_fig1_rows_and_upper_bound(tmp_path):
    rows, records = fig1_suite(str(tmp_path), scale="tiny", seed=1)
    assert len(rows) == len(bench.DELTA_GRID) * len(bench.Q_GRID)
    for delta, q, mean_err, upper in rows:
        assert upper == delta
        if q == 10:
            assert mean_err <= 1.25 * delta + 1e-8


def test_fig1_worker_forms_one_gram_matrix_per_matrix(monkeypatch):
    formed, form = [], lowrank.gram_matrix
    monkeypatch.setattr(lowrank, "gram_matrix", lambda A: formed.append(1) or form(A))
    seeded, pick = [], lowrank.spa_core
    monkeypatch.setattr(lowrank, "spa_core", lambda A, k: seeded.append(1) or pick(A, k))
    task = (20, 300, 4, 3, (1, 2, 10), (0.0, 1.0))
    rows = bench._fig1_worker(task)
    assert len(formed) == len(seeded) == 2  # one G and one seed per noise level, for its three q
    base = bench.generate_instance(20, 300, 4, 1.0, 3)
    for row in rows:
        A = bench.rescale_noise(base, row["delta_mult"] * bench.sigma_min(base.F)).A
        assert row["abs_error"] == spa_rank_approx(A, 4, row["q"]).error2


def test_fig2_rows_structure(tmp_path):
    # fig2's tiny grid shape, on two of its methods and noise levels
    methods = [("spa", None), ("mpspa", 1)]
    rows, records = selector_grid(str(tmp_path / "fig2.csv"), *bench._SCALES["tiny"]["fig_shape"],
                                  1, 2, methods, [0.0, 0.5])
    assert len(rows) == 4
    assert all(0.0 <= r[3] <= 1.0 for r in rows)
    # zero-noise cells recover exactly
    assert all(r[3] == 1.0 for r in rows if r[0] == 0.0)


def test_select_grid_zero_noise_recovers_exactly():
    # perfbench's select-grid checks exact recovery at t = 0 on 50 x 2000, k = 10
    # instances, larger than any other zero-noise selector test: its warm-up
    # instance and op 0's instances for benchmark seeds 1-12, which the CLI's
    # batch mode seeds at cli_seed * 100_003
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    grid = workloads.SelectGrid
    methods = tuple(_method_list(grid.METHODS))
    for cli_seed in [grid.WARMUP_SEED] + [seed * 1000 for seed in range(1, 13)]:
        task = (50, 2000, 10, cli_seed * 100_003, methods, (0.0,), DEFAULT_EPS,
                DEFAULT_BOUNDARY_TOL, "sigmin")
        rows = _fig2_worker(task)
        missed = [(row["method"], row["q"]) for row in rows if row["recovery_rate"] != 1.0]
        assert len(rows) == len(methods) and not missed, (cli_seed, missed)


def test_tab2_selection_path_beats_svd_on_wide_shapes():
    # scaled-down sweep over wide shapes: construction time of the seeded
    # subspace engine stays below the truncated SVD on every shape
    for d, m, k in [(50, 3000, 10), (100, 1000, 10)]:
        by = {r["method"]: r for r in _tab2_worker((d, m, k, 10, 2 * 100_003))}
        t_spa = by["spa"]["time_seconds"]
        t_svd = by["svd"]["time_seconds"]
        assert t_spa < t_svd, (d, m, t_spa, t_svd)
        assert by["spa"]["rel_error"] <= 1.03 * by["svd"]["rel_error"]


def test_run_suites_summary(tmp_path):
    ok_rows, failures, summary = run_suites(["fig1"], str(tmp_path), scale="tiny", seed=0)
    assert ok_rows > 0
    assert not failures
    assert "fig1" in summary


def test_bench_all_exits_3_when_one_suite_fails(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SepnmfError("fig2 broke")

    monkeypatch.setitem(bench.SUITES, "fig2", boom)
    assert main(["bench", "all", "--scale", "tiny", "--out", str(tmp_path)]) == 3
    summary = (tmp_path / "summary.txt").read_text()
    lines = summary.splitlines()
    assert lines[2] == "fig2: FAILED (fig2 broke)"
    assert " rows in " in lines[1] and " rows in " in lines[3]
    assert summary in capsys.readouterr().out
    # every suite failing still means no rows
    for name in ("fig1", "tab2"):
        monkeypatch.setitem(bench.SUITES, name, boom)
    assert main(["bench", "all", "--scale", "tiny", "--out", str(tmp_path)]) == 4
