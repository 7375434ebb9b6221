import numpy as np

from sepnmf.bench import fig1_suite, fig2_suite, run_suites, tab2_suite


def test_fig1_rows_and_upper_bound(tmp_path):
    rows, records = fig1_suite(
        str(tmp_path), scale="tiny", seed=1, q_list=[1, 10], deltas=[0.0, 1.0], instances=3
    )
    assert len(rows) == 4
    for delta, q, mean_err, upper in rows:
        assert upper == delta
        if q == 10:
            assert mean_err <= 1.25 * delta + 1e-8


def test_fig2_rows_structure(tmp_path):
    methods = [("spa", None), ("mpspa", 1)]
    rows, records = fig2_suite(
        str(tmp_path), scale="tiny", seed=1, methods=methods, deltas=[0.0, 0.5], instances=2
    )
    assert len(rows) == 4
    assert all(0.0 <= r[3] <= 1.0 for r in rows)
    # zero-noise cells recover exactly
    assert all(r[3] == 1.0 for r in rows if r[0] == 0.0)


def test_tab2_selection_path_beats_svd_on_wide_shapes(tmp_path):
    # scaled-down sweep over wide shapes: construction time of the seeded
    # subspace engine stays below the truncated SVD on every shape
    shapes = [(50, 3000, 10), (100, 1000, 10)]
    rows, records = tab2_suite(str(tmp_path), seed=2, reps=1, q=10, shapes=shapes)
    by = {(r[0], r[1], r[3]): r for r in rows}
    for d, m, k in shapes:
        t_spa = by[(d, m, "spa")][5]
        t_svd = by[(d, m, "svd")][5]
        assert t_spa < t_svd, (d, m, t_spa, t_svd)
        assert by[(d, m, "spa")][7] <= 1.03 * by[(d, m, "svd")][7]


def test_run_suites_summary(tmp_path):
    ok_rows, failures, summary = run_suites(["fig1"], str(tmp_path), scale="tiny", seed=0)
    assert ok_rows > 0
    assert not failures
    assert "fig1" in summary
