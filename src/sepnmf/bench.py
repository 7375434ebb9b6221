"""Benchmark suites behind the `bench` subcommand.

fig1     approximation error of the seeded-column rank-k engine across a
         noise grid and power exponents.
fig2     recovery rate of the selector family across the same grid; the
         same grid run (`selector_grid`) backs `select --instances`.
tab2     wall time and error of the rank-k engines against the truncated
         SVD on wide shapes.

Every row carries enough seeds to reproduce it. Suites emit CSV + JSON
plus a plain-text summary; each CSV row is the mean of its cell's
records (`_cell_means`). Instance-level work can fan out over
processes (--jobs); results are reassembled in task order so the output
does not depend on the worker count.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .io import write_csv_rows, write_json
from .linalg import spectral_norm
from .lowrank import APPROX_NAMES, RankK, approximate
from .metrics import recovery_rate
from .reports import stage
from .select import DEFAULT_BOUNDARY_TOL, DEFAULT_EPS, Analysis
from .synth import generate_instance, rescale_noise, sigma_min

# perfbench/tracing.py times every grid selector call through this name
run_selector = Analysis.select

DELTA_GRID = [round(0.1 * i, 1) for i in range(21)]  # multipliers of sigma_min(F)
Q_GRID = [1, 2, 5, 10, 15]

FIG2_METHODS = [
    ("spa", None),
    ("pspa", None),
    ("mpspa", 1),
    ("mpspa", 2),
    ("mpspa", 5),
    ("mpspa", 10),
    ("mpspa", 15),
    ("erspa", None),
    ("merspa", 1),
    ("merspa", 15),
]

_SCALES = {
    "desk": {"fig_shape": (50, 2000, 10), "fig_instances": 20},
    "tiny": {"fig_shape": (20, 300, 4), "fig_instances": 3},
}

_TAB2_SHAPES = {
    "desk": [(50, 3000, 10), (50, 5000, 10), (100, 1000, 10), (100, 20000, 10)],
    "tiny": [(20, 400, 5), (30, 300, 5)],
}
_TAB2_DELTA_MULT = 1.0  # tab2's noise, in multiples of sigma_min(F)
_TAB2_REPS, _TAB2_Q = 3, 10  # tab2's runs per shape and the engines' power exponent


def _run_tasks(tasks, worker, jobs):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def _cell_means(records, keys, cells, fields):
    """For each cell, a tuple of values of `keys` in output order, the mean
    of each of `fields` over the records in that cell."""
    means = []
    for cell in cells:
        sel = [r for r in records if tuple(r[key] for key in keys) == cell]
        means.append(tuple(float(np.mean([r[f] for r in sel])) for f in fields))
    return means


def _fig1_worker(task):
    d, m, k, seed, q_list, deltas = task
    base = generate_instance(d, m, k, 1.0, seed)
    smin = sigma_min(base.F)
    rows = []
    for t in deltas:
        inst = rescale_noise(base, t * smin)
        rk = RankK(inst.A, k)  # one seed and one A A^T for every q on this matrix
        for q in q_list:
            ap = rk.approximate("spa", q)
            rows.append(
                {
                    "delta_mult": t,
                    "delta": inst.delta,
                    "q": q,
                    "abs_error": ap.error2,
                    "seed": seed,
                    "timing": ap.timings,
                }
            )
    return rows


def fig1_suite(out_dir, scale="desk", seed=0, jobs=1):
    cfg = _SCALES[scale]
    d, m, k = cfg["fig_shape"]
    n_inst = cfg["fig_instances"]
    tasks = [(d, m, k, seed * 100_003 + i, tuple(Q_GRID), tuple(DELTA_GRID)) for i in range(n_inst)]
    records = [row for rows in _run_tasks(tasks, _fig1_worker, jobs) for row in rows]
    cells = [(t, q) for t in DELTA_GRID for q in Q_GRID]
    means = _cell_means(records, ("delta_mult", "q"), cells, ("delta", "abs_error"))
    csv_rows = [(delta, q, err, delta) for (_, q), (delta, err) in zip(cells, means)]
    _emit(
        os.path.join(out_dir, "fig1.csv"),
        ["delta", "q", "mean_abs_error", "best_error_upper"],
        csv_rows,
        {"shape": [d, m, k], "instances": n_inst, "seed": seed, "records": records},
    )
    return csv_rows, records


def _fig2_worker(task):
    d, m, k, seed, methods, deltas, eps, boundary_tol, unit = task
    base = generate_instance(d, m, k, 1.0, seed)
    scale = sigma_min(base.F) if unit == "sigmin" else 1.0
    rows = []
    for t in deltas:
        inst = rescale_noise(base, t * scale)
        analysis = Analysis(inst.A, k, eps)
        for method, q in methods:
            res = run_selector(analysis, method, q, boundary_tol)
            rows.append(
                {
                    "delta_mult": t,
                    "delta": inst.delta,
                    "method": method,
                    "q": q,
                    "recovery_rate": recovery_rate(res.indices, inst.true_indices),
                    "seed": seed,
                    "timing": res.timing,
                    "notes": list(res.notes),
                }
            )
    return rows


def selector_grid(csv_path, d, m, k, seed, instances, methods, deltas, eps=DEFAULT_EPS,
                  boundary_tol=DEFAULT_BOUNDARY_TOL, unit="sigmin", jobs=1):
    """Mean recovery rate of each (delta, method, q) cell over seeded instances.

    deltas are multipliers of each instance's sigma_min(F) (unit "sigmin")
    or absolute noise norms (unit "abs"). Each noisy instance gets one
    Analysis (tolerance eps) that every method runs on, with boundary_tol.
    Writes csv_path and the records as JSON beside it; returns (csv_rows, records).
    """
    tasks = [
        (d, m, k, seed * 100_003 + i, tuple(methods), tuple(deltas), eps, boundary_tol, unit)
        for i in range(instances)
    ]
    records = [row for rows in _run_tasks(tasks, _fig2_worker, jobs) for row in rows]
    cells = [(t, method, q) for t in deltas for method, q in methods]
    means = _cell_means(records, ("delta_mult", "method", "q"), cells, ("delta", "recovery_rate"))
    csv_rows = [
        (delta, method, "" if q is None else q, rec)
        for (_, method, q), (delta, rec) in zip(cells, means)
    ]
    _emit(
        csv_path,
        ["delta", "method", "q", "mean_recovery"],
        csv_rows,
        {"shape": [d, m, k], "instances": instances, "seed": seed, "records": records},
    )
    return csv_rows, records


def fig2_suite(out_dir, scale="desk", seed=0, jobs=1):
    cfg = _SCALES[scale]
    return selector_grid(os.path.join(out_dir, "fig2.csv"), *cfg["fig_shape"], seed,
                         cfg["fig_instances"], FIG2_METHODS, DELTA_GRID, jobs=jobs)


def _tab2_worker(task):
    d, m, k, q, seed = task
    base = generate_instance(d, m, k, 1.0, seed)
    inst = rescale_noise(base, _TAB2_DELTA_MULT * sigma_min(base.F))
    norm_a = spectral_norm(inst.A)
    rows = []
    for method in APPROX_NAMES:
        ap = approximate(inst.A, k, method, q, 0, seed)  # each engine pays for its seed and G
        rows.append(
            {
                "d": d,
                "m": m,
                "k": k,
                "method": method,
                "q": "" if method == "svd" else q,
                "seed": seed,
                # the engine's own stages; measuring its error is not part of the method
                "time_seconds": sum(ap.timings.values()) - ap.timings["error_norm"],
                "abs_error": ap.error2,
                "rel_error": ap.error2 / norm_a,
            }
        )
    return rows


def tab2_suite(out_dir, scale="desk", seed=0, jobs=1):
    shapes, q = _TAB2_SHAPES[scale], _TAB2_Q
    tasks = [(d, m, k, q, seed * 100_003 + rep) for d, m, k in shapes for rep in range(_TAB2_REPS)]
    records = [row for rows in _run_tasks(tasks, _tab2_worker, jobs) for row in rows]
    cells = [(d, m, k, method) for d, m, k in shapes for method in APPROX_NAMES]
    means = _cell_means(
        records, ("d", "m", "k", "method"), cells, ("time_seconds", "abs_error", "rel_error")
    )
    csv_rows = [
        (d, m, k, method, "" if method == "svd" else q, *mean)
        for (d, m, k, method), mean in zip(cells, means)
    ]
    _emit(
        os.path.join(out_dir, "tab2.csv"),
        ["d", "m", "k", "method", "q", "mean_time_s", "mean_abs_error", "mean_rel_error"],
        csv_rows,
        {"shapes": shapes, "reps": _TAB2_REPS, "seed": seed, "q": q, "records": records},
    )
    return csv_rows, records


def _emit(csv_path, header, csv_rows, meta):
    os.makedirs(os.path.dirname(csv_path) or ".", exist_ok=True)
    write_csv_rows(csv_path, header, csv_rows)
    write_json(os.path.splitext(csv_path)[0] + ".json", meta)


SUITES = {
    "fig1": fig1_suite,
    "fig2": fig2_suite,
    "tab2": tab2_suite,
}


def run_suites(names, out_dir, scale="desk", seed=0, jobs=1):
    """Run the named suites; returns (ok_rows, failures, summary_text)."""
    ok_rows = 0
    failures = []
    lines = [f"bench scale={scale} seed={seed} jobs={jobs}"]
    timings = {}
    for name in names:
        try:
            with stage(timings, name):
                rows, _ = SUITES[name](out_dir, scale=scale, seed=seed, jobs=jobs)
            ok_rows += len(rows)
            lines.append(f"{name}: {len(rows)} rows in {timings[name]:.1f}s")
        except Exception as exc:  # partial failures carry their error strings
            failures.append((name, str(exc)))
            lines.append(f"{name}: FAILED ({exc})")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    return ok_rows, failures, summary
