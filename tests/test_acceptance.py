"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Scaled-down trend replications plus property suites; every tolerance is
pinned here, not configured elsewhere. Criteria involving the real
hyperspectral datasets are a documented manual procedure (see README)
and are intentionally absent.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import khachiyan_logdet, naive_spa, projector_approx, simplex_lsq_oracle

from sepnmf.linalg import singular_values, spectral_norm, svd_truncated
from sepnmf.lowrank import bound_report, spa_rank_approx
from sepnmf.metrics import estimate_abundances, recovery_rate
from sepnmf.mvee import ellipsoid_support, solve_mvee
from sepnmf.reports import strip_timing
from sepnmf.rng import SplitMix64
from sepnmf.select import (
    erspa_select,
    merspa_select,
    mpspa_select,
    prewhiten_spa_select,
    pspa_select,
    spaspa_select,
)
from sepnmf.spa import spa_select
from sepnmf.synth import generate_instance, rescale_noise, robust_noise_bound, sigma_min

RHO_CONST = (323.0 - 81.0 * np.sqrt(5.0)) / 324.0


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _budget(num, name, started, minutes):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {num:02d} [{name}]: runtime {elapsed:.1f}s (budget {minutes} min)")
    assert elapsed < minutes * 60, f"criterion {num} exceeded its {minutes} min budget"


# --- 1: zero-noise exactness -------------------------------------------------

def test_c01_zero_noise_exactness():
    started = time.time()
    shapes = [(10, 80, 3), (30, 400, 5), (50, 1000, 8)]
    failures = []
    for d, m, k in shapes:
        for i in range(100):
            inst = generate_instance(d, m, k, 0.0, seed=10_000 + i)
            truth = inst.true_indices
            runs = {
                "spa": lambda A: spa_select(A, k),
                "pspa": lambda A: pspa_select(A, k).indices,
                "mpspa_q0": lambda A: mpspa_select(A, k, 0).indices,
                "mpspa_q1": lambda A: mpspa_select(A, k, 1).indices,
                "mpspa_q10": lambda A: mpspa_select(A, k, 10).indices,
                "erspa": lambda A: erspa_select(A, k).indices,
                "merspa": lambda A: merspa_select(A, k, 10).indices,
                "prewhiten": lambda A: prewhiten_spa_select(A, k).indices,
                "spaspa": lambda A: spaspa_select(A, k).indices,
            }
            for name, fn in runs.items():
                if recovery_rate(fn(inst.A), truth) != 1.0:
                    failures.append(((d, m, k), i, name))
    _verdict(1, "zero-noise exactness", not failures, f"failures={failures[:5]}")
    _budget(1, "zero-noise exactness", started, 2)


# --- 2 & 3: bound suite on a shared batch ------------------------------------

@pytest.fixture(scope="module")
def bound_batch():
    t0 = time.time()
    reports = []
    for i in range(200):
        base = generate_instance(30, 400, 5, 1.0, seed=20_000 + i)
        inst = rescale_noise(base, 0.9 * robust_noise_bound(base.F))
        smin_f = sigma_min(inst.F)
        for q in (1, 2, 5):
            ap = spa_rank_approx(inst.A, 5, q)
            reports.append((bound_report(inst.A, ap), smin_f, inst.delta))
    return reports, time.time() - t0


def test_c02_error_bound_suite(bound_batch):
    bound_batch, build_s = bound_batch
    started = time.time() - build_s
    bad = []
    for rep, _, delta in bound_batch:
        ok = (
            rep.achieved_error < rep.error_bound + 1e-10
            and rep.rank_b == 5
            and rep.achieved_error < 1.00003 * rep.sigma_k1
        )
        if not ok:
            bad.append((rep.q, rep.achieved_error, rep.error_bound, rep.rank_b))
    _verdict(2, "rank-k error bound suite", not bad, f"{len(bad)}/600 violations {bad[:3]}")
    _budget(2, "rank-k error bound suite", started, 5)


def test_c03_block_and_margin_diagnostics(bound_batch):
    bound_batch, build_s = bound_batch
    started = time.time() - build_s
    bad = []
    for rep, smin_f, delta in bound_batch:
        ok = (
            rep.g2_max <= rep.sigma_k1 + 1e-10
            and rep.g1_min >= max(0.0, rep.sigma_min_AI - rep.sigma_k1) - 1e-10
            and rep.rho > RHO_CONST * smin_f
            and not rep.singular_z1
            and rep.achieved_error**2 <= rep.quadratic_rhs + 1e-8
        )
        if not ok:
            bad.append(rep)
    _verdict(3, "block/margin diagnostics", not bad, f"{len(bad)}/600 violations")
    _budget(3, "block/margin diagnostics", started, 5)


# --- 4 & 5: noise-grid trends at desk scale ----------------------------------

DESK_GRID = [round(0.1 * t, 1) for t in range(21)]


@pytest.fixture(scope="module")
def desk_instances():
    out = []
    for i in range(20):
        base = generate_instance(50, 2000, 10, 1.0, seed=40_000 + i)
        out.append((base, sigma_min(base.F), spectral_norm(base.A)))
    return out


def test_c04_error_trend_over_noise_grid(desk_instances):
    started = time.time()
    q_list = (1, 2, 5, 10, 15)
    mean_err = {}
    mean_delta = {}
    norm_scale = float(np.mean([n for _, _, n in desk_instances]))
    for t in DESK_GRID:
        errs = {q: [] for q in q_list}
        deltas = []
        for base, smin, _ in desk_instances:
            inst = rescale_noise(base, t * smin)
            deltas.append(inst.delta)
            for q in q_list:
                errs[q].append(spa_rank_approx(inst.A, 10, q).error2)
        mean_delta[t] = float(np.mean(deltas))
        mean_err[t] = {q: float(np.mean(errs[q])) for q in q_list}

    cap_viol = [
        (t, mean_err[t][10], 1.25 * mean_delta[t])
        for t in DESK_GRID
        if mean_err[t][10] > 1.25 * mean_delta[t] + 1e-8 * norm_scale
    ]
    mono_viol = [
        (t, qa, qb, mean_err[t][qa], mean_err[t][qb])
        for t in DESK_GRID
        for qa, qb in zip(q_list, q_list[1:])
        if mean_err[t][qb] > 1.01 * mean_err[t][qa] + 1e-10 * norm_scale
    ]
    _verdict(
        4,
        "error trend over the noise grid",
        not cap_viol and not mono_viol,
        f"cap={cap_viol[:3]} mono={mono_viol[:3]}",
    )
    _budget(4, "error trend over the noise grid", started, 10)


def test_c05_recovery_trend_over_noise_grid(desk_instances):
    started = time.time()
    rec = {t: {} for t in DESK_GRID}
    for t in DESK_GRID:
        runs = {"spa": [], "pspa": [], "mpspa1": [], "mpspa15": []}
        for base, smin, _ in desk_instances:
            inst = rescale_noise(base, t * smin)
            truth = inst.true_indices
            runs["spa"].append(recovery_rate(spa_select(inst.A, 10), truth))
            runs["pspa"].append(recovery_rate(pspa_select(inst.A, 10).indices, truth))
            runs["mpspa1"].append(recovery_rate(mpspa_select(inst.A, 10, 1).indices, truth))
            runs["mpspa15"].append(recovery_rate(mpspa_select(inst.A, 10, 15).indices, truth))
        rec[t] = {name: float(np.mean(v)) for name, v in runs.items()}

    q_viol = [t for t in DESK_GRID if t > 0 and rec[t]["mpspa15"] < rec[t]["mpspa1"] - 1e-12]
    pspa_viol = [t for t in DESK_GRID if rec[t]["pspa"] < rec[t]["spa"] - 0.02]
    gap = float(np.mean([abs(rec[t]["mpspa15"] - rec[t]["pspa"]) for t in DESK_GRID]))
    _verdict(
        5,
        "recovery trend over the noise grid",
        not q_viol and not pspa_viol and gap <= 0.05,
        f"q_viol={q_viol} pspa_viol={pspa_viol} mean_gap={gap:.4f}",
    )
    _budget(5, "recovery trend over the noise grid", started, 20)


# --- 6: wide-shape timing ordering -------------------------------------------

def test_c06_wide_shape_timing_order():
    started = time.time()
    base = generate_instance(100, 20_000, 10, 1.0, seed=60_001)
    inst = rescale_noise(base, 1.0 * sigma_min(base.F))
    A = inst.A
    spa_rank_approx(A[:, :1000], 10, 1)  # warm the kernels
    spa_times, svd_times, rels = [], [], {}
    for rep in range(3):
        t0 = time.perf_counter()
        ap = spa_rank_approx(A, 10, 10)
        total = time.perf_counter() - t0
        spa_times.append(total - ap.timings["error_norm"])
        t0 = time.perf_counter()
        f = svd_truncated(A, 10)
        B = f.U @ (f.S[:, None] * f.V.T)
        svd_times.append(time.perf_counter() - t0)
    norm_a = spectral_norm(A)
    rels["spa"] = ap.error2 / norm_a
    rels["svd"] = spectral_norm(A - B) / norm_a
    t_spa, t_svd = float(np.median(spa_times)), float(np.median(svd_times))
    ratio = max(rels.values()) / min(rels.values())
    _verdict(
        6,
        "wide-shape timing order",
        t_spa < t_svd and ratio <= 1.03,
        f"spa={t_spa:.2f}s svd={t_svd:.2f}s rel_ratio={ratio:.5f}",
    )
    _budget(6, "wide-shape timing order", started, 10)


# --- 7: ellipsoid certificates -----------------------------------------------

def test_c07_ellipsoid_certificate_suite():
    started = time.time()
    bad = []
    for i in range(100):
        k = 2 + i % 5
        m = 20 + (i % 10) * 20
        P = SplitMix64(70_000 + i).normal_matrix(k, m)
        e = solve_mvee(P, 1e-6)
        feas = float(ellipsoid_support(e, P).max()) <= 1.0 + 1e-6
        Mu = (P * e.weights) @ P.T
        dual = spectral_norm(np.linalg.inv(Mu) / k - e.L) <= 1e-8 * spectral_norm(e.L)
        logdet_oracle, _, _ = khachiyan_logdet(P, 1e-10)
        sign, logdet = np.linalg.slogdet(e.L)
        opt = sign > 0 and abs(logdet - logdet_oracle) <= k * np.log(1.0 + 1e-6) + 1e-9
        if not (feas and dual and opt):
            bad.append((i, k, m, feas, dual, opt))
    _verdict(7, "ellipsoid certificate suite", not bad, f"{len(bad)}/100 bad {bad[:3]}")
    _budget(7, "ellipsoid certificate suite", started, 3)


# --- 8: oracle equivalences --------------------------------------------------

def test_c08_oracle_equivalences():
    started = time.time()
    problems = []

    for i in range(100):
        A = SplitMix64(80_000 + i).normal_matrix(10, 50)
        k = 1 + i % 8
        if spa_select(A, k).tolist() != naive_spa(A, k).tolist():
            problems.append(("spa", i))

    for i in range(50):
        A = SplitMix64(81_000 + i).normal_matrix(12, 36)
        k, q = 3, 1
        ap = spa_rank_approx(A, k, q)
        Y = np.linalg.matrix_power(A @ A.T, q) @ A[:, ap.seed_indices]
        if spectral_norm(ap.B - projector_approx(Y, A)) > 1e-8 * spectral_norm(A):
            problems.append(("projector", i))

    for i in range(100):
        A = SplitMix64(82_000 + i).normal_matrix(9, 16)
        k = 1 + i % 8
        s = singular_values(A)
        f = svd_truncated(A, k)
        resid = spectral_norm(A - f.U @ (f.S[:, None] * f.V.T))
        if abs(resid - s[k]) > 1e-8 * max(1.0, s[0]):
            problems.append(("truncation-residual", i, resid, s[k]))

    for i in range(50):
        r = SplitMix64(83_000 + i)
        k = 2 + i % 5
        F = r.normal_matrix(8, k)
        a = 2.0 * r.normal(8)
        got = estimate_abundances(F, a.reshape(-1, 1)).W[:, 0]
        w_star, obj_star = simplex_lsq_oracle(F, a)
        obj = float(np.sum((F @ got - a) ** 2))
        if obj > obj_star + 1e-6 or np.abs(got - w_star).max() > 1e-4:
            problems.append(("abundance", i))

    _verdict(8, "oracle equivalences", not problems, f"{problems[:5]}")
    _budget(8, "oracle equivalences", started, 5)


# --- 9: CLI determinism ------------------------------------------------------

def _cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "sepnmf", *args], capture_output=True, text=True, cwd=cwd
    )


def _cli_failed(r):
    """Failure detail for a CLI run that exited non-zero: command, exit code, last stderr line.

    ``r.args`` is ``[python, "-m", "sepnmf", *args]``; the detail names the ``sepnmf`` part.
    """
    lines = r.stderr.strip().splitlines()
    return f"[sepnmf {' '.join(r.args[3:])}] rc={r.returncode}: {lines[-1] if lines else ''}"


def _same_bytes(a, b):
    """True only if both output files exist and hold the same bytes."""
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def test_c09_cli_determinism(tmp_path):
    started = time.time()
    from sepnmf.io import read_json

    ok = True
    detail = []

    for tag in ("a", "b"):
        r = _cli("synth", "-d", "15", "-m", "120", "-k", "3", "--delta", "0.8",
                 "--seed", "5", "-o", f"inst_{tag}", cwd=str(tmp_path))
        ok = ok and r.returncode == 0
        if r.returncode != 0:
            detail.append(_cli_failed(r))
    same = _same_bytes(tmp_path / "inst_a" / "A.mtx", tmp_path / "inst_b" / "A.mtx")
    same = same and _same_bytes(tmp_path / "inst_a" / "meta.json", tmp_path / "inst_b" / "meta.json")
    if not same:
        detail.append("synth")
    ok = ok and same

    for cmd in (
        ["approx", "inst_a/A.mtx", "-k", "3", "--q", "3", "--method", "spa",
         "--bounds", "--truth", "inst_a/meta.json"],
        ["select", "inst_a/A.mtx", "-k", "3", "--method", "pspa",
         "--truth", "inst_a/meta.json"],
        ["select", "inst_a/A.mtx", "-k", "3", "--method", "merspa", "--q", "4"],
    ):
        outs = []
        for tag in ("a", "b"):
            rep = f"rep_{cmd[0]}_{cmd[-1].replace('/', '_')}_{tag}.json"
            r = _cli(*cmd, "--report", rep, cwd=str(tmp_path))
            if r.returncode != 0:
                ok = False
                detail.append(_cli_failed(r))
                break
            outs.append(strip_timing(read_json(str(tmp_path / rep))))
        if len(outs) == 2 and outs[0] != outs[1]:
            ok = False
            detail.append(f"{cmd[0]} mismatch")

    for tag in ("a", "b"):
        r = _cli("bench", "fig1", "--scale", "tiny", "--out", f"bench_{tag}", cwd=str(tmp_path))
        ok = ok and r.returncode == 0
        if r.returncode != 0:
            detail.append(_cli_failed(r))
    if not _same_bytes(tmp_path / "bench_a" / "fig1.csv", tmp_path / "bench_b" / "fig1.csv"):
        ok = False
        detail.append("bench fig1 csv")

    _verdict(9, "CLI determinism", ok, " ".join(detail))
    _budget(9, "CLI determinism", started, 5)
