import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sepnmf import metrics
from sepnmf.cli import build_parser, main
from sepnmf.io import read_json, read_matrix, write_json, write_matrix
from sepnmf.reports import strip_timing
from sepnmf.rng import SplitMix64
from sepnmf.synth import generate_instance


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sepnmf", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("inst")
    r = run_cli("synth", "-d", "20", "-m", "200", "-k", "4", "--delta", "1.5",
                "--seed", "7", "-o", str(d))
    assert r.returncode == 0, r.stderr
    return d


class TestSynth:
    def test_outputs_exist_and_validate(self, instance_dir):
        meta = read_json(str(instance_dir / "meta.json"))
        A = read_matrix(str(instance_dir / "A.mtx"))
        assert A.shape == (20, 200)
        assert meta["delta"] == 1.5
        assert meta["sigma_k1_upper"] == 1.5
        assert len(meta["true_indices_1based"]) == 4
        inst = generate_instance(20, 200, 4, 1.5, seed=7)
        assert np.abs(A - inst.A).max() <= 1e-14  # text format round trip

    def test_rerun_is_byte_identical(self, instance_dir, tmp_path):
        out2 = tmp_path / "again"
        r = run_cli("synth", "-d", "20", "-m", "200", "-k", "4", "--delta", "1.5",
                    "--seed", "7", "-o", str(out2))
        assert r.returncode == 0
        for name in ("A.mtx", "meta.json"):
            assert (out2 / name).read_bytes() == (instance_dir / name).read_bytes()

    def test_zero_delta_semantics(self, tmp_path):
        out = tmp_path / "z"
        r = run_cli("synth", "-d", "10", "-m", "60", "-k", "3", "--delta", "0",
                    "--seed", "1", "-o", str(out))
        assert r.returncode == 0
        assert read_json(str(out / "meta.json"))["sigma_k1_upper"] == 0.0

    def test_missing_flag_exits_2(self, tmp_path):
        r = run_cli("synth", "-d", "10", "-m", "60", "-o", str(tmp_path / "x"))
        assert r.returncode == 2
        assert "usage" in r.stderr.lower()


class TestApprox:
    def test_rank_one_input_any_method(self, tmp_path):
        u = np.arange(1.0, 9.0).reshape(-1, 1)
        A = u @ np.linspace(0.5, 2.0, 30).reshape(1, -1)
        path = str(tmp_path / "r1.bin")
        write_matrix(path, A)
        for method in ("spa", "rand", "svd"):
            rep_path = str(tmp_path / f"rep_{method}.json")
            r = run_cli("approx", path, "-k", "1", "--q", "2", "--method", method,
                        "--report", rep_path)
            assert r.returncode == 0, r.stderr
            rep = read_json(rep_path)
            norm = float(np.linalg.norm(A, 2))
            assert rep["records"][0]["abs_error"] <= 1e-10 * norm

    def test_zero_matrix_is_a_typed_error_for_every_method(self, tmp_path):
        path = str(tmp_path / "z.bin")
        write_matrix(path, np.zeros((4, 6)))
        for method in ("spa", "rand", "svd"):
            rep_path = tmp_path / f"rep_{method}.json"
            r = run_cli("approx", path, "-k", "1", "--q", "1", "--method", method,
                        "--report", str(rep_path))
            assert r.returncode == 3, (method, r.stderr)
            assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
            assert read_json(str(rep_path))["error"] == r.stderr[len("error: "):].strip()

    @pytest.mark.parametrize("shape", [(20, 300), (300, 20)])
    def test_rel_error_reads_the_shared_gram_matrix(self, monkeypatch, tmp_path, shape):
        # a wide A forms one A A^T for the approximation and ||A||_2; both
        # shapes give the bytes of error2 / spectral_norm(A)
        from sepnmf import linalg, lowrank
        A = SplitMix64(4).normal_matrix(*shape)
        path = str(tmp_path / "a.bin")
        write_matrix(path, A)
        calls = []
        for name in ("gram_matrix", "spectral_norm"):
            fn = getattr(lowrank, name)
            monkeypatch.setattr(lowrank, name,
                                lambda X, fn=fn, name=name: calls.append(name) or fn(X))
        for method in ("spa", "rand", "svd"):
            calls.clear()
            rep_path = str(tmp_path / f"rep_{method}.json")
            assert main(["approx", path, "-k", "3", "--q", "2", "--method", method,
                         "--report", rep_path]) == 0
            record = read_json(rep_path)["records"][0]
            assert record["rel_error"] == record["abs_error"] / linalg.spectral_norm(A)
            # a tall residual's norm is spectral_norm(A - B), then the CLI's ||A||_2
            assert calls == (["gram_matrix"] if shape[0] <= shape[1] else ["spectral_norm"] * 2)

    def test_bounds_attached_with_truth(self, instance_dir, tmp_path):
        rep_path = str(tmp_path / "rep.json")
        r = run_cli("approx", str(instance_dir / "A.mtx"), "-k", "4", "--q", "2",
                    "--method", "spa", "--bounds", "--truth",
                    str(instance_dir / "meta.json"), "--report", rep_path)
        assert r.returncode == 0, r.stderr
        rep = read_json(rep_path)
        assert rep["bound_fields"]["rank_b"] == 4
        assert rep["bound_fields"]["hypothesis_satisfied"] in (True, False)

    @pytest.mark.parametrize("case", ["rho-not-positive", "q0-tiny-sigma"])
    def test_bounds_report_is_strict_json(self, tmp_path, case):
        # rho-not-positive: on a Gaussian 10 x 30 matrix at k = 5, sigma_min of
        # the picked columns lies below sigma_6, so the margin bound does not
        # exist. q0-tiny-sigma: at q = 0 the bounds' power
        # (sigma_2/sigma_1)^(4q-2) of 1e320 overflows, though both are finite.
        A, k, q = {
            "rho-not-positive": (SplitMix64(3).normal_matrix(10, 30), 5, 1),
            "q0-tiny-sigma": (np.array([[1.0, 0.0, 0.5], [0.0, 1e-160, 0.0]]), 1, 0),
        }[case]
        path, rep_path = str(tmp_path / "a.bin"), tmp_path / "rep.json"
        write_matrix(path, A)
        r = run_cli("approx", path, "-k", str(k), "--q", str(q), "--bounds",
                    "--report", str(rep_path))
        assert r.returncode == 0, r.stderr

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        fields = json.loads(rep_path.read_text(), parse_constant=refuse)["bound_fields"]
        if case == "rho-not-positive":
            assert fields["rho"] <= 0 and fields["margin_bound"] is None
        else:  # sigma_2 sqrt(1 + (sigma_1/sigma_2)^2 / 142^2), about sigma_1 / 142
            assert fields["error_bound"] == pytest.approx(fields["sigma_k"] / 142, rel=1e-12)
            assert fields["margin_bound"] < 1e-159

    def test_bounds_overflow_exits_3(self, tmp_path):
        # sigma_2 is roundoff of the 1e300 column, about 1e284: its square overflows
        A = SplitMix64(0).uniform(6 * 23).reshape(6, 23)
        A[:, 5] *= 1e300
        path, rep_path = str(tmp_path / "big.bin"), str(tmp_path / "rep.json")
        write_matrix(path, A)
        r = run_cli("approx", path, "-k", "1", "--q", "2", "--bounds", "--report", rep_path)
        assert r.returncode == 3
        assert "right-hand side overflows" in r.stderr and "Traceback" not in r.stderr
        assert read_json(rep_path)["error"]

    def test_bounds_truth_without_indices_exits_3(self, instance_dir, tmp_path):
        meta = read_json(str(instance_dir / "meta.json"))
        del meta["true_indices_1based"]
        truth = str(tmp_path / "noidx.json")
        write_json(truth, meta)
        r = run_cli("approx", str(instance_dir / "A.mtx"), "-k", "4", "--bounds",
                    "--truth", truth, "--report", str(tmp_path / "rep.json"))
        assert r.returncode == 3
        assert "noidx.json" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("field, value", [("delta", "x"), ("delta", None),
                                              ("robust_noise_bound", True)])
    def test_bounds_truth_with_non_numeric_noise_exits_3(self, instance_dir, tmp_path,
                                                         field, value):
        meta = read_json(str(instance_dir / "meta.json"))
        meta[field] = value
        truth = str(tmp_path / "badnoise.json")
        write_json(truth, meta)
        rep_path = str(tmp_path / "rep.json")
        r = run_cli("approx", str(instance_dir / "A.mtx"), "-k", "4", "--bounds",
                    "--truth", truth, "--report", rep_path)
        assert r.returncode == 3, r.stderr
        assert "badnoise.json" in r.stderr and "Traceback" not in r.stderr
        rep = read_json(rep_path)  # the error report, with no records
        assert "badnoise.json" in rep["error"] and rep["records"] == []

    @pytest.mark.parametrize("method", ["rand", "svd"])
    def test_bounds_note_for_non_spa_methods(self, instance_dir, tmp_path, method):
        rep_path = str(tmp_path / "rep.json")
        r = run_cli("approx", str(instance_dir / "A.mtx"), "-k", "4", "--method", method,
                    "--bounds", "--report", rep_path)
        assert r.returncode == 0, r.stderr
        assert "note: --bounds applies to method=spa only; skipped" in r.stderr
        assert read_json(rep_path)["bound_fields"] is None

    def test_spectral_norm_tolerance_flag_is_gone(self, instance_dir, tmp_path):
        r = run_cli("approx", str(instance_dir / "A.mtx"), "-k", "4", "--tol", "1e-9",
                    "--report", str(tmp_path / "rep.json"))
        assert r.returncode == 2
        assert "unrecognized arguments: --tol 1e-9" in r.stderr
        assert not (tmp_path / "rep.json").exists()

    def test_svd_and_spa_close_under_hypothesis(self, tmp_path):
        inst = generate_instance(20, 150, 4, 0.0, seed=31)
        from sepnmf.synth import rescale_noise, robust_noise_bound
        base = generate_instance(20, 150, 4, 1.0, seed=31)
        inst = rescale_noise(base, 0.9 * robust_noise_bound(base.F))
        path = str(tmp_path / "a.bin")
        write_matrix(path, inst.A)
        rels = {}
        for method in ("spa", "svd"):
            rp = str(tmp_path / f"{method}.json")
            r = run_cli("approx", path, "-k", "4", "--q", "10", "--method", method,
                        "--report", rp)
            assert r.returncode == 0, r.stderr
            rels[method] = read_json(rp)["records"][0]["rel_error"]
        hi, lo = max(rels.values()), min(rels.values())
        assert hi <= 1.0001 * lo + 1e-12


class TestSelect:
    def test_single_run_report(self, instance_dir, tmp_path):
        rep_path = str(tmp_path / "sel.json")
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "4", "--method", "pspa",
                    "--truth", str(instance_dir / "meta.json"), "--report", rep_path)
        assert r.returncode == 0, r.stderr
        rep = read_json(rep_path)
        rec = rep["records"][0]
        assert len(rec["indices_1based"]) == 4
        assert min(rec["indices_1based"]) >= 1
        assert 0.0 <= rec["recovery_rate"] <= 1.0

    def test_zero_noise_any_method_recovers(self, tmp_path):
        out = tmp_path / "z"
        run_cli("synth", "-d", "10", "-m", "80", "-k", "3", "--delta", "0",
                "--seed", "5", "-o", str(out))
        for method in ("spa", "pspa", "mpspa", "erspa", "merspa", "prewhiten", "spaspa"):
            rep_path = str(tmp_path / f"{method}.json")
            r = run_cli("select", str(out / "A.mtx"), "-k", "3", "--method", method,
                        "--truth", str(out / "meta.json"), "--report", rep_path)
            assert r.returncode == 0, (method, r.stderr)
            assert read_json(rep_path)["records"][0]["recovery_rate"] == 1.0

    def test_mpspa_defaults_q_with_note(self, instance_dir):
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "4", "--method", "mpspa")
        assert r.returncode == 0
        assert "q=10" in r.stderr

    @pytest.mark.parametrize(
        "k, flags, notes",
        [("3", ["--method", "pspa", "--q", "-5"], []),
         ("1", ["--method", "mpspa"], ["k=1: preconditioning bypassed"])],
        ids=["pspa-reads-no-q", "k1-bypass"],
    )
    def test_report_records_only_the_q_run(self, instance_dir, tmp_path, k, flags, notes):
        rep_path = str(tmp_path / "sel.json")
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", k, *flags, "--report", rep_path)
        assert r.returncode == 0, r.stderr
        params = read_json(rep_path)["parameters"]
        assert params["q"] is None
        assert params["notes"] == notes
        assert "defaulting" not in r.stderr

    def test_batch_csv_schema(self, tmp_path):
        out = str(tmp_path / "batch.csv")
        r = run_cli("select", "-k", "3", "--instances", "2", "-d", "12", "-m", "90",
                    "--deltas", "0,0.5", "--methods", "spa,mpspa:1", "--out", out)
        assert r.returncode == 0, r.stderr
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "delta,method,q,mean_recovery"
        assert len(lines) == 1 + 2 * 2

    def test_unknown_method_exits_2(self, instance_dir):
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "4", "--method", "bogus")
        assert r.returncode == 2

    @pytest.mark.parametrize("flags", [
        ("--methods", "bogus"),
        ("--methods", "spa,mpspa:x"),
        ("--deltas", "0,a"),
        ("--instances", "0"),
        ("--instances", "-1"),
        ("--deltas", ","),
        ("--methods", ","),
    ])
    def test_bad_batch_spec_exits_2(self, tmp_path, flags):
        out = tmp_path / "batch.csv"
        r = run_cli("select", "-k", "3", "--instances", "1", "-d", "12", "-m", "90",
                    *flags, "--out", str(out))
        assert r.returncode == 2
        assert "usage" in r.stderr.lower() and "Traceback" not in r.stderr
        assert not out.exists()

    def test_batch_abs_deltas(self, tmp_path):
        from sepnmf.metrics import recovery_rate
        from sepnmf.select import select
        from sepnmf.synth import rescale_noise

        out = str(tmp_path / "abs.csv")
        deltas = (0.0, 0.25, 0.7)
        r = run_cli("select", "-k", "3", "--instances", "2", "-d", "12", "-m", "90",
                    "--delta-unit", "abs", "--deltas", ",".join(map(str, deltas)),
                    "--methods", "spa,mpspa:1", "--seed", "4", "--out", out)
        assert r.returncode == 0, r.stderr
        lines = open(out).read().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [float(row[0]) for row in rows] == [t for t in deltas for _ in range(2)]
        records = read_json(str(tmp_path / "abs.json"))["records"]
        assert len(records) == 2 * len(deltas) * 2
        assert {rec["seed"] for rec in records} == {4 * 100_003, 4 * 100_003 + 1}
        for rec in records:
            assert rec["delta"] == rec["delta_mult"]
            base = generate_instance(12, 90, 3, 1.0, rec["seed"])
            inst = rescale_noise(base, rec["delta"])
            idx = select(inst.A, 3, rec["method"], rec["q"]).indices
            assert rec["recovery_rate"] == recovery_rate(idx, inst.true_indices)
        for row in rows:
            cell = [rec["recovery_rate"] for rec in records
                    if rec["delta"] == float(row[0]) and rec["method"] == row[1]
                    and str(rec["q"] or "") == row[2]]
            assert len(cell) == 2
            assert float(row[3]) == float(np.mean(cell))

    def test_batch_passes_boundary_tol(self, tmp_path):
        # erspa falls back, with a note, exactly when fewer than k points lie
        # within boundary_tol of the ellipsoid's boundary. Both tols come from
        # the instance's own sorted |support - 1|, half the k-th value and
        # halfway to the (k+1)-th, so roundoff moves no point across either.
        from sepnmf.linalg import pow2_scaled, svd_truncated
        from sepnmf.mvee import DEFAULT_EPS, ellipsoid_support, solve_mvee
        from sepnmf.select import select
        from sepnmf.synth import rescale_noise, sigma_min

        base = generate_instance(20, 150, 4, 1.0, 0)  # instance 0 of base seed 0
        inst = rescale_noise(base, 2 * sigma_min(base.F))
        f = svd_truncated(pow2_scaled(inst.A)[0], 4)
        P = np.ascontiguousarray(f.S[:, None] * f.V.T)
        gap = np.sort(np.abs(ellipsoid_support(solve_mvee(P, DEFAULT_EPS), P) - 1.0))
        assert 0.0 < gap[3] < gap[4]
        for tol, fallback in ((float(gap[3] / 2), True), (float((gap[3] + gap[4]) / 2), False)):
            out = tmp_path / f"bt{int(fallback)}.csv"
            r = run_cli("select", "-k", "4", "--instances", "1", "-d", "20", "-m", "150",
                        "--deltas", "2", "--methods", "erspa", "--boundary-tol", repr(tol),
                        "--out", str(out))
            assert r.returncode == 0, r.stderr
            rec = read_json(str(out.with_suffix(".json")))["records"][0]
            assert rec["seed"] == 0 and rec["delta_mult"] == 2
            notes = list(select(inst.A, 4, "erspa", boundary_tol=tol).notes)
            assert rec["notes"] == notes
            assert bool(notes) == fallback

    def test_batch_mode_refuses_single_matrix_flags(self, instance_dir, tmp_path):
        rep, out = tmp_path / "r.json", tmp_path / "g.csv"
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "3", "--instances", "1",
                    "-d", "12", "-m", "60", "--deltas", "0", "--method", "erspa", "--q", "5",
                    "--truth", str(instance_dir / "meta.json"), "--report", str(rep),
                    "--out", str(out))
        assert r.returncode == 2
        assert "MATRIX, --method, --q, --truth, --report" in r.stderr
        assert not rep.exists() and not out.exists()

    def test_single_mode_refuses_batch_flags(self, instance_dir, tmp_path):
        out = tmp_path / "g2.csv"
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "3", "--methods", "spa,pspa",
                    "--deltas", "1", "--jobs", "2", "--out", str(out))
        assert r.returncode == 2
        assert "--deltas, --methods, --out, --jobs" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("single, flags, unread", [
        (True, ["--jobs", "1", "--delta-unit", "sigmin", "--deltas", "0,0.5,1.0,1.5,2.0"],
         "single-matrix select does not read --deltas, --delta-unit, --jobs"),
        (False, ["--method", "spa", "--instances", "1", "-d", "12", "-m", "60",
                 "--trut", "meta.json"],
         "batch (--instances) select does not read --method, --truth"),
    ], ids=["single", "batch"])
    def test_other_mode_flags_are_refused_at_their_defaults(self, instance_dir, capsys,
                                                            single, flags, unread):
        # given is given: a flag of the other mode is refused at its default value
        # too, listed in its canonical spelling, in the order of the usage message
        matrix = [str(instance_dir / "A.mtx")] if single else []
        assert main(["select", *matrix, "-k", "3", *flags]) == 2
        assert capsys.readouterr().err == f"error: {unread}\n"

    def test_malformed_matrix_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        r = run_cli("select", str(path), "-k", "2")
        assert r.returncode == 3
        assert "bad.csv" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("matrix, truth", [
        pytest.param("nope.mtx", None, id="missing-matrix"),
        pytest.param(None, "not json", id="malformed-truth"),
        pytest.param(None, "{}", id="truth-without-indices"),
        pytest.param(None, "[1, 2]", id="truth-not-an-object"),
        pytest.param(None, '{"true_indices_1based": ["a"]}', id="truth-not-integers"),
        pytest.param(None, '{"true_indices_1based": [1, 2, true, 4]}', id="truth-boolean"),
        pytest.param(None, '{"true_indices_1based": [1, 2, 2, 4]}', id="truth-repeated"),
        pytest.param(None, '{"true_indices_1based": [1, 2, 3, 400]}', id="truth-out-of-range"),
    ])
    def test_unreadable_input_exits_3(self, instance_dir, tmp_path, matrix, truth):
        args = [str(tmp_path / matrix) if matrix else str(instance_dir / "A.mtx"), "-k", "4"]
        if truth:
            (tmp_path / "bad.json").write_text(truth)
            args += ["--truth", str(tmp_path / "bad.json")]
        r = run_cli("select", *args)
        assert r.returncode == 3
        assert (matrix or "bad.json") in r.stderr and "Traceback" not in r.stderr

    def test_mismatched_truth_rejected(self, instance_dir, tmp_path):
        other = tmp_path / "other"
        run_cli("synth", "-d", "20", "-m", "200", "-k", "4", "--delta", "1.5",
                "--seed", "8", "-o", str(other))
        r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "4",
                    "--method", "spa", "--truth", str(other / "meta.json"))
        assert r.returncode == 3
        assert "digest" in r.stderr

    @pytest.mark.parametrize("flags, q", [
        (["--method", "prewhiten", "--q", "3"], None),
        (["--method", "mpspa"], 10),
        (["--method", "mpspa", "--q", "3"], 3),
    ], ids=["prewhiten-reads-no-q", "mpspa-default-q", "mpspa-given-q"])
    def test_error_report_records_the_q_the_method_runs(self, tmp_path, flags, q):
        # a rank-3 instance at k = 4: every method here exits 3
        r = run_cli("synth", "-d", "10", "-m", "60", "-k", "3", "--seed", "5",
                    "-o", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rep_path = str(tmp_path / "err.json")
        r = run_cli("select", str(tmp_path / "A.mtx"), "-k", "4", *flags, "--report", rep_path)
        assert r.returncode == 3, r.stderr
        assert read_json(rep_path)["parameters"].get("q") == q

    def test_computation_error_exits_3_with_report(self, tmp_path):
        u = np.arange(1.0, 7.0).reshape(-1, 1)
        path = str(tmp_path / "r1.csv")
        write_matrix(path, u @ np.ones((1, 10)))
        rep_path = str(tmp_path / "err.json")
        r = run_cli("select", path, "-k", "3", "--method", "pspa", "--report", rep_path)
        assert r.returncode == 3
        assert read_json(rep_path)["error"]


class TestUnmix:
    @pytest.fixture()
    def cube(self, tmp_path):
        inst = generate_instance(12, 48, 3, 0.02, seed=9)
        path = str(tmp_path / "cube.bin")
        write_matrix(path, inst.A)
        write_json(path + ".json", {"height": 6, "width": 8})
        lib = str(tmp_path / "lib.csv")
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in inst.F)
        open(lib, "w").write("matA,matB,matC\n" + rows + "\n")
        return path, lib, inst

    def test_full_pipeline(self, cube, tmp_path):
        path, lib, inst = cube
        out = str(tmp_path / "out")
        r = run_cli("unmix", path, "-k", "3", "--method", "pspa", "--library", lib,
                    "--out", out)
        assert r.returncode == 0, r.stderr
        names = os.listdir(out)
        assert "endmembers.csv" in names and "sad_table.csv" in names
        assert sum(n.endswith(".pgm") for n in names) == 3
        # SAD diagonal: every estimated endmember is closest to its own column
        rows = open(os.path.join(out, "sad_table.csv")).read().strip().splitlines()
        closest = [line.split(",")[-1] for line in rows[1:]]
        assert sorted(closest) == ["matA", "matB", "matC"]
        W = read_matrix(os.path.join(out, "abundances.csv"), "csv")
        assert W.shape == (3, 48)
        assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-6

    def test_expect_match(self, cube, tmp_path):
        path, lib, inst = cube
        r = run_cli("unmix", path, "-k", "3", "--method", "mpspa", "--q", "4",
                    "--out", str(tmp_path / "m"), "--expect-match", "pspa")
        assert r.returncode == 0, r.stderr
        assert "match" in r.stdout

    @pytest.mark.parametrize("method, q, want", [("pspa", "4", None), ("mpspa", "4", 4)])
    def test_report_records_only_the_q_run(self, cube, tmp_path, method, q, want):
        out = tmp_path / "out"
        r = run_cli("unmix", cube[0], "-k", "3", "--method", method, "--q", q, "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert read_json(str(out / "report.json"))["q"] == want

    def test_abundance_iteration_cap_exits_3_before_writing(self, cube, tmp_path,
                                                            monkeypatch, capsys):
        path, lib, inst = cube
        done = tmp_path / "done"
        assert main(["unmix", path, "-k", "3", "--method", "pspa", "--out", str(done)]) == 0
        passes = read_json(str(done / "report.json"))["abundance_passes"]
        assert passes > 2
        out = tmp_path / "capped"
        monkeypatch.setattr(metrics, "_pass_cap", lambda k: 2)
        assert main(["unmix", path, "-k", "3", "--method", "pspa", "--out", str(out)]) == 3
        assert "abundances: active set not settled in 2 passes" in capsys.readouterr().err
        assert not out.exists()

    def test_power_of_two_scaled_cube_gives_the_same_abundances(self, tmp_path):
        A = generate_instance(20, 400, 3, 0.0, seed=7).A
        got = {}
        for j in (0, 530, -530):
            path = str(tmp_path / f"cube{j}.bin")
            write_matrix(path, np.ldexp(A, j))
            out = tmp_path / f"out{j}"
            assert main(["unmix", path, "-k", "3", "--out", str(out)]) == 0
            got[j] = (out / "abundances.csv").read_bytes()
        assert got[530] == got[0] and got[-530] == got[0]

    @pytest.mark.parametrize("flags", [
        ("--method", "bogus"),
        ("--expect-match", "bogus"),
    ])
    def test_unknown_selector_exits_2(self, cube, tmp_path, flags):
        path, lib, inst = cube
        out = tmp_path / "bad"
        r = run_cli("unmix", path, "-k", "3", *flags, "--out", str(out))
        assert r.returncode == 2
        assert "invalid choice" in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        pytest.param(b"matA,matB,matC\n1,2,3\n4,5\n", id="ragged"),
        pytest.param(b"matA,matB,matC\n1,2,x\n", id="non-numeric"),
        pytest.param(b"matA,matB,matC\n" + b"1,2\n" * 12, id="fewer-columns-than-names"),
        pytest.param(b"matA,matB,matC\n" + b"1,2,3\n" * 11, id="fewer-bands-than-cube"),
        pytest.param(b"mat\xffA,matB,matC\n" + b"1,2,3\n" * 12, id="header-not-utf8"),
    ])
    def test_bad_library_exits_3_before_writing(self, cube, tmp_path, text):
        path, lib, inst = cube
        bad = tmp_path / "badlib.csv"
        bad.write_bytes(text)
        out = tmp_path / "o"
        out.mkdir()
        r = run_cli("unmix", path, "-k", "3", "--library", str(bad), "--out", str(out))
        assert r.returncode == 3
        assert "badlib.csv" in r.stderr and "Traceback" not in r.stderr
        assert os.listdir(out) == []

    def test_missing_shape_for_rasters(self, tmp_path):
        inst = generate_instance(8, 30, 3, 0.0, seed=2)
        path = str(tmp_path / "noshape.bin")
        write_matrix(path, inst.A)
        r = run_cli("unmix", path, "-k", "3", "--rasters", "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert "height/width" in r.stderr

    @pytest.mark.parametrize("sidecar, flags, message", [
        pytest.param({"height": 5, "width": 8}, (), "40 != 48 pixels", id="wrong-pixel-count"),
        pytest.param({}, ("--rasters",), "no height/width", id="rasters-without-shape"),
        pytest.param([6, 8], (), "cube.bin.json", id="not-an-object"),
        pytest.param({"height": 6.0, "width": 8}, (), "cube.bin.json", id="float-height"),
        pytest.param({"height": -6, "width": -8}, (), "cube.bin.json", id="negative-shape"),
        pytest.param({"height": "6", "width": 8}, (), "cube.bin.json", id="string-height"),
        pytest.param({"height": True, "width": 48}, (), "cube.bin.json", id="boolean-height"),
        pytest.param({"height": 0, "width": 8}, (), "cube.bin.json", id="zero-height"),
    ])
    def test_bad_sidecar_exits_3_before_writing(self, cube, tmp_path, sidecar, flags, message):
        path, lib, inst = cube
        write_json(path + ".json", sidecar)
        out = tmp_path / "o"
        out.mkdir()
        r = run_cli("unmix", path, "-k", "3", *flags, "--out", str(out))
        assert r.returncode == 3
        assert message in r.stderr and "Traceback" not in r.stderr
        assert os.listdir(out) == []

    def test_missing_meta_exits_3_before_writing(self, cube, tmp_path):
        path, lib, inst = cube
        out = tmp_path / "o"
        out.mkdir()
        r = run_cli("unmix", path, "-k", "3", "--meta", str(tmp_path / "nope.json"),
                    "--out", str(out))
        assert r.returncode == 3
        assert "nope.json" in r.stderr and "Traceback" not in r.stderr
        assert os.listdir(out) == []

    def test_default_sidecar_is_optional(self, cube, tmp_path):
        path, lib, inst = cube
        os.remove(path + ".json")
        out = tmp_path / "o"
        r = run_cli("unmix", path, "-k", "3", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert not any(n.endswith(".pgm") for n in os.listdir(out))

    def test_drop_bands(self, cube, tmp_path):
        path, lib, inst = cube
        r = run_cli("unmix", path, "-k", "3", "--drop-bands", "1-2,12",
                    "--out", str(tmp_path / "d"))
        assert r.returncode == 0, r.stderr
        em = open(os.path.join(str(tmp_path / "d"), "endmembers.csv")).read().strip()
        assert len(em.splitlines()) == 1 + 9  # header + 12 - 3 dropped bands

    @pytest.mark.parametrize("spec", ["a", "1-2-3", "5-3", ","])
    def test_bad_drop_bands_spec_exits_2(self, cube, tmp_path, spec):
        path, lib, inst = cube
        out = tmp_path / "bad"
        r = run_cli("unmix", path, "-k", "3", "--drop-bands", spec, "--out", str(out))
        assert r.returncode == 2
        assert "usage" in r.stderr.lower() and "Traceback" not in r.stderr
        assert not out.exists()

    def test_drop_bands_out_of_range_exits_3(self, cube, tmp_path):
        path, lib, inst = cube
        r = run_cli("unmix", path, "-k", "3", "--drop-bands", "11-13",
                    "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert "out of range 1..12" in r.stderr


class TestBench:
    def test_tiny_all_suites(self, tmp_path):
        out = str(tmp_path / "b")
        r = run_cli("bench", "all", "--scale", "tiny", "--out", out)
        assert r.returncode == 0, r.stderr
        fig1 = open(os.path.join(out, "fig1.csv")).read().splitlines()
        assert fig1[0] == "delta,q,mean_abs_error,best_error_upper"
        fig2 = open(os.path.join(out, "fig2.csv")).read().splitlines()
        assert fig2[0] == "delta,method,q,mean_recovery"
        tab2 = open(os.path.join(out, "tab2.csv")).read().splitlines()
        assert tab2[0] == "d,m,k,method,q,mean_time_s,mean_abs_error,mean_rel_error"
        assert os.path.exists(os.path.join(out, "summary.txt"))

    def test_jobs_flag_reproduces_serial_output(self, tmp_path):
        a, b = str(tmp_path / "j1"), str(tmp_path / "j2")
        r1 = run_cli("bench", "fig1", "--scale", "tiny", "--out", a)
        r2 = run_cli("bench", "fig1", "--scale", "tiny", "--out", b, "--jobs", "2")
        assert r1.returncode == 0 and r2.returncode == 0, r2.stderr
        assert open(os.path.join(a, "fig1.csv")).read() == open(os.path.join(b, "fig1.csv")).read()


# the shared flags each subcommand reads; every other (subcommand, flag) pair,
# and any flag placed before the subcommand, is a usage error
FLAG_MAP = {
    "synth": ("--seed", "--format"),
    "approx": ("--seed", "--format"),
    "select": ("--seed", "--jobs", "--format", "--eps"),
    "unmix": ("--format", "--eps"),
    "bench": ("--seed", "--jobs"),
}
# flag -> (argument, parsed value, default)
FLAG_VALUES = {
    "--seed": ("3", 3, 0),
    "--jobs": ("2", 2, 1),
    "--format": ("bin", "bin", None),
    "--eps": ("1e-3", 1e-3, 1e-6),
}
# a complete command line of each subcommand; these tests only parse it
BASE_ARGV = {
    "synth": ["synth", "-d", "6", "-m", "12", "-k", "2", "-o", "out"],
    "approx": ["approx", "A.mtx", "-k", "2", "--report", "r.json"],
    "select": ["select", "A.mtx", "-k", "2"],
    "unmix": ["unmix", "A.mtx", "-k", "2", "--out", "out"],
    "bench": ["bench", "fig1", "--out", "out"],
}


def _usage_exit(argv, capsys):
    """Exit code and stderr of parsing argv, which must be refused."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return exc.value.code, capsys.readouterr().err


class TestFlagMap:
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in FLAG_MAP for flag in FLAG_VALUES
        if flag not in FLAG_MAP[command]
    ])
    def test_unread_flag_exits_2(self, command, flag, capsys):
        code, err = _usage_exit(BASE_ARGV[command] + [flag, FLAG_VALUES[flag][0]], capsys)
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("flag", FLAG_VALUES)
    def test_flag_before_subcommand_exits_2(self, flag, capsys):
        command = next(c for c, flags in FLAG_MAP.items() if flag in flags)
        code, _ = _usage_exit([flag, FLAG_VALUES[flag][0]] + BASE_ARGV[command], capsys)
        assert code == 2

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in FLAG_MAP.items() for flag in flags
    ])
    def test_read_flag_parses(self, command, flag):
        text, value, default = FLAG_VALUES[flag]
        dest = flag.lstrip("-")
        assert getattr(build_parser().parse_args(BASE_ARGV[command]), dest) == default
        assert getattr(build_parser().parse_args(BASE_ARGV[command] + [flag, text]), dest) == value

    @pytest.mark.parametrize("command,flag,text", [
        ("select", "--eps", "0.7"),
        ("select", "--eps", "0.5"),
        ("select", "--eps", "0"),
        ("unmix", "--eps", "nan"),
        ("select", "--jobs", "0"),
        ("bench", "--jobs", "0"),
        ("select", "--boundary-tol", "-1"),
        ("select", "--boundary-tol", "nan"),
        ("select", "--deltas", ","),
        ("select", "--deltas", "-1"),
        ("select", "--deltas", "0,nan"),
        ("synth", "--delta", "-1"),
        ("synth", "--delta", "nan"),
        ("synth", "--alpha", ","),
    ])
    def test_out_of_range_value_exits_2(self, command, flag, text, capsys):
        code, err = _usage_exit(BASE_ARGV[command] + [flag, text], capsys)
        assert code == 2
        assert f"argument {flag}:" in err


REPORT_KEYS = {"aggregates", "bound_fields", "error", "method", "parameters", "records",
               "rng_name", "toolkit_version"}


class TestReportSchema:
    @pytest.mark.parametrize("argv, code", [
        (["approx", "A.mtx", "-k", "4", "--bounds"], 0),
        (["select", "A.mtx", "-k", "4", "--method", "mpspa", "--truth", "meta.json"], 0),
        (["select", "A.mtx", "-k", "21", "--method", "pspa"], 3),  # k > d: the error report
    ], ids=["approx", "select", "error"])
    def test_report_keys_and_one_record_aggregates(self, instance_dir, tmp_path, argv, code):
        rep_path = str(tmp_path / "rep.json")
        argv = [str(instance_dir / a) if a.endswith((".mtx", ".json")) else a for a in argv]
        assert main(argv + ["--report", rep_path]) == code
        rep = read_json(rep_path)
        assert set(rep) == REPORT_KEYS
        assert (rep["error"] is None) == (code == 0)
        assert len(rep["records"]) == (code == 0)
        assert set(rep["aggregates"]) == {key for key in ("recovery_rate", "abs_error", "rel_error")
                                          if rep["records"] and key in rep["records"][0]}
        for key, agg in rep["aggregates"].items():
            value = rep["records"][0][key]
            assert agg == {"mean": value, "median": value, "min": value, "max": value}


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, instance_dir, tmp_path):
        outs = []
        for tag in ("x", "y"):
            rep = str(tmp_path / f"{tag}.json")
            r = run_cli("select", str(instance_dir / "A.mtx"), "-k", "4",
                        "--method", "mpspa", "--q", "5", "--seed", "3",
                        "--truth", str(instance_dir / "meta.json"), "--report", rep)
            assert r.returncode == 0
            outs.append(strip_timing(read_json(rep)))
        assert outs[0] == outs[1]
