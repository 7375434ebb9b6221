"""Run a fixed corpus of sepnmf CLI commands and keep their comparable output.

    python tools/cli_corpus.py OUTDIR

Every command runs as `python -m sepnmf` on the sources of the checkout this
script sits in (its src/ directory), with BLAS pinned to one thread, inside
its own directory OUTDIR/<name>/. That directory then holds every file the
command wrote plus its stdout.txt, stderr.txt and exit_code.txt. Wall-clock
values are removed on the way: strip_timing on every JSON file, time columns
dropped from every CSV, and durations such as "0.4s" masked in text files.

Run it once in each of two checkouts; `diff -r` of the two OUTDIRs then lists
every output byte that one changed against the other.
"""

import csv
import json
import os
import re
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from sepnmf.io import read_matrix, write_matrix  # noqa: E402
from sepnmf.reports import strip_timing  # noqa: E402

INSTANCE = os.path.join("..", "instance")
CUBE = os.path.join("..", "cube")
METHODS = ("spa", "pspa", "mpspa", "erspa", "merspa", "prewhiten", "spaspa")
GRID = ["-k", "4", "--instances", "2", "-d", "20", "-m", "150", "--deltas", "0,0.5,1.0",
        "--seed", "5", "--methods",
        "spa,pspa,mpspa:1,mpspa:15,erspa,merspa:15,prewhiten,spaspa", "--out", "grid.csv"]


def _design_cases(seed):
    """synth a zero-noise 10 x 80 x 3 design, then select on it by pspa and erspa."""
    inst = os.path.join("..", f"instance-{seed}")
    return [(f"instance-{seed}", ["synth", "-d", "10", "-m", "80", "-k", "3", "--seed", str(seed),
                                  "-o", "."])] + [
        (f"select-{method}-{seed}", ["select", os.path.join(inst, "A.mtx"), "-k", "3",
                                     "--method", method, "--truth", os.path.join(inst, "meta.json"),
                                     "--report", "report.json"])
        for method in ("pspa", "erspa")
    ]


# (directory name, CLI arguments); paths are relative to the command's directory
CORPUS = (
    [
        ("instance", ["synth", "-d", "20", "-m", "200", "-k", "4", "--delta", "1.5",
                      "--seed", "7", "-o", "."]),
        ("cube", ["synth", "-d", "12", "-m", "48", "-k", "3", "--delta", "0.02", "--seed", "9",
                  "--format", "bin", "-o", "."]),
        # zero noise: A has rank 4 exactly
        ("instance-rank4", ["synth", "-d", "20", "-m", "200", "-k", "4", "--seed", "7",
                            "-o", "."]),
        ("instance-rank3", ["synth", "-d", "10", "-m", "60", "-k", "3", "--seed", "5",
                            "-o", "."]),
        # tall (d > m): its power rounds take the alternating chain
        ("instance-tall", ["synth", "-d", "60", "-m", "40", "-k", "4", "--delta", "1.5",
                           "--seed", "7", "-o", "."]),
        # zero noise; the corpus adds a copy scaled by 2^530
        ("cube-exact", ["synth", "-d", "20", "-m", "400", "-k", "3", "--seed", "7",
                        "--format", "bin", "-o", "."]),
    ]
    # the ellipsoid solve admits points into its working set on 10081 and
    # only refreshes it on 10040
    + _design_cases(10081)
    + _design_cases(10040)
    + [
        (f"select-{method}", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                              "--method", method, "--truth", os.path.join(INSTANCE, "meta.json"),
                              "--report", "report.json"])
        for method in METHODS
    ]
    + [
        # pspa runs no power rounds, so its report records q as null
        ("select-pspa-unread-q", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "3",
                                  "--method", "pspa", "--q", "-5", "--report", "report.json"]),
        # k = 4 on a rank-3 matrix exits 3; the error report records the q
        # the method runs with: none for prewhiten, the default 10 for mpspa
        ("select-prewhiten-error-q", ["select", os.path.join("..", "instance-rank3", "A.mtx"),
                                      "-k", "4", "--method", "prewhiten", "--q", "3",
                                      "--report", "report.json"]),
        ("select-mpspa-error-q", ["select", os.path.join("..", "instance-rank3", "A.mtx"),
                                  "-k", "4", "--method", "mpspa", "--report", "report.json"]),
        ("select-erspa-tol", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                              "--method", "erspa", "--boundary-tol", "1e-15",
                              "--report", "report.json"]),
        ("select-batch", ["select", *GRID]),
        ("select-batch-bad-instances", ["select", "-k", "3", "--instances", "-1", "-d", "20",
                                        "-m", "100", "--out", "grid.csv"]),
    ]
    + [
        (f"approx-{method}", ["approx", os.path.join(INSTANCE, "A.mtx"), "-k", "4", "--q", "2",
                              "--method", method, "--bounds",
                              "--truth", os.path.join(INSTANCE, "meta.json"),
                              "--report", "report.json"])
        for method in ("spa", "rand", "svd")
    ]
    + [
        # the instance times 2^530: abs_error and rel_error are the unscaled
        # run's times 2^530 and the same bytes
        (f"approx-{method}-2p530", ["approx", os.path.join(INSTANCE, "A-2p530.bin"), "-k", "4",
                                    "--q", "2", "--method", method, "--report", "report.json"])
        for method in ("spa", "rand", "svd")
    ]
    + [
        # a tall A: chain rounds, the explicit residual's norm and rel_error by spectral_norm
        (f"approx-{method}-tall", ["approx", os.path.join("..", "instance-tall", "A.mtx"), "-k",
                                   "4", "--q", "2", "--method", method, "--bounds",
                                   "--truth", os.path.join("..", "instance-tall", "meta.json"),
                                   "--report", "report.json"])
        for method in ("spa", "rand", "svd")
    ]
    + [
        # a rank-6 sketch of a rank-4 matrix: orthonormalize drops 2 directions
        ("approx-rand-rank-deficient", ["approx", os.path.join("..", "instance-rank4", "A.mtx"),
                                        "-k", "6", "--q", "2", "--method", "rand",
                                        "--report", "report.json"]),
    ]
    + [
        # an all-zero 4 x 6 matrix: every engine exits 3 with a typed error
        (f"approx-{method}-zero", ["approx", os.path.join("..", "zero", "A.bin"), "-k", "1",
                                   "--q", "1", "--method", method, "--report", "report.json"])
        for method in ("spa", "rand", "svd")
    ]
    + [
        # a truth file whose delta is a string: exit 3 naming the file
        ("approx-bounds-bad-delta", ["approx", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                                     "--bounds", "--truth",
                                     os.path.join(INSTANCE, "bad-delta.json"),
                                     "--report", "report.json"]),
    ]
    + [
        ("unmix", ["unmix", os.path.join(CUBE, "A.bin"), "-k", "3", "--method", "erspa",
                   "--library", os.path.join(CUBE, "lib.csv"), "--rasters",
                   "--expect-match", "pspa", "--out", "out"]),
        # abundances do not depend on a common power-of-two scale
        ("unmix-exact", ["unmix", os.path.join("..", "cube-exact", "A.bin"), "-k", "3",
                         "--out", "out"]),
        ("unmix-exact-2p530", ["unmix", os.path.join("..", "cube-exact", "A-2p530.bin"), "-k",
                               "3", "--out", "out"]),
    ]
    + [(f"bench-{suite}", ["bench", suite, "--scale", "tiny", "--out", "."])
       for suite in ("fig1", "fig2", "tab2")]
    + [
        # usage errors (exit 2): a flag the subcommand does not read, a flag
        # before the subcommand, and values out of range
        ("select-unread-tol", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                               "--tol", "1e-9"]),
        ("approx-unread-tol", ["approx", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                               "--tol", "1e-9", "--report", "report.json"]),
        ("bench-unread-eps", ["bench", "fig1", "--scale", "tiny", "--eps", "1e-3",
                              "--out", "."]),
        ("unmix-unread-seed", ["unmix", os.path.join(CUBE, "A.bin"), "-k", "3", "--seed", "1",
                               "--out", "out"]),
        ("seed-before-synth", ["--seed", "3", "synth", "-d", "20", "-m", "200", "-k", "4",
                               "-o", "."]),
        ("select-eps-range", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                              "--method", "pspa", "--eps", "0.7"]),
        ("bench-jobs-range", ["bench", "fig1", "--scale", "tiny", "--jobs", "0", "--out", "."]),
        ("select-boundary-tol-range", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "4",
                                       "--method", "erspa", "--boundary-tol", "-1"]),
        ("select-batch-empty-deltas", ["select", "-k", "3", "--instances", "1", "-d", "20",
                                       "-m", "100", "--deltas", ",", "--out", "grid.csv"]),
        # a negative noise level is out of range whatever the data
        ("select-batch-negative-deltas", ["select", "-k", "3", "--instances", "1", "-d", "20",
                                          "-m", "100", "--deltas", "0,-1", "--out", "grid.csv"]),
        ("synth-negative-delta", ["synth", "-d", "20", "-m", "200", "-k", "3", "--delta", "-1",
                                  "-o", "."]),
        # the comma-list grammar: a bad token, an unknown name, a bad q and
        # lists with no entries
        *[(f"select-{name}", ["select", "-k", "3", "--instances", "1", "-d", "20", "-m", "100",
                              flag, value, "--out", "grid.csv"])
          for name, flag, value in (("deltas-bad-number", "--deltas", "1,x"),
                                    ("methods-unknown", "--methods", "spa,nope"),
                                    ("methods-bad-q", "--methods", "mpspa:x"),
                                    ("methods-empty", "--methods", ","))],
        *[(f"unmix-drop-bands-{name}", ["unmix", os.path.join(CUBE, "A.bin"), "-k", "3",
                                        "--drop-bands", value, "--out", "out"])
          for name, value in (("reversed", "5-3"), ("not-a-band", "a"), ("empty", ",,"))],
        ("synth-alpha-bad-number", ["synth", "-d", "20", "-m", "200", "-k", "3",
                                    "--alpha", "0.5,,y", "-o", "."]),
        # flags the other select mode reads
        ("select-batch-single-flags", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "3",
                                       "--instances", "1", "-d", "12", "-m", "60",
                                       "--deltas", "0", "--method", "erspa", "--q", "5",
                                       "--truth", os.path.join(INSTANCE, "meta.json"),
                                       "--report", "r.json", "--out", "g.csv"]),
        ("select-single-batch-flags", ["select", os.path.join(INSTANCE, "A.mtx"), "-k", "3",
                                       "--methods", "spa,pspa", "--deltas", "1", "--jobs", "2",
                                       "--out", "g2.csv"]),
        # ... given at their default values, and by an abbreviation
        ("select-single-default-batch-flags", ["select", os.path.join(INSTANCE, "A.mtx"), "-k",
                                               "3", "--jobs", "1", "--delta-unit", "sigmin",
                                               "--deltas", "0,0.5,1.0,1.5,2.0"]),
        ("select-batch-default-single-flags", ["select", "-k", "3", "--method", "spa",
                                               "--instances", "1", "-d", "12", "-m", "60",
                                               "--trut", os.path.join(INSTANCE, "meta.json")]),
    ]
)

_DURATION = re.compile(r"\b\d+(\.\d+)?s\b")


def _write_cube_inputs(cube_dir):
    """The unmix sidecar (6 x 8 pixels) and a library of the cube's true spectra."""
    with open(os.path.join(cube_dir, "meta.json")) as fh:
        F = json.load(fh)["F"]
    with open(os.path.join(cube_dir, "A.bin.json"), "w") as fh:
        json.dump({"height": 6, "width": 8}, fh)
    with open(os.path.join(cube_dir, "lib.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"material_{j + 1}" for j in range(len(F[0]))])
        writer.writerows([repr(float(v)) for v in row] for row in F)


def _write_scaled(directory, name):
    """A-2p530.bin: the directory's matrix `name` times 2^530, exactly."""
    A = read_matrix(os.path.join(directory, name))
    write_matrix(os.path.join(directory, "A-2p530.bin"), np.ldexp(A, 530))


def _write_zero_matrix(zero_dir):
    """zero/A.bin: the all-zero 4 x 6 matrix."""
    os.makedirs(zero_dir, exist_ok=True)
    write_matrix(os.path.join(zero_dir, "A.bin"), np.zeros((4, 6)))


def _write_bad_truth(instance_dir):
    """A copy of the instance's meta.json whose delta is a string."""
    with open(os.path.join(instance_dir, "meta.json")) as fh:
        meta = json.load(fh)
    meta["delta"] = "x"
    with open(os.path.join(instance_dir, "bad-delta.json"), "w") as fh:
        json.dump(meta, fh)


def _strip_file(path):
    if path.endswith(".json"):
        with open(path) as fh:
            data = strip_timing(json.load(fh))
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows:
            keep = [i for i, name in enumerate(rows[0])
                    if "time" not in name and strip_timing({name: None})]
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([row[i] for i in keep] for row in rows)
    elif path.endswith(".txt"):
        with open(path) as fh:
            text = _DURATION.sub("<duration>", fh.read())
        with open(path, "w") as fh:
            fh.write(text)


def run_corpus(out_dir):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    _write_zero_matrix(os.path.join(out_dir, "zero"))
    for name, argv in CORPUS:
        cwd = os.path.join(out_dir, name)
        os.makedirs(cwd, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "sepnmf", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("exit_code", f"{proc.returncode}\n")):
            with open(os.path.join(cwd, f"{stream}.txt"), "w") as fh:
                fh.write(text)
        if name == "cube":
            _write_cube_inputs(cwd)
        elif name == "instance":
            _write_bad_truth(cwd)
            _write_scaled(cwd, "A.mtx")
        elif name == "cube-exact":
            _write_scaled(cwd, "A.bin")
        print(f"{name}: exit {proc.returncode}")
    for root, _, files in os.walk(out_dir):
        for fname in files:
            _strip_file(os.path.join(root, fname))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    run_corpus(os.path.abspath(sys.argv[1]))
