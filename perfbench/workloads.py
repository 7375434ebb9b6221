"""The four workloads: seeded inputs, one op, and the op's output check.

Each workload is built from the benchmark seed alone; the program sees only
the generated inputs. Ops are numbered 0, 1, 2, ... and op i's inputs depend
only on (seed, i), so any op can be replayed exactly (the traced run replays
the first cycle). A cycle is the shortest run of ops that covers every
variant of the workload once; runs always measure whole cycles.

Checks run outside the timed region and use numpy.linalg, not the program's
own linear algebra, as the oracle. A failed check raises CheckFailed.
"""

import contextlib
import csv
import io as _io
import json
import os

import numpy as np

# program functions are called through their modules, so the tracer's
# wrappers (installed as module attributes) see these calls too
from sepnmf import cli, lowrank, synth
from sepnmf import io as sio


class CheckFailed(Exception):
    """An op's output is wrong."""


class OpFailed(Exception):
    """An op raised inside the program or its CLI exited non-zero."""


def _run_cli(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")


def _expect(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _sigmas(A):
    return np.linalg.svd(A, compute_uv=False)


class Workload:
    """Defaults: no inputs to generate, no quality metrics."""

    def generate(self):
        pass

    def warmup(self):
        self.op(0)

    def quality(self):
        return {}


class SelectGrid(Workload):
    """Selector comparison through the CLI's batch mode (fig2, criterion c05).

    Op i generates its own 50 x 2000, k=10 instance from seed (seed, i) and
    runs eight selectors at one noise multiplier t; t cycles over the grid.
    """

    name = "select-grid"
    GRID = ("0", "0.5", "1.0", "1.5", "2.0")
    METHODS = "spa,pspa,mpspa:1,mpspa:15,erspa,merspa:15,prewhiten,spaspa"
    cycle = len(GRID)
    WARMUP_SEED = 1710

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.recovery = {}  # t -> mean recovery of each checked op

    def _select(self, instance_seed, t, out):
        _run_cli(["select", "--instances", "1", "-d", "50", "-m", "2000", "-k", "10",
                  "--deltas", t, "--methods", self.METHODS,
                  "--seed", str(instance_seed), "--out", out])

    def op(self, i):
        out = os.path.join(self.workdir, f"grid-{i}.csv")
        self._select(self.seed * 1000 + i, self.GRID[i % self.cycle], out)
        return out

    def warmup(self):
        # on one fixed instance: with op 0's instance, which the seed draws,
        # setup_s moved 0.45-0.65 s between seeds
        self._select(self.WARMUP_SEED, self.GRID[0], os.path.join(self.workdir, "warmup.csv"))

    def check(self, i, out):
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_methods = len(self.METHODS.split(","))
        _expect(len(rows) == n_methods, f"{len(rows)} CSV rows for {n_methods} methods")
        rates = [float(r["mean_recovery"]) for r in rows]
        t = self.GRID[i % self.cycle]
        if float(t) == 0.0:
            bad = [r["method"] for r, v in zip(rows, rates) if v != 1.0]
            _expect(not bad, f"inexact zero-noise recovery: {bad}")
        else:
            self.recovery.setdefault(t, []).append(float(np.mean(rates)))

    def quality(self):
        # mean over the noisy grid points of each point's mean, so the mix of
        # grid points a run happens to complete does not move the value
        if not self.recovery:
            return {}
        per_t = [float(np.mean(v)) for v in self.recovery.values()]
        return {"mean_recovery": (float(np.mean(per_t)), "ratio")}


class ApproxWide(Workload):
    """Rank-10 approximations of the widest Table 2 shape, 100 x 20000.

    The instance is criterion c06's (synth seed 60001) at 1.0 x sigma_min(F):
    the power iteration behind error2 needs a number of steps set by the
    residual's spectrum, and between synth seeds one op took 1.0 s to 2.9 s,
    too wide a spread to compare runs made with different seeds. The benchmark
    seed instead permutes the columns (which leaves every spectrum, the SPA
    picks and the all-ones power-iteration start in place) and seeds the
    Gaussian sketches of the randomized ops.
    """

    name = "approx-wide"
    INSTANCE_SEED = 60_001
    K, Q = 10, 10
    cycle = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.sigma_k1 = None
        self.ratios = []

    def generate(self):
        base = synth.generate_instance(100, 20_000, self.K, 1.0, self.INSTANCE_SEED)
        inst = synth.rescale_noise(base, synth.sigma_min(base.F))
        perm = np.random.default_rng(self.seed).permutation(inst.A.shape[1])
        self.A = np.ascontiguousarray(inst.A[:, perm])

    def op(self, i):
        if i % 2 == 0:
            return lowrank.spa_rank_approx(self.A, self.K, self.Q)
        return lowrank.rand_subspace_approx(self.A, self.K, self.Q, 0, self.seed * 1000 + i)

    def check(self, i, ap):
        if self.sigma_k1 is None:
            self.sigma_k1 = float(_sigmas(self.A)[self.K])
        err = float(np.linalg.norm(self.A - ap.B, 2))
        _expect(abs(ap.error2 - err) <= 1e-6 * err,
                f"error2 {ap.error2!r} vs LAPACK {err!r}")
        _expect(err <= 1.03 * self.sigma_k1,
                f"||A-B|| = {err!r} above 1.03 sigma_k+1 = {self.sigma_k1!r}")
        self.ratios.append(err / self.sigma_k1)

    def quality(self):
        return {"err_ratio": (float(np.mean(self.ratios)), "ratio")} if self.ratios else {}


RHO_CONST = (323.0 - 81.0 * np.sqrt(5.0)) / 324.0


class Bounds(Workload):
    """spa_rank_approx + bound_report, the c02/c03 fixture.

    A pool of 12 seeded 30 x 400, k=5 instances at 0.9 x robust_noise_bound;
    op i takes instance (i // 3) mod 12 with q cycling over 1, 2, 5.
    """

    name = "bounds"
    POOL = 12
    QS = (1, 2, 5)
    K = 5
    cycle = POOL * len(QS)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.oracle = {}

    def generate(self):
        self.pool = []
        for j in range(self.POOL):
            base = synth.generate_instance(30, 400, self.K, 1.0, self.seed * 1000 + j)
            self.pool.append(synth.rescale_noise(base, 0.9 * synth.robust_noise_bound(base.F)))

    def op(self, i):
        inst = self.pool[(i // len(self.QS)) % self.POOL]
        ap = lowrank.spa_rank_approx(inst.A, self.K, self.QS[i % len(self.QS)])
        return ap, lowrank.bound_report(inst.A, ap)

    def check(self, i, result):
        ap, rep = result
        j = (i // len(self.QS)) % self.POOL
        inst = self.pool[j]
        if j not in self.oracle:
            self.oracle[j] = (_sigmas(inst.A), float(_sigmas(inst.F)[-1]))
        s, smin_f = self.oracle[j]
        achieved = float(np.linalg.norm(inst.A - ap.B, 2))
        tol = 1e-9 * s[0]
        checks = {
            "sigma_k1 matches LAPACK": abs(rep.sigma_k1 - s[self.K]) <= tol,
            "achieved_error matches LAPACK": abs(rep.achieved_error - achieved) <= tol,
            "c02 error bound": rep.achieved_error < rep.error_bound + 1e-10,
            "c02 rank(B) = k": rep.rank_b == self.K,
            "c02 near-optimal": rep.achieved_error < 1.00003 * rep.sigma_k1,
            "c03 g2_max": rep.g2_max <= rep.sigma_k1 + 1e-10,
            "c03 g1_min": rep.g1_min >= max(0.0, rep.sigma_min_AI - rep.sigma_k1) - 1e-10,
            "c03 margin": rep.rho > RHO_CONST * smin_f,
            "c03 G1 invertible": not rep.singular_z1,
            "c03 quadratic bound": rep.achieved_error**2 <= rep.quadratic_rhs + 1e-8,
        }
        bad = [k for k, ok in checks.items() if not ok]
        _expect(not bad, f"instance {j} q={rep.q}: {bad}")


class Unmix(Workload):
    """The README's hyperspectral pipeline on a Samson-sized synthetic cube.

    156 bands x 95 x 95 pixels, k=3, noise at 0.9 x robust_noise_bound, stored
    as .bin with a height/width sidecar; the library CSV holds the true
    endmembers. As in approx-wide the instance is fixed (synth seed 1710):
    the Jacobi sweeps and abundance iterations it needs moved one op from
    5.8 s to 9.2 s between synth seeds. The benchmark seed shuffles the pixels.
    """

    name = "unmix"
    INSTANCE_SEED = 1710
    BANDS, H, W, K = 156, 95, 95, 3
    cycle = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cube = os.path.join(workdir, "cube.bin")
        self.library = os.path.join(workdir, "lib.csv")

    def generate(self):
        base = synth.generate_instance(self.BANDS, self.H * self.W, self.K, 1.0, self.INSTANCE_SEED)
        inst = synth.rescale_noise(base, 0.9 * synth.robust_noise_bound(base.F))
        perm = np.random.default_rng(self.seed).permutation(inst.A.shape[1])
        A = np.ascontiguousarray(inst.A[:, perm])
        # material j sits at the column where the permuted cube put F's column j
        where = np.argsort(perm)[inst.permutation[: self.K]]
        self.names = [f"material_{j + 1}" for j in range(self.K)]
        self.truth = {int(c): name for c, name in zip(where, self.names)}
        self.F = inst.F
        sio.write_matrix(self.cube, A)
        sio.write_json(self.cube + ".json", {"height": self.H, "width": self.W})
        sio.write_csv_rows(self.library, self.names, inst.F.tolist())

    def op(self, i):
        out = os.path.join(self.workdir, f"unmix-{i}")
        _run_cli(["unmix", self.cube, "-k", str(self.K), "--method", "mpspa", "--q", "4",
                  "--library", self.library, "--out", out, "--expect-match", "pspa"])
        return out

    def check(self, i, out):
        with open(os.path.join(out, "report.json")) as fh:
            cols = [c - 1 for c in json.load(fh)["indices_1based"]]
        _expect(set(cols) == set(self.truth), f"selected {cols}, truth {sorted(self.truth)}")
        ab = np.loadtxt(os.path.join(out, "abundances.csv"), delimiter=",", ndmin=2)
        _expect(ab.shape == (self.K, self.H * self.W), f"abundance shape {ab.shape}")
        _expect(ab.min() >= -1e-8 and np.abs(ab.sum(axis=0) - 1.0).max() <= 1e-8,
                "abundance columns off the simplex")
        with open(os.path.join(out, "sad_table.csv"), newline="") as fh:
            closest = [r["closest"] for r in csv.DictReader(fh)]
        want = [self.truth[c] for c in sorted(cols)]
        _expect(closest == want, f"closest materials {closest}, want {want}")
        # numpy oracle: each selected spectrum makes its smallest angle with its own material
        sel = np.loadtxt(os.path.join(out, "endmembers.csv"), delimiter=",", skiprows=1, ndmin=2)
        cos = (self.F / np.linalg.norm(self.F, axis=0)).T @ (sel / np.linalg.norm(sel, axis=0))
        own = [self.names.index(name) for name in want]
        _expect(np.argmax(cos, axis=0).tolist() == own, "an endmember is closest to another material")


WORKLOADS = {w.name: w for w in (SelectGrid, ApproxWide, Bounds, Unmix)}
