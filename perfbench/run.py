"""Run one sepnmf benchmark workload and print its metrics.

Run from the root of a checkout; the program is imported from ./src:

    python3 perfbench/run.py --workload select-grid --seed 1 --seconds 10 --trace 0

One client runs one op at a time (a closed loop) with BLAS pinned to one
thread. Set-up (the import of sepnmf, input generation and file writes, one
warm-up op) is timed apart from the ops; whole cycles of ops then run until
--seconds of op time have passed, and each op's output is checked outside
the timed region.
The gated times are calibrated by a reference loop timed alongside (see
reference.py), which cancels the host's speed swings; wall times are printed
too.
With --trace 1 the first cycle is replayed with spans around every public
function of the program's modules and the per-layer metrics are printed
instead; the spans are written to .perfbench/spans-<workload>-seed<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). Lines before it give the environment, the
sample counts and the metrics BENCHMARK.json does not gate (the wall times
op_p50_s, ops_per_s and op_tail_s, fail_frac, mean_recovery, err_ratio).
"""

import os
import sys
import time

# Set before numpy is first imported: on 2 cores a second BLAS thread slowed
# a 1000x50 QR 100x.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

# numpy is the benchmark's own dependency too: it is loaded before set-up
# starts, and setup_s counts the import of sepnmf only
import numpy as np  # noqa: E402

import reference  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
SETUP_REPS = 3
MAX_OPS = 1000  # op i's inputs are derived from seed * 1000 + i
RAISED = object()  # the output of an op that raised


def import_program():
    """Import sepnmf and its modules from ./src, never from an installed copy."""
    sys.path.insert(0, SRC)
    import sepnmf

    if os.path.dirname(os.path.dirname(os.path.abspath(sepnmf.__file__))) != SRC:
        raise ImportError(f"sepnmf was imported from {sepnmf.__file__}, not {SRC}")
    for module in ("cli", "bench", "io", "kernels", "linalg", "lowrank", "metrics",
                   "mvee", "select", "spa", "synth"):
        __import__(f"sepnmf.{module}")
    return sepnmf


def blas_threads(np):
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(sepnmf, np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):  # not a repository further up
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "pinned_env": PINNED_ENV,
        "backend": sepnmf.active_backend(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
    }


def run_op(wl, i, errors):
    """Run op i; returns (start, end, output), the output RAISED if it raised."""
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception:  # a failing op is counted and the run goes on
        errors.append(f"op {i} raised:\n{traceback.format_exc(limit=3)}")
        out = RAISED
    return t0, time.perf_counter(), out


def check_op(wl, i, out, errors):
    """Check op i's output, outside the timed interval; True if it is right."""
    if out is RAISED:
        return False
    try:
        wl.check(i, out)
    except Exception:  # a wrong or unreadable output counts as a failed op
        errors.append(f"op {i} failed its check:\n{traceback.format_exc(limit=3)}")
        return False
    return True


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times):
    """(percentile, value): the highest whole percentile with at least 10
    samples above it, or None below 20 samples."""
    n = len(times)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def generate_in_child(wl, path, tracer, keep):
    """Run wl.generate() in a forked child and return its (wall, calibrated)
    seconds, timed in the child.

    Generation's transient memory (up to 3x the input on approx-wide and
    unmix) then stays out of this process's peak RSS, which holds only the
    inputs and the ops. With keep, the generated inputs are copied back into
    wl; with a tracer, the child's spans are appended to it. The child hands
    them over through the file at path.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with reference.sampler(None if tracer else wl.name) as ref:
                if tracer:
                    tracer.install()
                t0 = time.perf_counter()
                wl.generate()
                t1 = time.perf_counter()
                if tracer:
                    tracer.uninstall()
            with open(path, "wb") as fh:
                pickle.dump((ref.calibrate(t0, t1), vars(wl) if keep else None,
                             tracer.spans if tracer else None), fh, protocol=5)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"input generation failed (exit status {status})")
    with open(path, "rb") as fh:
        times, state, spans = pickle.load(fh)
    os.remove(path)
    if keep:
        vars(wl).update(state)
    if tracer:
        tracer.spans.extend(spans)  # set-up spans come first, so their ids hold
    return times


def setup(args, tracer):
    """Import sepnmf, generate the inputs SETUP_REPS times, run one warm-up op.

    Returns the workload, calibrated setup_s, a line describing it and the
    peak RSS after input generation. A traced run traces the first
    generation, and samples no reference loop, so that no span holds one;
    its setup_s is not reported.
    """
    loop = None if tracer else args.workload
    with reference.sampler(loop) as ref:
        t0 = time.perf_counter()
        import_program()
        imp_wall, imp = ref.calibrate(t0, time.perf_counter())
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    path = os.path.join(args.workdir, "inputs.pkl")
    gens = [generate_in_child(wl, path, tracer if rep == 0 else None, rep == SETUP_REPS - 1)
            for rep in range(SETUP_REPS)]
    gen_wall = statistics.median(g[0] for g in gens)
    gen = statistics.median(g[1] for g in gens)
    gen_rss = peak_rss_mb()
    with reference.sampler(loop) as ref:
        t0 = time.perf_counter()
        wl.warmup()  # not checked, and not counted among the ops
        warm_wall, warm = ref.calibrate(t0, time.perf_counter())
    return wl, imp + gen + warm, gen_rss, (
        f"import {imp:.3f} s + median of {SETUP_REPS} input generations {gen:.3f} s + warm-up op "
        f"{warm:.3f} s; wall time {imp_wall + gen_wall + warm_wall:.3f} s")


def timed_phase(wl, seconds, errors):
    """Whole cycles of ops until `seconds` of op wall time have passed.

    Returns per-op (wall seconds, calibrated seconds, ok) and the peak RSS
    after the first cycle's ops. That cycle's checks wait until the peak has
    been read, so that no check sets it; later cycles are not counted in it,
    because the high-water mark crept up with the number of cycles, which
    depends on host speed.
    """
    ops = []
    with reference.sampler(wl.name) as ref:
        first = []
        for i in range(wl.cycle):
            t0, t1, out = run_op(wl, i, errors)
            first.append((ref.calibrate(t0, t1), out))
        rss_mb = peak_rss_mb()
        for i, (times, out) in enumerate(first):
            ops.append(times + (check_op(wl, i, out, errors),))
        del first
        i = wl.cycle
        while sum(o[0] for o in ops) < seconds and i + wl.cycle <= MAX_OPS:
            for _ in range(wl.cycle):
                t0, t1, out = run_op(wl, i, errors)
                ops.append(ref.calibrate(t0, t1) + (check_op(wl, i, out, errors),))
                i += 1
    return ops, rss_mb


def traced_cycle(wl, tracer, errors):
    """Replay the first cycle with spans recorded; returns its seconds and oks."""
    total, oks = 0.0, []
    tracer.install()
    try:
        for j in range(wl.cycle):
            tracer.op_id = f"op{j}"
            t0, t1, out = run_op(wl, j, errors)
            total += t1 - t0
            oks.append(check_op(wl, j, out, errors))
    finally:
        tracer.uninstall()
    return total, oks


def measure(args):
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    errors = []
    wl, setup_s, gen_rss, setup_note = setup(args, tracer)
    ops, rss_mb = timed_phase(wl, args.seconds, errors)
    wall = [o[0] for o in ops]
    cal = [o[1] for o in ops]
    oks = [o[2] for o in ops]

    lines = [
        f"setup_s      {setup_s:.4f} s     calibrated: {setup_note}",
        f"op_mean_s    {statistics.fmean(cal):.4f} s     calibrated, n={len(ops)} ops, "
        f"{len(ops) // wl.cycle} cycles of {wl.cycle}",
        f"op_p50_s     {statistics.median(wall):.4f} s     wall time (not gated)",
        f"ops_per_s    {len(wall) / sum(wall):.4f} 1/s   over {sum(wall):.2f} s of ops, wall time "
        "(not gated)",
    ]
    tail_stat = tail(wall)
    lines.append(f"op_tail_s    {tail_stat[1]:.4f} s     p{tail_stat[0]}, n={len(wall)}, wall time "
                 "(not gated)" if tail_stat else f"op_tail_s    n/a          n={len(wall)} < 20 ops")
    lines.append(f"peak_rss_mb  {rss_mb:.1f} MB    after the warm-up op and the first cycle's ops, "
                 f"before their checks; {gen_rss:.1f} MB after input generation, so set by "
                 + ("input generation" if rss_mb == gen_rss else "the ops"))
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_mean_s": {"value": statistics.fmean(cal), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }

    if tracer:
        traced_s, traced_oks = traced_cycle(wl, tracer, errors)
        oks += traced_oks
        overhead = 1.0 - sum(wall[: wl.cycle]) / traced_s
        lines.append(f"trace        first cycle: {sum(wall[: wl.cycle]):.3f} s untraced, "
                     f"{traced_s:.3f} s traced, {len(tracer.spans)} spans")
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        metrics = tracer.metrics(overhead)

    failed = oks.count(False)
    lines.append(f"fail_frac    {failed / len(oks):.4f} ratio  {failed} of {len(oks)} ops (not gated)")
    for name, (value, unit) in wl.quality().items():
        lines.append(f"{name:<12} {value:.6f} {unit} (not gated)")
    return lines, errors, {
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    with open(SPEC) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("select-grid", "approx-wide", "bounds", "unmix"))
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="op time to measure (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "sepnmf", "__init__.py")):
        print(f"error: no sepnmf package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    args.workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(args.workdir)
    try:
        lines, errors, result = measure(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    import sepnmf

    for err in errors[:5]:
        print(err, file=sys.stderr)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(sepnmf, np), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
