"""Command-line surface.

Subcommands: synth (instance generation), approx (rank-k approximation),
select (endmember/column selection, single or batch), unmix
(hyperspectral pipeline), bench (experiment suites); each takes only the
flags it reads, after its name, and select's two modes refuse each other's
flags. Exit codes: 0 ok, 2 usage (any other flag, or a value out of
range), 3 computation error, 4 benchmark produced no rows. Indices are
1-based in all user-facing output and 0-based internally.
"""

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, bench
from .errors import BadShapeError, SepnmfError
from .io import (
    FORMATS,
    open_input,
    read_json,
    read_matrix,
    sha256_of,
    write_csv_rows,
    write_json,
    write_matrix,
    write_pgm,
)
from .lowrank import APPROX_NAMES, RankK, bound_report
from .metrics import estimate_abundances, recovery_rate, spectral_angle_distance
from .reports import ExperimentReport, write_report
from .rng import RNG_NAME
from .select import (DEFAULT_BOUNDARY_TOL, DEFAULT_EPS, DEFAULT_Q, SELECTOR_NAMES, Analysis,
                     power_exponent, select)
from .synth import generate_instance, robust_noise_bound, sigma_min


def build_parser():
    p = argparse.ArgumentParser(prog="sepnmf", description=__doc__)
    p.add_argument("--version", action="version", version=f"sepnmf {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a noisy separable instance")
    s.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    s.add_argument("--format", choices=FORMATS, help="matrix file format")
    s.add_argument("-d", type=int, required=True)
    s.add_argument("-m", type=int, required=True)
    s.add_argument("-k", type=int, required=True)
    s.add_argument("--delta", type=_nonnegative_float, default=0.0,
                   help="spectral norm of the noise")
    s.add_argument("--alpha", type=_float_list,
                   help="comma list of k Dirichlet parameters in (0,1]")
    s.add_argument("-o", "--out", required=True, help="output directory")
    s.set_defaults(func=cmd_synth)

    a = sub.add_parser("approx", help="rank-k approximation of a matrix file")
    a.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    a.add_argument("--format", choices=FORMATS, help="matrix file format")
    a.add_argument("matrix")
    a.add_argument("-k", type=int, required=True)
    a.add_argument("--q", type=int, default=10)
    a.add_argument("--method", choices=APPROX_NAMES, default="spa")
    a.add_argument("--oversample", type=int, default=0)
    a.add_argument("--bounds", action="store_true", help="attach bound diagnostics (method=spa)")
    a.add_argument("--truth", help="instance meta.json for the noise-hypothesis flag")
    a.add_argument("--report", required=True, help="output report JSON")
    a.set_defaults(func=cmd_approx)

    c = sub.add_parser("select", help="column selection, single matrix or seeded batch")
    c.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    c.add_argument("--jobs", action=_Given, type=_positive_int, default=1,
                   help="parallel workers for batch suites")
    c.add_argument("--format", action=_Given, choices=FORMATS, help="matrix file format")
    c.add_argument("--eps", type=_mvee_eps, default=DEFAULT_EPS, help="ellipsoid tolerance")
    c.add_argument("matrix", nargs="?", help="matrix file (omit in batch mode)")
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--method", action=_Given, choices=SELECTOR_NAMES, default="spa")
    c.add_argument("--q", action=_Given, type=int,
                   help=f"power exponent for mpspa/merspa (default {DEFAULT_Q})")
    c.add_argument("--boundary-tol", type=_nonnegative_float, default=DEFAULT_BOUNDARY_TOL)
    c.add_argument("--truth", action=_Given, help="meta.json with ground-truth indices")
    c.add_argument("--report", action=_Given, help="output report JSON")
    c.add_argument("--instances", type=_positive_int, help="batch mode: instances per grid cell")
    c.add_argument("-d", action=_Given, type=int, help="batch mode: rows")
    c.add_argument("-m", action=_Given, type=int, help="batch mode: columns")
    c.add_argument("--deltas", action=_Given, type=_comma_list(_nonnegative_float, "numbers"),
                   default="0,0.5,1.0,1.5,2.0", help="batch noise grid")
    c.add_argument("--delta-unit", action=_Given, choices=("sigmin", "abs"), default="sigmin",
                   help="deltas are multipliers of sigma_min(F) or absolute")
    c.add_argument("--methods", action=_Given, type=_method_list,
                   help="batch methods, e.g. spa,pspa,mpspa:1,mpspa:15")
    c.add_argument("--out", action=_Given, help="batch mode: output CSV")
    c.set_defaults(func=cmd_select, given=())

    u = sub.add_parser("unmix", help="endmember extraction + abundance maps")
    u.add_argument("--format", choices=FORMATS, help="matrix file format")
    u.add_argument("--eps", type=_mvee_eps, default=DEFAULT_EPS, help="ellipsoid tolerance")
    u.add_argument("matrix", help="bands x pixels matrix file")
    u.add_argument("-k", type=int, required=True)
    u.add_argument("--method", choices=SELECTOR_NAMES, default="pspa")
    u.add_argument("--q", type=int)
    u.add_argument("--meta", help="sidecar JSON with height/width (default <matrix>.json)")
    u.add_argument("--library", help="CSV of reference spectra (header = material names)")
    u.add_argument("--drop-bands", type=_band_ranges,
                   help="1-based bands to drop, e.g. 1-4,76,101-111")
    u.add_argument("--rasters", action="store_true", help="require PGM abundance rasters")
    u.add_argument("--expect-match", choices=SELECTOR_NAMES, metavar="METHOD",
                   help="exit 0 iff this method picks the same set")
    u.add_argument("--out", required=True, help="output directory")
    u.set_defaults(func=cmd_unmix)

    b = sub.add_parser("bench", help="experiment suites")
    b.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    b.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers for batch suites")
    b.add_argument("suite", choices=(*bench.SUITES, "all"))
    b.add_argument("--scale", choices=("desk", "tiny"), default="desk")
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=cmd_bench)
    return p


# select flags that only one mode reads: the single-matrix mode (a matrix
# file) and the batch mode (--instances), in the order its message lists them
_SINGLE_ONLY = ("--format", "--method", "--q", "--truth", "--report")
_BATCH_ONLY = ("-d", "-m", "--deltas", "--delta-unit", "--methods", "--out", "--jobs")


class _Given(argparse.Action):
    """Store the value of a flag that only one select mode reads, and add the
    flag's canonical spelling to args.given: given at any value, its default
    included, the other mode refuses it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += (self.option_strings[0],)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except SepnmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report_path = getattr(args, "report", None)
        if report_path:
            write_report(
                report_path,
                ExperimentReport(
                    method=getattr(args, "method", args.command),
                    parameters=_params_from(args),
                    records=[],
                    error=str(exc),
                ),
            )
        return 3


def _params_from(args):
    keys = ("d", "m", "k", "q", "eps", "seed", "oversample", "method", "instances")
    params = {k: getattr(args, k, None) for k in keys}
    if args.command == "select":  # the q the method runs with, as its success report records
        params["q"] = power_exponent(args.method, args.k, args.q)
    return {k: v for k, v in params.items() if v is not None}


def _checked(convert, check, requirement):
    """An argparse type: convert(text), a usage error stating `requirement` unless check(value)."""
    def parse(text):
        value = convert(text)
        if not check(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value
    parse.__name__ = convert.__name__  # argparse's message: "invalid float value: 'x'"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "must be >= 1")
_nonnegative_float = _checked(float, lambda v: v >= 0.0, "must be >= 0")
_mvee_eps = _checked(float, lambda v: 0.0 < v < 0.5, "must lie in (0, 0.5)")  # solve_mvee's domain


def _comma_list(item, what):
    """An argparse type: the nonempty comma list of item(token) values, blank
    tokens skipped. A ValueError from item, or no tokens at all, is the usage
    error "not a comma list of <what>"; item raises ArgumentTypeError for a
    message of its own."""
    def parse(text):
        try:
            values = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"not a comma list of {what}: {text!r}")
        return values
    return parse


def _method(tok):
    """(name, q or None) of a selector name, optionally NAME:Q."""
    name, _, qtxt = tok.partition(":")
    if name not in SELECTOR_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown selector {name!r} (choose from {', '.join(SELECTOR_NAMES)})"
        )
    try:
        return name, int(qtxt) if qtxt else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"q in {tok!r} is not an integer") from None


def _band_range(tok):
    """(lo, hi) of a 1-based band or LO-HI range, LO <= HI."""
    lo, sep, hi = tok.partition("-")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a band or LO-HI range: {tok!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty band range {tok!r}")
    return lo, hi


_float_list = _comma_list(float, "numbers")
_method_list = _comma_list(_method, "selector names")  # (name, q or None) pairs
_band_ranges = _comma_list(_band_range, "bands")  # (lo, hi) pairs


def cmd_synth(args):
    alpha = np.asarray(args.alpha) if args.alpha else None
    inst = generate_instance(args.d, args.m, args.k, args.delta, args.seed, alpha)
    fmt = args.format or "mtx"
    os.makedirs(args.out, exist_ok=True)
    matrix_file = f"A.{fmt}"
    write_matrix(os.path.join(args.out, matrix_file), inst.A, fmt)
    meta = {
        "schema": "sepnmf-instance-v1",
        "d": args.d,
        "m": args.m,
        "k": args.k,
        "delta": inst.delta,
        "seed": inst.seed,
        "dirichlet_alpha": inst.dirichlet_alpha.tolist(),
        "true_indices_1based": (inst.true_indices + 1).tolist(),
        "F": inst.F.tolist(),
        "H_sha256": sha256_of(inst.H),
        "N_sha256": sha256_of(inst.N),
        "A_sha256": sha256_of(inst.A),
        "sigma_min_F": sigma_min(inst.F),
        "robust_noise_bound": robust_noise_bound(inst.F),
        "sigma_k1_upper": inst.delta,
        "matrix_file": matrix_file,
        "toolkit_version": __version__,
        "rng_name": RNG_NAME,
    }
    write_json(os.path.join(args.out, "meta.json"), meta)
    print(f"wrote {args.out}/{matrix_file} and {args.out}/meta.json")


def _load_truth(path, A):
    """(meta, 0-based true indices) of a --truth file: a JSON object whose
    true_indices_1based lists distinct integers in 1..m, else BadShapeError."""
    meta = read_json(path)
    m = A.shape[1]
    truth = meta.get("true_indices_1based") if isinstance(meta, dict) else None
    if not (isinstance(truth, list) and all(type(i) is int and 1 <= i <= m for i in truth)
            and len(set(truth)) == len(truth)):
        raise BadShapeError(f"{path}: true_indices_1based must list distinct integers in 1..{m}")
    if "A_sha256" in meta and sha256_of(A) != meta["A_sha256"]:
        raise SepnmfError(f"{path} does not describe this matrix (digest mismatch)")
    return meta, np.array(truth, dtype=np.int64) - 1


def cmd_approx(args):
    A = read_matrix(args.matrix, args.format)
    rk = RankK(A, args.k)  # one A A^T on a wide A for the approximation and ||A||_2
    ap = rk.approximate(args.method, args.q, args.oversample, args.seed)
    record = {
        "seed": args.seed,
        "q": args.q,
        "abs_error": ap.error2,
        "rel_error": ap.error2 / rk.norm2(),
        "timing": ap.timings,
    }
    bound_fields = None
    if args.bounds and args.method != "spa":
        print("note: --bounds applies to method=spa only; skipped", file=sys.stderr)
    elif args.bounds:
        bound_fields = asdict(bound_report(A, ap))
        bound_fields["hypothesis_satisfied"] = "not_applicable"
        if args.truth:
            meta, _ = _load_truth(args.truth, A)
            if "robust_noise_bound" in meta and "delta" in meta:
                delta, bound = meta["delta"], meta["robust_noise_bound"]
                if not (type(delta) in (int, float) and type(bound) in (int, float)):
                    raise BadShapeError(
                        f"{args.truth}: delta and robust_noise_bound must be numbers")
                bound_fields["hypothesis_satisfied"] = bool(delta < bound)
    report = ExperimentReport(
        method=args.method,
        parameters={"d": A.shape[0], "m": A.shape[1], "k": args.k, "q": args.q,
                    "oversample": args.oversample, "seed": args.seed,
                    "matrix": os.path.basename(args.matrix)},
        records=[record],
        bound_fields=bound_fields,
    )
    write_report(args.report, report)
    print(f"{args.method}: abs_error={record['abs_error']:.6g} rel_error={record['rel_error']:.6g}")


def cmd_select(args):
    if not (args.matrix or args.instances):
        print("error: provide a matrix file or --instances for batch mode", file=sys.stderr)
        return 2
    unread = [f for f in (_SINGLE_ONLY if args.instances else _BATCH_ONLY) if f in args.given]
    if args.instances and args.matrix:
        unread.insert(0, "MATRIX")
    if unread:
        mode = "batch (--instances)" if args.instances else "single-matrix"
        print(f"error: {mode} select does not read {', '.join(unread)}", file=sys.stderr)
        return 2
    if args.instances:
        return _select_batch(args)
    A = read_matrix(args.matrix, args.format)
    res = select(A, args.k, args.method, args.q, args.eps, args.boundary_tol)
    notes = []
    if args.q is None and res.q is not None:
        notes.append(f"q defaulted to {res.q}")
        print(f"note: --q not given, defaulting to q={res.q}", file=sys.stderr)
    record = {
        "seed": args.seed,
        "indices_1based": (np.sort(res.indices) + 1).tolist(),
        "timing": res.timing,
    }
    if args.truth:
        _, truth = _load_truth(args.truth, A)
        record["recovery_rate"] = recovery_rate(res.indices, truth)
    report = ExperimentReport(
        method=args.method,
        parameters={"d": A.shape[0], "m": A.shape[1], "k": args.k, "q": res.q,
                    "eps": args.eps, "seed": args.seed,
                    "matrix": os.path.basename(args.matrix)},
        records=[record],
    )
    report.parameters["notes"] = notes + list(res.notes)
    if args.report:
        write_report(args.report, report)
    print("selected (1-based):", " ".join(str(i) for i in record["indices_1based"]))
    if "recovery_rate" in record:
        print(f"recovery_rate: {record['recovery_rate']:.4f}")


def _select_batch(args):
    if not (args.d and args.m):
        print("error: batch mode needs -d and -m", file=sys.stderr)
        return 2
    if args.delta_unit == "abs":
        print("note: absolute deltas are applied as-is per instance", file=sys.stderr)
    out = args.out or "select_batch.csv"
    csv_rows, _ = bench.selector_grid(
        out, args.d, args.m, args.k, args.seed, args.instances,
        args.methods or [("spa", None), ("pspa", None)], args.deltas, args.eps,
        args.boundary_tol, args.delta_unit, args.jobs,
    )
    print(f"wrote {out} ({len(csv_rows)} rows)")


def _kept_bands(ranges, d):
    """0-based indices of the bands of a d-band cube that `ranges` keeps."""
    bad = [f"{lo}-{hi}" if lo < hi else str(lo) for lo, hi in ranges if lo < 1 or hi > d]
    if bad:
        raise SepnmfError(f"--drop-bands out of range 1..{d}: {', '.join(bad)}")
    keep = np.ones(d, dtype=bool)
    for lo, hi in ranges:
        keep[lo - 1:hi] = False
    return np.flatnonzero(keep)


def _read_library(path, bands):
    """Material names and the bands x materials spectra of a library CSV
    (header = names); anything else raises BadShapeError naming the file."""
    with open_input(path) as fh:
        try:
            names = [h.strip() for h in fh.readline().strip().split(",")]
            lib = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise BadShapeError(f"{path}: malformed library CSV ({exc})") from None
    if lib.shape[1] != len(names) or not np.isfinite(lib).all():
        raise BadShapeError(f"{path}: every row needs {len(names)} finite values, one per name")
    if lib.shape[0] != bands:
        raise BadShapeError(
            f"{path}: library has {lib.shape[0]} bands but the (filtered) cube has {bands}"
        )
    return names, lib


def cmd_unmix(args):
    A = read_matrix(args.matrix, args.format)
    # an explicit --meta must exist; the default <matrix>.json is optional
    meta_path = args.meta or args.matrix + ".json"
    meta = read_json(meta_path) if args.meta or os.path.exists(meta_path) else {}
    if not isinstance(meta, dict):
        raise BadShapeError(f"{meta_path}: sidecar must be a JSON object")
    height, width = meta.get("height"), meta.get("width")
    for name, value in (("height", height), ("width", width)):
        if value is not None and (type(value) is not int or value < 1):
            raise BadShapeError(f"{meta_path}: {name} must be a positive integer, got {value!r}")
    if height and width and height * width != A.shape[1]:
        raise SepnmfError(f"height*width = {height * width} != {A.shape[1]} pixels")
    if args.rasters and not (height and width):
        raise BadShapeError("rasters requested but sidecar has no height/width")
    if args.drop_bands:
        A = np.ascontiguousarray(A[_kept_bands(args.drop_bands, A.shape[0])])
    if args.library:
        names, lib = _read_library(args.library, A.shape[0])
    analysis = Analysis(A, args.k, args.eps)
    res = analysis.select(args.method, args.q)
    order = np.sort(res.indices)
    F_sel = np.ascontiguousarray(A[:, order])
    ab = estimate_abundances(F_sel, A)

    os.makedirs(args.out, exist_ok=True)
    fmt = args.format or "csv"
    header = [f"endmember_{i + 1}(col={j + 1})" for i, j in enumerate(order)]
    write_csv_rows(os.path.join(args.out, "endmembers.csv"), header, F_sel.tolist())
    write_matrix(os.path.join(args.out, f"abundances.{fmt}"), ab.W, fmt)

    files = ["endmembers.csv", f"abundances.{fmt}"]
    sad_rows = None
    if args.library:
        sad_rows = []
        for i in range(F_sel.shape[1]):
            sads = [spectral_angle_distance(lib[:, j], F_sel[:, i]) for j in range(lib.shape[1])]
            closest = names[int(np.argmin(sads))]
            sad_rows.append([i + 1] + [float(s) for s in sads] + [closest])
        write_csv_rows(
            os.path.join(args.out, "sad_table.csv"),
            ["endmember"] + names + ["closest"],
            sad_rows,
        )
        files.append("sad_table.csv")

    if height and width:
        for i in range(ab.W.shape[0]):
            name = f"abundance_{i + 1:02d}.pgm"
            write_pgm(os.path.join(args.out, name), ab.W[i].reshape(height, width))
            files.append(name)

    write_json(
        os.path.join(args.out, "report.json"),
        {
            "method": args.method,
            "q": res.q,
            "k": args.k,
            "indices_1based": (order + 1).tolist(),
            "abundance_passes": ab.iterations,
            "notes": list(res.notes),
            "files": files,
            "timing": res.timing,
            "toolkit_version": __version__,
        },
    )
    print("selected (1-based):", " ".join(str(i + 1) for i in order))

    if args.expect_match:
        other_idx = analysis.select(args.expect_match).indices
        if set(order.tolist()) == set(other_idx.tolist()):
            print(f"match: {args.method} and {args.expect_match} select the same set")
            return 0
        print(
            f"mismatch: {args.expect_match} selected "
            + " ".join(str(i + 1) for i in np.sort(other_idx)),
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_bench(args):
    names = list(bench.SUITES) if args.suite == "all" else [args.suite]
    ok_rows, failures, summary = bench.run_suites(
        names, args.out, scale=args.scale, seed=args.seed, jobs=args.jobs
    )
    print(summary, end="")
    if ok_rows == 0:
        return 4
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
