"""Compare a parent and a change on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --parent DIR --change DIR [--workload NAME ...]
            [--seed 1] [--log FILE]
    python3 perfbench/compare.py --judge FILE

DIR is the root of a checkout (the tree holding src/sepnmf). Both sides run
this file's run.py, so the benchmark code and settings are identical. Each
run lasts BENCHMARK.json's run_seconds. MIN_PAIRS pairs run per workload;
pair p runs seed + p on both sides, and the side that runs first alternates. Each
result is appended to --log as one JSON line; --judge re-reads such a log.

Each (workload, metric) gets one verdict, by the rule of the choosing-metrics
guide (section 8) and the bounds in BENCHMARK.json:
  improved    the change wins at least 9 pairs in 10 and the medians differ,
              in its favour, by more than the parent's interquartile range
  unresolved  the parent's interquartile range, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run; or fewer than 10 complete pairs
  worse       the change's median is worse than the parent's by more than
              the bound
  no change   otherwise
A rise in the share of failed ops is flagged on its own line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10


def run_side(root, workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed in {root} (exit {proc.returncode}): {proc.stderr.strip()[-400:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def collect(args, spec, log):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    records = []
    for workload in workloads:
        for p in range(MIN_PAIRS):
            seed = args.seed + p
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                rec = {"workload": workload, "pair": p, "seed": seed, "side": side,
                       "result": run_side(root, workload, seed)}
                records.append(rec)
                if log:
                    log.write(json.dumps(rec) + "\n")
                    log.flush()
            print(f"{workload}: pair {p + 1}/{MIN_PAIRS} done", file=sys.stderr)
    return records


def verdict(parent, change, better, bound):
    """(verdict, pairs the change won) for paired values (parent[i], change[i])."""
    n = len(parent)
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a is worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs < {MIN_PAIRS})", wins
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / abs(med_p)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * n and sign * (med_p - med_c) > q3 - q1:
        return "improved", wins
    if spread > bound and not all_better:
        return f"unresolved (parent spread {spread:.3f} > bound {bound})", wins
    if sign * (med_c - med_p) / abs(med_p) > bound:
        return "worse", wins
    return "no change", wins


def judge(records, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in records):
        pairs = {}
        for r in records:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        done = [v for _, v in sorted(pairs.items())
                if v.get("parent") is not None and v.get("change") is not None]
        print(f"\n{workload}: {len(done)} complete pairs")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
              f"{'wins':<6} verdict")
        for name, m in metrics.items():
            par = [v["parent"]["metrics"][name]["value"] for v in done]
            chg = [v["change"]["metrics"][name]["value"] for v in done]
            if len(par) < 2:
                print(f"  {name:<12} too few results")
                ok = False
                continue
            v, wins = verdict(par, chg, m["better"], m["bound"])
            ok = ok and v in ("improved", "no change")
            print(f"  {name:<12} {_summary(par, m['unit']):<34} {_summary(chg, m['unit']):<34} "
                  f"{wins}/{len(done):<4} {v}")
        fails = {}
        for side in ("parent", "change"):
            res = [v[side] for v in done]
            fails[side] = sum(r["failed"] for r in res) / max(1, sum(r["attempted"] for r in res))
        print(f"  fail_frac    parent {fails['parent']:.4f}  change {fails['change']:.4f}"
              + ("  ** FAILED OPS ROSE **" if fails["change"] > fails["parent"] else ""))
        ok = ok and fails["change"] <= fails["parent"]
    return ok


def _summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] {unit}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="root of the parent checkout")
    p.add_argument("--change", help="root of the change checkout")
    p.add_argument("--workload", action="append", help="workload to run (default: all)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    p.add_argument("--log", help="append each result to this JSON-lines file")
    p.add_argument("--judge", metavar="FILE", help="judge a log instead of running")
    args = p.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)

    if args.judge:
        with open(args.judge) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    else:
        if not (args.parent and args.change):
            p.error("--parent and --change are required unless --judge is given")
        if args.log:
            with open(args.log, "a") as log:
                records = collect(args, spec, log)
        else:
            records = collect(args, spec, None)
    return 0 if judge(records, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
