"""Mean recovery rate per (shape, method) group of one or more pick corpora.

    python tools/pick_recovery.py PICKS.json [PICKS.json ...]

Each file is the output of tools/pick_corpus.py. A record's recovery rate is
metrics.recovery_rate of its indices against the true indices of its
instance, synth.generate_instance(d, m, k, 1.0, seed) (rescaling the noise
keeps them); a record that holds an error instead recovers 0. Prints one line
per group with one mean per file, in the order given, so two corpora from two
checkouts tell a tie-break (order or equal-recovery swaps) from a loss.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sepnmf.metrics import recovery_rate  # noqa: E402
from sepnmf.synth import generate_instance  # noqa: E402


def group_means(records, truth):
    """{(shape, method): mean recovery rate} over the records of one corpus."""
    sums = {}
    for r in records:
        d, m, k = r["shape"]
        key = (d, m, k, r["seed"])
        if key not in truth:
            truth[key] = generate_instance(d, m, k, 1.0, r["seed"]).true_indices
        rate = recovery_rate(r["indices"], truth[key]) if "indices" in r else 0.0
        total, n = sums.get((f"{d}x{m}x{k}", r["method"]), (0.0, 0))
        sums[(f"{d}x{m}x{k}", r["method"])] = (total + rate, n + 1)
    return {g: total / n for g, (total, n) in sums.items()}


def main(paths):
    if not paths:
        sys.exit(f"usage: {sys.argv[0]} PICKS.json [PICKS.json ...]")
    truth = {}
    tables = []
    for path in paths:
        with open(path) as fh:
            tables.append(group_means(json.load(fh), truth))
    print("shape method " + " ".join(os.path.basename(p) for p in paths))
    for group in sorted(set().union(*tables)):
        print(*group, *(f"{t[group]:.4f}" if group in t else "-" for t in tables))


if __name__ == "__main__":
    main(sys.argv[1:])
