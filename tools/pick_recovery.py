"""Mean recovery rate per (shape, method) group of one or more pick corpora.

    python tools/pick_recovery.py PICKS.json [PICKS.json ...]

Each file is the output of tools/pick_corpus.py. A record's recovery rate is
metrics.recovery_rate of its indices against the true indices of its
instance, synth.generate_instance(d, m, k, 1.0, seed) (rescaling the noise
keeps them); a record that holds an error instead recovers 0. Prints one line
per group with one mean per file, in the order given, so two corpora from two
checkouts tell a tie-break (order or equal-recovery swaps) from a loss.

Each file after the first is also compared with the first record by record:
per group, "moved/reordered" counts the records whose index set (or error)
changed and those whose picks changed in order alone. A last row, "total all",
sums those counts over every group.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sepnmf.metrics import recovery_rate  # noqa: E402
from sepnmf.synth import generate_instance  # noqa: E402


def _key(r):
    return (*r["shape"], r["seed"], r["t"], r["method"])


def _group(r):
    d, m, k = r["shape"]
    return (f"{d}x{m}x{k}", r["method"])


def group_means(records, truth):
    """{(shape, method): mean recovery rate} over the records of one corpus."""
    sums = {}
    for r in records:
        d, m, k = r["shape"]
        key = (d, m, k, r["seed"])
        if key not in truth:
            truth[key] = generate_instance(d, m, k, 1.0, r["seed"]).true_indices
        rate = recovery_rate(r["indices"], truth[key]) if "indices" in r else 0.0
        total, n = sums.get(_group(r), (0.0, 0))
        sums[_group(r)] = (total + rate, n + 1)
    return {g: total / n for g, (total, n) in sums.items()}


def pick_changes(base, other):
    """{(shape, method): [moved, reordered]}: records of `other` whose index set
    or error differs from `base`'s record of the same instance and method, and
    those whose picks differ in order only."""
    ref = {_key(r): r for r in base}
    counts = {}
    for r in other:
        b = ref.get(_key(r), {})
        c = counts.setdefault(_group(r), [0, 0])
        if r.get("indices") == b.get("indices") and r.get("error") == b.get("error"):
            continue
        reordered = "indices" in r and "indices" in b and sorted(r["indices"]) == sorted(b["indices"])
        c[1 if reordered else 0] += 1
    return counts


def total_changes(counts):
    """[moved, reordered] summed over the groups of one pick_changes result."""
    return [sum(c[i] for c in counts.values()) for i in (0, 1)]


def main(paths):
    if not paths:
        sys.exit(f"usage: {sys.argv[0]} PICKS.json [PICKS.json ...]")
    truth = {}
    corpora = []
    for path in paths:
        with open(path) as fh:
            corpora.append(json.load(fh))
    tables = [group_means(records, truth) for records in corpora]
    changes = [pick_changes(corpora[0], records) for records in corpora[1:]]
    names = [os.path.basename(p) for p in paths]
    print("shape method " + " ".join(names + [f"{n}:moved/reordered" for n in names[1:]]))
    for group in sorted(set().union(*tables)):
        print(*group, *(f"{t[group]:.4f}" if group in t else "-" for t in tables),
              *("{}/{}".format(*c.get(group, (0, 0))) for c in changes))
    print("total all", *("-" for _ in tables), *("{}/{}".format(*total_changes(c)) for c in changes))


if __name__ == "__main__":
    main(sys.argv[1:])
