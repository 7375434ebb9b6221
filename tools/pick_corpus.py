"""Write every selector's picks over a fixed seeded grid to one JSON file.

    python tools/pick_corpus.py OUT.json

The methods are the select-grid benchmark's eight: spa, pspa, mpspa at q = 1
and q = 15, erspa, merspa at q = 15, prewhiten and spaspa. They run on the
seeded noisy-separable instances (synth.generate_instance) of three shapes,
50x2000x10 for seeds 1-20 and 10x80x3 and 30x400x5 for seeds 1-40, each at
noise t in {0, 0.5, 1, 1.5, 2} times sigma_min(F), with one Analysis per
noisy instance as in `select --instances`: 4000 index arrays in all, pick
order included. A selector that raises records its error type instead.

The file holds one record per line, on the sources of the checkout this script
sits in (its src/ directory) with BLAS pinned to one thread. Run it in two
checkouts; `diff` of the two files lists every pick that changed.
"""

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sepnmf.errors import SepnmfError  # noqa: E402
from sepnmf.select import Analysis  # noqa: E402
from sepnmf.synth import generate_instance, rescale_noise, sigma_min  # noqa: E402

METHODS = (("spa", None), ("pspa", None), ("mpspa", 1), ("mpspa", 15), ("erspa", None),
           ("merspa", 15), ("prewhiten", None), ("spaspa", None))
SHAPES = (((50, 2000, 10), range(1, 21)), ((10, 80, 3), range(1, 41)),
          ((30, 400, 5), range(1, 41)))
NOISE = (0.0, 0.5, 1.0, 1.5, 2.0)


def picks():
    """One record per (shape, seed, t, method): its indices or its error type."""
    for (d, m, k), seeds in SHAPES:
        for seed in seeds:
            base = generate_instance(d, m, k, 1.0, seed)
            for t in NOISE:
                analysis = Analysis(rescale_noise(base, t * sigma_min(base.F)).A, k)
                for method, q in METHODS:
                    record = {"shape": [d, m, k], "seed": seed, "t": t,
                              "method": method if q is None else f"{method}:{q}"}
                    try:
                        record["indices"] = analysis.select(method, q).indices.tolist()
                    except SepnmfError as exc:
                        record["error"] = type(exc).__name__
                    yield record


def main(argv):
    if len(argv) != 1:
        sys.exit(f"usage: {sys.argv[0]} OUT.json")
    with open(argv[0], "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in picks()) + "\n]\n")


if __name__ == "__main__":
    main(sys.argv[1:])
