"""Experiment reports: per-run records plus recomputable aggregates.

Aggregates (mean/median/min/max per metric) are recomputed from the
records whenever a report is written, so a report file cannot disagree
with its own records. Every record carries the seed that reproduces it.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .io import write_json
from .rng import RNG_NAME

_AGG_KEYS = ("recovery_rate", "abs_error", "rel_error")


@dataclass
class ExperimentReport:
    method: str
    parameters: dict
    records: list
    bound_fields: dict | None = None
    error: str | None = None


def compute_aggregates(records):
    out = {}
    for key in _AGG_KEYS:
        vals = [r[key] for r in records if r.get(key) is not None]
        if not vals:
            continue
        arr = np.asarray(vals, dtype=np.float64)
        out[key] = {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
    return out


def write_report(path, report):
    """Write report as JSON with its aggregates, the toolkit version and the RNG name."""
    write_json(path, {**asdict(report), "aggregates": compute_aggregates(report.records),
                      "toolkit_version": __version__, "rng_name": RNG_NAME})


@contextmanager
def stage(timings, name):
    """Add the wall time of the with-block to timings[name], in seconds."""
    t0 = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def strip_timing(obj):
    """Copy of a JSON-like object with timing fields removed.

    Used when comparing reports for determinism: wall-clock values are the
    only fields allowed to differ between identical runs.
    """
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if "second" not in k and k not in ("timing", "timings", "wall", "time_s")
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
