"""Experiment reports: per-run records, stage timing and the timing strip.

A report holds its records (each carrying the seed that reproduces it),
the method and its parameters, and the bound fields or error of the run.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from . import __version__
from .io import write_json
from .rng import RNG_NAME


@dataclass
class ExperimentReport:
    method: str
    parameters: dict
    records: list
    bound_fields: dict | None = None
    error: str | None = None


def write_report(path, report):
    """Write report as JSON with the toolkit version and the RNG name."""
    write_json(path, {**asdict(report), "toolkit_version": __version__, "rng_name": RNG_NAME})


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
