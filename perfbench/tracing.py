"""Spans around the public functions of each sepnmf module.

The tracer wraps the functions named in LAYERS from outside the program:
each wrapper replaces the original in every loaded ``sepnmf.*`` module that
binds the same object, so calls made through ``from .linalg import ...``
names are caught as well as ``kernels.svd_jacobi_rows``-style module calls.
Each call becomes one span (name, start, end, parent, op id, counts) kept in
memory; per-layer metrics are derived from the spans when the run ends.
"""

import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

# module -> public functions traced, and the per-function stats reported
_TIMES = ("calls", "time_s", "self_s")
LAYERS = {
    "kernels": {
        "svd_jacobi_rows": ("calls", "self_s", "sweeps", "pair_visits"),
        "mvee_ascent": ("calls", "self_s", "iters"),
        "mgs_rows": ("calls", "self_s"),
        "spa_core": ("calls", "self_s"),
    },
    "linalg": {
        "svd_truncated": _TIMES + ("distinct_ratio",),
        "svd_full": _TIMES,
        "singular_values": _TIMES,
        "eigh_sym": _TIMES,
        "spectral_norm": _TIMES,
        "orthonormalize": _TIMES,
        "psd_sqrt": _TIMES,
    },
    "mvee": {"solve_mvee": _TIMES + ("iters", "points")},
    "spa": {"spa_select": _TIMES + ("distinct_ratio",)},
    "lowrank": {
        name: _TIMES
        for name in ("subspace_basis", "spa_rank_approx", "rand_subspace_approx", "bound_report")
    },
    "select": {
        f"{name}_select": ("calls", "time_s")
        for name in ("pspa", "mpspa", "erspa", "merspa", "prewhiten_spa", "spaspa")
    },
    "metrics": {"estimate_abundances": ("calls", "time_s", "iters")},
    "io": {
        name: ("calls", "time_s", "bytes")
        for name in ("read_matrix", "write_matrix", "write_json", "write_csv_rows", "write_pgm")
    },
    "synth": {"generate_instance": ("calls", "time_s"), "rescale_noise": ("calls", "time_s")},
    "cli": {"main": ("calls", "time_s")},
    "bench": {"run_selector": ("calls", "time_s")},
}

# layers whose calls during input generation (op id SETUP) are counted too;
# every other function is counted over the traced ops only, and its calls
# during input generation under "setup.<module>.<function>", of which
# SETUP_SPLIT names the ones reported (the power iteration that generation
# runs inside synth)
SETUP = "setup"
SETUP_LAYERS = ("synth", "io")
SETUP_SPLIT = {"linalg.spectral_norm": ("calls", "time_s")}

_UNITS = {
    "calls": ("count", "lower"),
    "time_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "sweeps": ("count", "lower"),
    "pair_visits": ("count", "lower"),
    "iters": ("count", "lower"),
    "points": ("count", "lower"),
    "bytes": ("B", "lower"),
    "distinct_ratio": ("ratio", "higher"),
}
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for module, funcs in LAYERS.items():
        for func, stats in funcs.items():
            for stat in stats:
                specs.append((f"{module}.{func}.{stat}",) + _UNITS[stat])
    for name, stats in SETUP_SPLIT.items():
        for stat in stats:
            specs.append((f"{SETUP}.{name}.{stat}",) + _UNITS[stat])
    specs.append(OVERHEAD)
    return specs


def _fingerprint(a, *extra):
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(repr((a.dtype.str, a.shape) + extra).encode(), digest_size=16)
    h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _counts(name, args, kwargs, out):
    """Counts taken from a call's arguments and return value."""
    if name == "kernels.svd_jacobi_rows":
        r = args[0].shape[0]
        return {"sweeps": int(out), "pair_visits": int(out) * r * (r - 1) // 2}
    if name == "kernels.mvee_ascent":
        return {"iters": int(out[1])}
    if name == "mvee.solve_mvee":
        return {"iters": int(out.iterations), "points": int(np.shape(args[0])[1])}
    if name == "metrics.estimate_abundances":
        return {"iters": int(out.iterations)}
    if name.startswith("io."):
        return {"bytes": os.path.getsize(args[0])}
    return {}


def _input_key(name, args, kwargs):
    if name in ("linalg.svd_truncated", "spa.spa_select"):
        return _fingerprint(_arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "k"))
    return None


class Tracer:
    """Installs span-recording wrappers into the sepnmf modules.

    ``op_id`` labels the spans recorded next; set it before each op.
    """

    def __init__(self):
        self.spans = []
        self.op_id = SETUP
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = _input_key(name, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                counts = _counts(name, args, kwargs, out) if ok else {}
                if key is not None:
                    counts["input"] = key
                self.spans[sid] = {
                    "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": self.op_id, "counts": counts,
                }

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sepnmf" or n.startswith("sepnmf."))]
        for module, funcs in LAYERS.items():
            owner = sys.modules[f"sepnmf.{module}"]
            for func in funcs:
                orig = getattr(owner, func)
                wrapper = self._wrap(f"{module}.{func}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self, overhead_frac):
        """Per-layer metrics over the recorded spans, every name present."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        agg = {}
        keys = {}
        for sid, s in enumerate(self.spans):
            name = s["name"]
            if s["op"] == SETUP and name.split(".")[0] not in SETUP_LAYERS:
                name = f"{SETUP}.{name}"
            a = agg.setdefault(name, {})
            dur = s["end"] - s["start"]
            a["calls"] = a.get("calls", 0) + 1
            a["time_s"] = a.get("time_s", 0.0) + dur
            a["self_s"] = a.get("self_s", 0.0) + dur - child[sid]
            for c, v in s["counts"].items():
                if c == "input":
                    keys.setdefault(name, set()).add(v)
                else:
                    a[c] = a.get(c, 0) + v
        for name, distinct in keys.items():
            agg[name]["distinct_ratio"] = len(distinct) / agg[name]["calls"]
        out = {}
        for name, unit, _ in metric_specs():
            if name == OVERHEAD[0]:
                out[name] = {"value": overhead_frac, "unit": unit}
                continue
            func, stat = name.rsplit(".", 1)
            out[name] = {"value": agg.get(func, {}).get(stat, 0), "unit": unit}
        return out

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
