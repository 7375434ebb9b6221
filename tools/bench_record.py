"""Record a parent/change benchmark comparison as one JSON file.

    python tools/bench_record.py OUT.json --parent DIR --change DIR [compare.py options]

Runs perfbench/compare.py with the given options and a fresh log, then
`compare.py --judge` on that log, and writes OUT.json holding:

  runs     every (workload, pair, seed, side) result line of the log;
  verdicts the judge's verdict, wins and pair count for every workload and
           end-to-end metric, and each workload's fail_frac on both sides;
  judge    the judge's exit status and its report, line by line;
  env      the environment of the recording process: sepnmf's active
           backend (imported from this checkout's src/), OPENBLAS_NUM_THREADS,
           os.cpu_count() and the numpy and Python versions; and pinned_env,
           the BLAS environment every benchmark run sets for itself
           (PINNED_ENV of perfbench/run.py, read from its source).

The exit status is the judge's: 0 when every verdict is "improved" or
"no change" and no workload's share of failed ops rose.
"""

import ast
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "perfbench", "compare.py")
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import sepnmf  # noqa: E402

# judge lines: "<workload>: N complete pairs", "  <metric> <parent> <change> W/N verdict"
# and "  fail_frac    parent P  change C[  ** FAILED OPS ROSE **]"
_WORKLOAD = re.compile(r"^(\S+): (\d+) complete pairs$")
_METRIC = re.compile(r"^  (\w+) .* (\d+)/(\d+)\s+(\S.*)$")
_FAIL = re.compile(r"^  fail_frac\s+parent (\S+)\s+change (\S+)")


def parse_judge(text):
    """{workload: {metric: {verdict, wins, pairs}, "fail_frac": {parent, change}}}."""
    verdicts, current = {}, None
    for line in text.splitlines():
        if m := _WORKLOAD.match(line):
            current = verdicts.setdefault(m[1], {})
        elif current is not None and (m := _FAIL.match(line)):
            current["fail_frac"] = {"parent": float(m[1]), "change": float(m[2])}
        elif current is not None and (m := _METRIC.match(line)):
            current[m[1]] = {"verdict": m[4].strip(), "wins": int(m[2]), "pairs": int(m[3])}
    return verdicts


def pinned_env():
    """The PINNED_ENV dict of perfbench/run.py, which compare.py runs on both
    sides. Parsed, not imported: importing run.py would pin this process."""
    with open(RUN) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["PINNED_ENV"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{RUN} assigns no PINNED_ENV")


def environment():
    return {
        "backend": sepnmf.active_backend(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pinned_env": pinned_env(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv):
    if len(argv) < 1 or argv[0].startswith("-") or "--log" in argv or "--judge" in argv:
        sys.exit(f"usage: {sys.argv[0]} OUT.json --parent DIR --change DIR [compare.py options]"
                 " (the log is the recorder's own: no --log or --judge)")
    out, compare_args = argv[0], argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "compare.jsonl")
        proc = subprocess.run([sys.executable, COMPARE, *compare_args, "--log", log])
        if not os.path.exists(log):  # compare.py stopped before its first run
            return proc.returncode or 2
        with open(log) as fh:
            runs = [json.loads(line) for line in fh if line.strip()]
        judge = subprocess.run([sys.executable, COMPARE, "--judge", log],
                               capture_output=True, text=True)
    record = {
        "compare_args": compare_args,
        "env": environment(),
        "verdicts": parse_judge(judge.stdout),
        "judge": {"exit_code": judge.returncode, "report": judge.stdout.splitlines()},
        "runs": runs,
    }
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return judge.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
