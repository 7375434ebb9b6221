"""tools/pick_recovery.py tells moved pick sets from reordered picks."""

import importlib.util
import json
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _pick_recovery():
    spec = importlib.util.spec_from_file_location(
        "pick_recovery", os.path.join(ROOT, "tools", "pick_recovery.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(method, seed, **outcome):
    return {"shape": [10, 80, 3], "seed": seed, "t": 0.5, "method": method, **outcome}


def _corpora():
    base = [_record("pspa", 1, indices=[4, 7, 9]), _record("pspa", 2, indices=[1, 2, 3]),
            _record("pspa", 3, indices=[5, 6, 8]), _record("erspa", 1, error="RankDeficientError"),
            _record("erspa", 2, indices=[1, 2, 3])]
    other = [_record("pspa", 1, indices=[9, 4, 7]), _record("pspa", 2, indices=[1, 2, 3]),
             _record("pspa", 3, indices=[5, 6, 0]), _record("erspa", 1, indices=[1, 2, 3]),
             _record("erspa", 2, error="RankDeficientError")]
    return base, other


def test_pick_changes_counts_moved_and_reordered_records():
    assert _pick_recovery().pick_changes(*_corpora()) == {
        ("10x80x3", "pspa"): [1, 1], ("10x80x3", "erspa"): [2, 0]}


def test_total_row_sums_every_group(tmp_path, capsys):
    paths = []
    for name, records in zip(("base.json", "head.json"), _corpora()):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(records))
    _pick_recovery().main([str(p) for p in paths])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "head.json:moved/reordered"
    assert [line.split()[-1] for line in lines[1:]] == ["2/0", "1/1", "3/1"]
    assert lines[-1].split()[:4] == ["total", "all", "-", "-"]
