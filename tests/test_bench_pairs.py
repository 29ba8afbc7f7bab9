import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "items_per_s", "unit": "1/ref_s", "better": "higher",
     "bound": 0.15},
    {"name": "item_p50_ms", "unit": "ref_ms", "better": "lower",
     "bound": 0.25},
]


def _run(workload, seed, side, ips, p50, correct=True, wall=30.0):
    return {"workload": workload, "seed": seed, "side": side,
            "wall_s": wall,
            "result": {"correct": correct, "attempted": 10, "failed": 0,
                       "metrics": {
                           "items_per_s": {"value": ips, "unit": "1/ref_s"},
                           "item_p50_ms": {"value": p50, "unit": "ref_ms"},
                       }}}


def test_summary_of_canned_runs():
    runs = [
        _run("w", 3, "parent", 10.0, 50.0), _run("w", 3, "change", 20.0, 25.0),
        _run("w", 1, "change", 19.0, 26.0), _run("w", 1, "parent", 11.0, 45.0),
        _run("w", 2, "parent", 12.0, 40.0), _run("w", 2, "change", 12.0, 41.0),
        _run("v", 5, "parent", 1.0, 9.0), _run("v", 5, "change", 1.0, 9.0),
        _run("v", 6, "change", 2.0, 8.0, correct=False),
        _run("v", 6, "parent", 2.0, 8.0),
    ]
    out = bench_pairs.summarize(runs, END_TO_END)
    assert list(out) == ["w", "v"]
    w = out["w"]
    assert w["seeds"] == [1, 2, 3] and w["correct"] is True
    ips = w["metrics"]["items_per_s"]
    # values in seed order; a tie counts for neither side
    assert ips["parent"] == {"values": [11.0, 12.0, 10.0], "median": 11.0,
                             "q1": 10.5, "q3": 11.5}
    assert ips["change"]["median"] == 19.0
    assert ips["ratio"] == pytest.approx(19.0 / 11.0)
    assert ips["change_wins"] == 2
    p50 = w["metrics"]["item_p50_ms"]
    # lower is better: seed 2 went from 40 to 41 ms, a loss
    assert p50["change_wins"] == 2 and p50["better"] == "lower"
    assert p50["unit"] == "ref_ms"
    assert out["v"]["correct"] is False
    assert out["v"]["metrics"]["items_per_s"]["change_wins"] == 0


def test_summary_records_wall_time():
    runs = [
        _run("w", 2, "parent", 10.0, 50.0, wall=31.5),
        _run("w", 2, "change", 12.0, 40.0, wall=29.0),
        _run("w", 1, "change", 12.0, 40.0, wall=28.0),
        _run("w", 1, "parent", 10.0, 50.0, wall=30.5),
    ]
    wall = bench_pairs.summarize(runs, END_TO_END)["w"]["wall_s"]
    # values in seed order, summed per side
    assert wall == {"parent": {"values": [30.5, 31.5], "sum": 62.0},
                    "change": {"values": [28.0, 29.0], "sum": 57.0}}


def test_run_once_times_the_run(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, time\n"
        "time.sleep(0.2)\n"
        "print(json.dumps({'correct': True}))\n")
    result, wall = bench_pairs.run_once(tmp_path, "w", 1, 0.1)
    assert result == {"correct": True}
    assert 0.2 <= wall < 30
