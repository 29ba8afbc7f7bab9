"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import py_compile
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def first_round(lib, workload, seed=3):
    gen = workloads.WORKLOADS[workload][0]
    return gen(lib, workloads.round_rng(workload, seed, 0))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(lib, workload):
    a, b = first_round(lib, workload), first_round(lib, workload)
    assert repr(a) == repr(b)
    assert repr(a) != repr(first_round(lib, workload, seed=4))


def test_digests_cover_every_recorded_round(lib):
    table = json.loads((HERE / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        assert sorted(table[workload], key=int) == [
            str(s) for s in range(workloads.RECORDED)]
        size = len(first_round(lib, workload))
        assert all(len(d) == size for d in table[workload].values())


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS)


def run_round(lib, workload, expected=()):
    r = run.Run(lib, workload, 3, list(expected))
    for i, item in enumerate(first_round(lib, workload)):
        r.item(item, r.want(0, i))
    return r


@pytest.mark.parametrize("workload", ["certify-batch", "oracle-crosscheck"])
def test_seed_outputs_pass(lib, workload):
    assert run_round(lib, workload).failed == 0


def test_oracle_disagreement_is_a_failure(lib, monkeypatch):
    real = lib.oracle.eval_val_newton
    monkeypatch.setattr(lib.oracle, "eval_val_newton",
                        lambda f, x: real(f, x) + 1)
    r = run_round(lib, "oracle-crosscheck")
    assert r.failed == len(r.times) > 0


def test_unstable_output_is_a_failure(lib, monkeypatch):
    def no_pruning(g):
        return lib.stable.StabilizationReport(g, g, (), lib.sk.euler_char(g))

    monkeypatch.setattr(lib.sk, "stabilize", no_pruning)
    r = run_round(lib, "stabilize-large")
    assert r.failed == len(r.times) > 0


def test_changed_certificate_json_is_a_failure(lib, monkeypatch):
    items = first_round(lib, "certify-batch")
    recorded = [workloads.digest(workloads.run_certificate(lib, it)[1])
                for it in items]
    assert run_round(lib, "certify-batch", recorded).failed == 0

    real = lib.io_json.slope_report_to_json

    def corrupted(report):
        doc = real(report)
        doc["degree_sum"] += 1
        return doc

    monkeypatch.setattr(lib.io_json, "slope_report_to_json", corrupted)
    r = run_round(lib, "certify-batch", recorded)
    assert r.failed == len(r.times) > 0


def test_failed_verdict_is_a_failure(lib, monkeypatch):
    real = lib.sk.verify_slope_formula

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        return lib.slopes.SlopeReport(**{**report.__dict__, "verdict": False})

    monkeypatch.setattr(lib.sk, "verify_slope_formula", failing)
    r = run_round(lib, "certify-batch")
    assert r.failed == len(r.times) > 0


@pytest.mark.parametrize("workload",
                         ["certify-batch", "oracle-crosscheck",
                          "stabilize-large"])
def test_self_times_add_up_to_at_most_traced_wall(lib, workload):
    join = lib.points.join
    add = lib.sk.PuiseuxElement.__dict__["__add__"]
    merged, metrics = run.traced(lib, workload, 3,
                                 first_round(lib, workload), 0.0, [])
    assert merged.failed == 0
    assert lib.points.join is lib.skeleton.join is join
    assert lib.sk.PuiseuxElement.__dict__["__add__"] is add
    values = {k: v for k, (v, _) in metrics.items()}
    layer_self = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < layer_self + values["bench.self_s"] <= values["trace.wall_s"]


def test_item_times_scale_with_the_speed_around_them(monkeypatch):
    speeds = iter([1000.0, 3000.0, 2000.0])
    monkeypatch.setattr(run, "machine_speed", lambda: next(speeds))
    speed = run.Speedometer()        # 1000 before item 0
    speed.after(1, 0.1)              # too soon to measure again
    speed.after(2, 0.1)              # 3000 after item 1
    scaled = speed.scale([0.1, 0.1, 0.5])  # 2000 after item 2
    assert scaled == pytest.approx([0.1, 0.1, 0.625])


def printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = printed(["--workload", "certify-batch", "--seed", "3",
                      "--seconds", "0.01", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == spec
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_every_seed_checks_its_first_round_against_digests(lib, capsys):
    seed = 10 * workloads.RECORDED + 7
    size = len(first_round(lib, "certify-batch", seed))
    assert repr(first_round(lib, "certify-batch", seed)) == repr(
        first_round(lib, "certify-batch", 7))
    printed(["--workload", "certify-batch", "--seed", str(seed),
             "--seconds", "0.01", "--trace", "0"])
    assert f"{size} of {size} items checked" in capsys.readouterr().err


def test_stale_bytecode_in_the_checkout_is_not_read(tmp_path, monkeypatch):
    """Set-up compiles skeletron from source even where a
    src/skeletron/__pycache__ exists, so its time does not depend on it."""
    pkg = tmp_path / "src" / "skeletron"
    shutil.copytree(HERE.parent / "src" / "skeletron", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = pkg / "__init__.py"
    stale = tmp_path / "stale.py"
    stale.write_text(init.read_text() + "\nSTALE_BYTECODE = True\n")
    monkeypatch.setattr(sys, "pycache_prefix", None)
    py_compile.compile(str(stale),
                       cfile=importlib.util.cache_from_source(str(init)),
                       invalidation_mode=py_compile.PycInvalidationMode
                       .UNCHECKED_HASH)
    monkeypatch.setattr(run, "ROOT", tmp_path.resolve())
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    importlib.invalidate_caches()
    try:
        assert not hasattr(run.load_library().sk, "STALE_BYTECODE")
        for name in [m for m in sys.modules if m.startswith("skeletron")]:
            del sys.modules[name]
        assert importlib.import_module("skeletron").STALE_BYTECODE
    finally:
        for name in [m for m in sys.modules if m.startswith("skeletron")]:
            del sys.modules[name]


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "certify-batch", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
