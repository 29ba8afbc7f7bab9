import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skeletron
from skeletron import acceptance, cli, io_json
from skeletron.cli import run
from skeletron.metric_graph import MetricGraph

T_FUNC = {"lead_val": "0", "factors": [{"root": [], "mult": 1}]}
WORKED_FUNC = {
    "lead_val": "0",
    "factors": [
        {"root": [], "mult": 1},
        {"root": [{"exp": "1", "coeff": "1"}], "mult": 1},
        {"root": [{"exp": "0", "coeff": "1"}], "mult": -2},
    ],
}
WORKED_PUNCTURES = [
    {"type": 1, "value": []},
    {"type": 1, "value": [{"exp": "1", "coeff": "1"}]},
    {"type": 1, "value": [{"exp": "0", "coeff": "1"}]},
    {"type": 1, "value": "inf"},
]


def test_tate(capsys):
    assert run(["tate", "--val-j=-5/1"]) == 0
    data = json.loads(capsys.readouterr().out)
    g = io_json.graph_from_json(data)
    assert g.edges == (("v0", "v0", 5),)
    assert g.vertices == (("v0", 0),)


def test_newton(capsys):
    f = {"terms": [{"n": 0, "v": "1"}, {"n": 1, "v": "0"}]}
    assert run(["newton", "--f", json.dumps(f), "--interval", "0,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["breakpoints"] == [
        {"s": "1", "slope_left": 1, "slope_right": 0}
    ]
    assert data["unit"] is None

    assert run(["newton", "--f", json.dumps(f), "--interval", "2,+inf"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["breakpoints"] == []
    assert data["unit"] == {"d": 0, "val_alpha": "1"}


def test_eval(capsys):
    point = {"type": 2, "center": [], "s": "0"}
    assert run(["eval", "--f", json.dumps(T_FUNC), "--point",
                json.dumps(point)]) == 0
    assert json.loads(capsys.readouterr().out) == {"val": "0"}


def test_skeleton_roundtrip(capsys):
    assert run(["skeleton", "--punctures", json.dumps(WORKED_PUNCTURES)]) == 0
    data = json.loads(capsys.readouterr().out)
    g = io_json.graph_from_json(data["graph"])
    assert len(g.vertices) == 2 and len(g.edges) == 1 and len(g.rays) == 4
    for p in data["placement"].values():
        io_json.point_from_json(p)  # re-parses cleanly


def test_slope_check_pass_and_plot(tmp_path, capsys):
    plot = tmp_path / "slopes.tsv"
    code = run([
        "slope-check",
        "--f", json.dumps(WORKED_FUNC),
        "--punctures", json.dumps(WORKED_PUNCTURES),
        "--samples", "10",
        "--seed", "4",
        "--emit-plot", str(plot),
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass"
    assert data["degree_sum"] == 0
    lines = plot.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["edge", "slope", "length", "delta_F"]
    assert len(lines) == 2  # one edge


def test_stabilize_chi_zero_exit_2(capsys):
    circle = io_json.graph_to_json(
        MetricGraph.make([("v", 0)], [("v", "v", 5)])
    )
    assert run(["stabilize", "--graph", json.dumps(circle)]) == 2
    err = capsys.readouterr().err
    assert "non-unique" in err


def test_stabilize_success(capsys):
    g = io_json.graph_to_json(
        MetricGraph.make(
            [("v1", 0), ("v2", 2)], [("v1", "v2", 3)], [("v1", "p")]
        )
    )
    assert run(["stabilize", "--graph", json.dumps(g)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == [{"rule": "valence2", "vertex": "v1"}]
    out = io_json.graph_from_json(data["output"])
    assert out.vertices == (("v2", 2),)


def test_malformed_json_exit_2(capsys):
    assert run(["tate", "--val-j", "abc"]) == 2
    capsys.readouterr()
    assert run(["newton", "--f", "{not json", "--interval", "0,1"]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert run(["newton", "--f", "/no/such/file.json",
                "--interval", "0,1"]) == 2


def test_file_input(tmp_path, capsys):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(T_FUNC))
    point = {"type": 2, "center": [], "s": "3"}
    assert run(["eval", "--f", str(p), "--point", json.dumps(point)]) == 0
    assert json.loads(capsys.readouterr().out) == {"val": "3"}


def test_unknown_subcommand_exit_2():
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("graph_kind", ["circle", "good"])
def test_tate_roundtrip(graph_kind, capsys):
    arg = "-1/2" if graph_kind == "circle" else "3"
    assert run(["tate", f"--val-j={arg}"]) == 0
    g = io_json.graph_from_json(json.loads(capsys.readouterr().out))
    assert io_json.graph_from_json(io_json.graph_to_json(g)) == g


def test_zero_denominator_exit_2(capsys):
    assert run(["tate", "--val-j=1/0"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: zero denominator")
    bad_s = {"type": 2, "center": [], "s": "1/0"}
    assert run(["eval", "--f", json.dumps(T_FUNC), "--point",
                json.dumps(bad_s)]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: zero denominator")
    bad_coeff = {"lead_val": "0",
                 "factors": [{"root": [{"exp": "1", "coeff": "1/0"}],
                              "mult": 1}]}
    point = {"type": 2, "center": [], "s": "1"}
    assert run(["eval", "--f", json.dumps(bad_coeff), "--point",
                json.dumps(point)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: zero denominator")
    assert err.count("\n") == 1


def test_closed_pipe_no_traceback():
    # about 100 kB of output: more than a pipe holds, so the command is
    # still writing when the reader closes its end
    punctures = [
        {"type": 1, "value": [{"exp": str(k), "coeff": "1"},
                              {"exp": str(k + 1 + j), "coeff": "1"}]}
        for k in range(8) for j in range(25)
    ]
    env = dict(os.environ,
               PYTHONPATH=str(Path(skeletron.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "skeletron.cli", "skeleton",
         "--punctures", json.dumps(punctures)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


# Valid inputs whose every rational travels as a "p/q" string and every
# weight and multiplicity as a JSON integer.
VALID_INPUTS = {
    "stabilize": {"--graph": {
        "vertices": [{"id": "a", "w": 0}],
        "edges": [{"u": "a", "v": "a", "len": "1/10"}],
        "rays": [{"base": "a", "mark": "m"}],
    }},
    "eval": {
        "--f": {"lead_val": "0", "factors": [
            {"root": [{"exp": "1", "coeff": "1"}], "mult": 1},
            {"root": "inf", "mult": -1},
        ]},
        "--point": {"type": 2, "center": [{"exp": "1", "coeff": "2"}],
                    "s": "1"},
    },
    "newton": {"--f": {"terms": [{"n": 0, "v": "1"}, {"n": 1, "v": "0"}]},
               "--interval": "0,3"},
}


def _cli_args(command, option=None, doc=None):
    args = [command]
    for opt, val in VALID_INPUTS[command].items():
        val = doc if opt == option else val
        args += [opt, val if isinstance(val, str) else json.dumps(val)]
    return args


MISTYPED_CASES = [
    ("stabilize", "--graph", ("edges", 0, "len"), 0.1),
    ("stabilize", "--graph", ("vertices", 0, "w"), 1.5),
    ("stabilize", "--graph", ("vertices", 0, "w"), True),
    ("eval", "--point", ("s",), 1),
    ("eval", "--point", ("center", 0, "exp"), 1),
    ("eval", "--point", ("center", 0, "coeff"), 0.5),
    ("eval", "--f", ("lead_val",), 0),
    ("eval", "--f", ("factors", 0, "root", 0, "exp"), 1.5),
    ("eval", "--f", ("factors", 0, "root", 0, "coeff"), 2),
    ("eval", "--f", ("factors", 0, "mult"), 1.5),
    ("eval", "--f", ("factors", 0, "mult"), True),
    ("newton", "--f", ("terms", 0, "v"), 1),
    ("newton", "--f", ("terms", 1, "n"), 1.5),
    ("newton", "--f", ("terms", 1, "n"), True),
]


@pytest.mark.parametrize("command, option, path, bad", MISTYPED_CASES, ids=[
    f"{c}-{'.'.join(map(str, p))}={b!r}" for c, _, p, b in MISTYPED_CASES
])
def test_mistyped_field_exit_2(command, option, path, bad, capsys):
    assert run(_cli_args(command)) == 0
    capsys.readouterr()
    doc = copy.deepcopy(VALID_INPUTS[command][option])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    assert run(_cli_args(command, option, doc)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert repr(bad) in err


MISSING_CASES = [
    ("eval", "--point", ("center", 0), "exp"),
    ("eval", "--point", (), "s"),
    ("eval", "--f", ("factors", 0), "mult"),
    ("stabilize", "--graph", ("edges", 0), "len"),
    ("newton", "--f", ("terms", 1), "n"),
]


@pytest.mark.parametrize("command, option, path, key", MISSING_CASES, ids=[
    f"{c}-{'.'.join(map(str, p + (k,)))}" for c, _, p, k in MISSING_CASES
])
def test_missing_field_exit_2(command, option, path, key, capsys):
    doc = copy.deepcopy(VALID_INPUTS[command][option])
    target = doc
    for step in path:
        target = target[step]
    del target[key]
    assert run(_cli_args(command, option, doc)) == 2
    assert capsys.readouterr().err == f"input error: missing field '{key}'\n"


@pytest.mark.parametrize("command", ["slope-check", "selftest"])
def test_negative_samples_exit_2(command, capsys):
    args = [command, "--samples", "-1"]
    if command == "slope-check":
        args += ["--f", json.dumps(WORKED_FUNC),
                 "--punctures", json.dumps(WORKED_PUNCTURES)]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --samples: must be zero or more, got -1")


@pytest.mark.parametrize("option", ["--samples", "--count"])
def test_random_certificates_negative_count_exit_2(option):
    script = Path(__file__).parents[1] / "scripts" / "random_certificates.py"
    env = dict(os.environ,
               PYTHONPATH=str(Path(skeletron.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script), option, "-1"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {option}: must be zero or more, got -1")


TYPE2_POINT = {"type": 2, "center": [], "s": "1"}
WRONG_POINT_TYPE_CASES = [
    (["skeleton", "--punctures",
      json.dumps(WORKED_PUNCTURES[:1] + [TYPE2_POINT])],
     "punctures[1] must be a type-1 point"),
    (["slope-check", "--f", json.dumps(WORKED_FUNC), "--punctures",
      json.dumps([TYPE2_POINT] + WORKED_PUNCTURES)],
     "punctures[0] must be a type-1 point"),
    (["skeleton", "--punctures", json.dumps(WORKED_PUNCTURES),
      "--extra-vertices", json.dumps([TYPE2_POINT, WORKED_PUNCTURES[1]])],
     "extra_vertices[1] must be a type-2 point"),
]


@pytest.mark.parametrize("args, expected", WRONG_POINT_TYPE_CASES,
                         ids=["skeleton", "slope-check", "extra-vertices"])
def test_wrong_point_type_exit_2(args, expected, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {expected}\n"


def test_selftest_fixture_with_type2_puncture_exit_2(tmp_path, monkeypatch,
                                                     capsys):
    (tmp_path / "a.json").write_text(json.dumps(
        {"f": WORKED_FUNC, "punctures": WORKED_PUNCTURES + [TYPE2_POINT]}))
    monkeypatch.setenv("SKELETRON_FIXTURES", str(tmp_path))
    assert run(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: fixture a.json: punctures[4] must be a type-1 point\n")


def test_selftest_fixture_malformed_json_names_the_file(tmp_path,
                                                        monkeypatch, capsys):
    (tmp_path / "a.json").write_text("{not json")
    monkeypatch.setenv("SKELETRON_FIXTURES", str(tmp_path))
    assert run(["selftest"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: fixture a.json: malformed JSON at line 1 col 2")


@pytest.mark.parametrize("literal", ["1e3", "1.5", "1_0", "0x10"])
def test_non_p_q_rational_exit_2(literal, capsys):
    assert run(["tate", f"--val-j={literal}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: rational {literal!r} must be 'p/q' or 'p' in "
        "digits\n")


@pytest.mark.parametrize("interval", ["inf,inf", "-inf,-inf"])
def test_newton_interval_at_infinity_exit_2(interval, capsys):
    f = VALID_INPUTS["newton"]["--f"]
    assert run(["newton", "--f", json.dumps(f),
                f"--interval={interval}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: interval [")
    assert captured.err.endswith("] has no finite point\n")


SHAPE_CASES = [
    (["stabilize"], "--graph", [], "a JSON object, got a list"),
    (["eval", "--point", json.dumps(VALID_INPUTS["eval"]["--point"])],
     "--f", [], "a JSON object, got a list"),
    (["eval", "--f", json.dumps(T_FUNC)],
     "--point", "x", "a JSON object, got a string"),
    (["skeleton"], "--punctures", {"a": 1},
     "a JSON list of objects, got an object"),
    (["skeleton", "--punctures", json.dumps(WORKED_PUNCTURES)],
     "--extra-vertices", [None], "a JSON list of objects, got null at index 0"),
]


@pytest.mark.parametrize("args, option, doc, expected", SHAPE_CASES,
                         ids=[o for _, o, _, _ in SHAPE_CASES])
def test_wrong_json_shape_names_the_option(args, option, doc, expected,
                                           tmp_path, capsys):
    # read from a file, so that a top-level string arrives as one
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(args + [option, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {option} must be {expected}\n")


# every option that takes JSON, with valid values for the others
MALFORMED_CASES = [
    (["newton", "--interval", "0,3"], "--f"),
    (["eval", "--point", json.dumps(VALID_INPUTS["eval"]["--point"])], "--f"),
    (["eval", "--f", json.dumps(T_FUNC)], "--point"),
    (["skeleton"], "--punctures"),
    (["skeleton", "--punctures", json.dumps(WORKED_PUNCTURES)],
     "--extra-vertices"),
    (["slope-check", "--punctures", json.dumps(WORKED_PUNCTURES)], "--f"),
    (["slope-check", "--f", json.dumps(WORKED_FUNC)], "--punctures"),
    (["stabilize"], "--graph"),
]


@pytest.mark.parametrize("args, option", MALFORMED_CASES,
                         ids=[f"{a[0]}{o}" for a, o in MALFORMED_CASES])
def test_malformed_json_names_the_option(args, option, capsys):
    assert run(args + [option, "{bad"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"input error: {option}: malformed JSON at line 1 col 2: ")
    assert captured.err.count("\n") == 1


BAD_RATIONAL_PUNCTURE = {"type": 1,
                         "value": [{"exp": "1e3", "coeff": "1"}]}
FIXTURE_CASES = [
    ([], "fixture a.json must be a JSON object, got a list"),
    ({"f": [], "punctures": WORKED_PUNCTURES},
     "fixture a.json f must be a JSON object, got a list"),
    ({"f": WORKED_FUNC, "punctures": {"a": 1}},
     "fixture a.json punctures must be a JSON list of objects, got an object"),
    ({"f": WORKED_FUNC, "punctures": WORKED_PUNCTURES[:1] * 2},
     "fixture a.json: punctures must be pairwise distinct"),
    ({"f": WORKED_FUNC, "punctures": [BAD_RATIONAL_PUNCTURE]},
     "fixture a.json: rational '1e3' must be 'p/q' or 'p' in digits"),
    ({"f": WORKED_FUNC}, "fixture a.json: missing field 'punctures'"),
]


@pytest.mark.parametrize("doc, expected", FIXTURE_CASES,
                         ids=["list", "f-list", "punctures-object",
                              "duplicate", "bad-rational", "missing-key"])
def test_bad_selftest_fixture_names_the_file(doc, expected, tmp_path,
                                             monkeypatch, capsys):
    (tmp_path / "a.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SKELETRON_FIXTURES", str(tmp_path))
    assert run(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {expected}\n"


def test_selftest_certifies_fixture_files(tmp_path, monkeypatch, capsys):
    # the acceptance criteria are stubbed out; only the fixtures run
    monkeypatch.setattr(cli, "run_all", lambda seed: [])
    (tmp_path / "a.json").write_text(json.dumps(
        {"f": WORKED_FUNC, "punctures": WORKED_PUNCTURES}))
    (tmp_path / "b.json").write_text(json.dumps(
        {"f": T_FUNC, "punctures": [WORKED_PUNCTURES[i] for i in (0, 3)]}))
    monkeypatch.setenv("SKELETRON_FIXTURES", str(tmp_path))
    assert run(["selftest", "--samples", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "criteria": [],
        "fixtures": [{"fixture": "a.json", "pass": True},
                     {"fixture": "b.json", "pass": True}],
        "verdict": "pass",
    }


def test_relative_file_path_starting_with_bracket(tmp_path, monkeypatch,
                                                  capsys):
    # a file of that name exists, so the argument is read as a path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "[p].json").write_text(json.dumps(WORKED_PUNCTURES))
    assert run(["skeleton", "--punctures", "[p].json"]) == 0
    from_file = capsys.readouterr().out
    assert run(["skeleton", "--punctures", json.dumps(WORKED_PUNCTURES)]) == 0
    assert from_file == capsys.readouterr().out


def test_selftest_fixture_dir_starting_with_bracket(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(cli, "run_all", lambda seed: [])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "[fx]").mkdir()
    (tmp_path / "[fx]" / "a.json").write_text(json.dumps(
        {"f": WORKED_FUNC, "punctures": WORKED_PUNCTURES}))
    monkeypatch.setenv("SKELETRON_FIXTURES", "[fx]")
    assert run(["selftest", "--samples", "5"]) == 0
    relative = capsys.readouterr().out
    monkeypatch.setenv("SKELETRON_FIXTURES", str(tmp_path / "[fx]"))
    assert run(["selftest", "--samples", "5"]) == 0
    assert relative == capsys.readouterr().out
    assert json.loads(relative)["fixtures"] == [
        {"fixture": "a.json", "pass": True}]


def test_selftest_reports_seconds_and_budget(monkeypatch, capsys):
    # two fast criteria, run for real
    monkeypatch.setattr(acceptance, "CRITERIA", [
        ("8 Tate relation", acceptance.criterion_8_tate),
        ("9 worked fixture", acceptance.criterion_9_worked_fixture)])
    assert run(["selftest"]) == 0
    rows = json.loads(capsys.readouterr().out)["criteria"]
    assert [row["name"] for row in rows] == ["8 Tate relation",
                                             "9 worked fixture"]
    for row in rows:
        assert row["pass"] is True
        assert isinstance(row["seconds"], float)
        assert 0 <= row["seconds"] <= row["budget_s"]
        assert row["budget_s"] == 5
        assert row["detail"].endswith("s)")  # the wall time, as before


def _spoil(**fields):
    """verify_slope_formula, with the named report fields replaced."""
    real = acceptance.verify_slope_formula

    def spoiled(*args, **kwargs):
        report = real(*args, **kwargs)
        changed = {k: make(report) for k, make in fields.items()}
        return dataclasses.replace(report, verdict=False, **changed)

    return spoiled


def _bad_vertex(report):
    first = next(iter(report.harmonicity))
    return {**report.harmonicity, first: 3}


def _bad_ray(report):
    mark, slope, expected, _ = report.ray_checks[-1]
    return report.ray_checks[:-1] + ((mark, slope + 1, expected, False),)


def _bad_sample(report):
    x, fx, _, _ = report.retraction_samples[4]
    rows = list(report.retraction_samples)
    rows[4] = (x, fx, fx + 1, False)
    return tuple(rows)


FAILURES = [
    ({"harmonicity": _bad_vertex}, r"fixture 0 failed at vertex v0: "
                                   r"outgoing slopes sum to 3"),
    ({"ray_checks": _bad_ray}, r"fixture 0 failed at ray \S+: slope -?\d+, "
                               r"order -?\d+"),
    ({"retraction_samples": _bad_sample},
     r"fixture 0 failed at sample 4 at zeta\(.*\): F = \S+, "
     r"F at its retraction \S+"),
    ({}, r"fixture 0 failed at degree sum 0"),
]


@pytest.mark.parametrize("fields, detail", FAILURES,
                         ids=["vertex", "ray", "sample", "degree"])
def test_selftest_names_the_first_failure(fields, detail, monkeypatch,
                                          capsys):
    monkeypatch.setattr(acceptance, "verify_slope_formula", _spoil(**fields))
    monkeypatch.setattr(acceptance, "CRITERIA", [
        ("1 slope-formula suite", acceptance.criterion_1_slope_formula)])
    assert run(["selftest"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["criteria"]
    assert row["pass"] is False
    assert re.fullmatch(detail + r" \(\d+\.\ds\)", row["detail"])
    assert row["budget_s"] == 30
