"""Command-line front end.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success/pass,
1 verification failure, 2 input error.  All randomness sits behind --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io_json
from .acceptance import run_all
from .newton import Interval, breakpoints, unit_decomposition
from .points import eval_val
from .skeleton import build_skeleton_tree
from .slopes import verify_slope_formula
from .stable import stabilize, tate_skeleton
from .valq import format_rational, parse_extended, parse_rational


class InputError(Exception):
    pass


def _load_json(arg: str, option: str):
    """Read JSON from the file an argument names, or parse the argument as
    inline JSON when no such file exists and it starts with { or [.
    ``option`` names the argument in the message of malformed JSON."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")) or os.path.exists(arg):
        try:
            text = Path(arg).read_text()
        except OSError as e:
            raise InputError(f"cannot read {arg}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{option}: malformed JSON at line {e.lineno} "
                         f"col {e.colno}: {e.msg}") from e


def _kind(doc) -> str:
    """The JSON type of a parsed document, for error messages."""
    for types, name in ((dict, "an object"), (list, "a list"),
                        (str, "a string"), (bool, "a boolean"),
                        ((int, float), "a number")):
        if isinstance(doc, types):
            return name
    return "null"


def _check_object(doc, what: str) -> dict:
    """The document, if it is a JSON object; ``what`` names it."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {_kind(doc)}")
    return doc


def _check_objects(doc, what: str) -> list:
    """The document, if it is a JSON list of objects."""
    if not isinstance(doc, list):
        raise InputError(
            f"{what} must be a JSON list of objects, got {_kind(doc)}")
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise InputError(f"{what} must be a JSON list of objects, "
                             f"got {_kind(item)} at index {i}")
    return doc


def _load_object(arg: str, option: str) -> dict:
    """Load the JSON of an option whose document is one object."""
    return _check_object(_load_json(arg, option), option)


def _load_objects(arg: str, option: str) -> list:
    """Load the JSON of an option whose document is a list of objects."""
    return _check_objects(_load_json(arg, option), option)


def nonnegative_int(text: str) -> int:
    """argparse type of a count of zero or more, such as --samples."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a count, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be zero or more, got {n}")
    return n


def _emit(data):
    try:
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # interpreter exit does not fail again (see the SIGPIPE note in
        # the signal module's documentation); the exit code stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_newton(args) -> int:
    f = io_json.trop_from_json(_load_object(args.f, "--f"))
    lo_s, _, hi_s = args.interval.partition(",")
    if not hi_s:
        raise InputError("--interval expects 'lo,hi'")
    interval = Interval(parse_extended(lo_s), parse_extended(hi_s))
    bps = breakpoints(f, interval)
    unit = unit_decomposition(f, interval)
    _emit({
        "breakpoints": [
            {
                "s": format_rational(b.s),
                "slope_left": b.slope_left,
                "slope_right": b.slope_right,
            }
            for b in bps
        ],
        "unit": (
            None if unit is None
            else {"d": unit[0], "val_alpha": format_rational(unit[1])}
        ),
    })
    return 0


def cmd_eval(args) -> int:
    f = io_json.function_from_json(_load_object(args.f, "--f"))
    point = io_json.point_from_json(_load_object(args.point, "--point"))
    _emit({"val": format_rational(eval_val(f, point))})
    return 0


def _punctures(arg):
    return [io_json.point_from_json(p)
            for p in _load_objects(arg, "--punctures")]


def cmd_skeleton(args) -> int:
    extras = (
        [io_json.point_from_json(p)
         for p in _load_objects(args.extra_vertices, "--extra-vertices")]
        if args.extra_vertices else []
    )
    tree = build_skeleton_tree(_punctures(args.punctures), extras)
    _emit(io_json.tree_to_json(tree))
    return 0


def cmd_slope_check(args) -> int:
    f = io_json.function_from_json(_load_object(args.f, "--f"))
    tree = build_skeleton_tree(_punctures(args.punctures))
    report = verify_slope_formula(f, tree, samples=args.samples,
                                  seed=args.seed)
    _emit(io_json.slope_report_to_json(report))
    if args.emit_plot:
        rows = ["edge\tslope\tlength\tdelta_F"]
        for i, (u, v, l) in enumerate(tree.graph.edges):
            slope = report.F.edge_slopes[i]
            rows.append(
                f"{u}-{v}\t{slope}\t{format_rational(l)}\t"
                f"{format_rational(slope * l)}"
            )
        Path(args.emit_plot).write_text("\n".join(rows) + "\n")
    return 0 if report.verdict else 1


def cmd_stabilize(args) -> int:
    g = io_json.graph_from_json(_load_object(args.graph, "--graph"))
    report = stabilize(g)
    _emit(io_json.stabilization_report_to_json(report))
    return 0


def cmd_tate(args) -> int:
    g = tate_skeleton(parse_rational(args.val_j))
    _emit(io_json.graph_to_json(g))
    return 0


def _message(e: Exception) -> str:
    """One line for an input error; a KeyError (whose str is the key's
    repr) is a missing JSON field."""
    return f"missing field {e}" if isinstance(e, KeyError) else str(e)


def _load_fixture(path: Path):
    """The function and skeleton tree of a selftest fixture file.  An
    ``InputError`` (a wrong JSON shape, an unreadable file) names the file
    in its message; any other input error gets ``fixture <name>: ``."""
    name = f"fixture {path.name}"
    try:
        data = _load_object(str(path), name)
        f = io_json.function_from_json(_check_object(data["f"], f"{name} f"))
        punctures = _check_objects(data["punctures"], f"{name} punctures")
        return f, build_skeleton_tree(
            [io_json.point_from_json(p) for p in punctures])
    except (ValueError, TypeError, KeyError) as e:
        raise InputError(f"{name}: {_message(e)}") from e


def cmd_selftest(args) -> int:
    fixture_dir = os.environ.get("SKELETRON_FIXTURES")
    paths = sorted(Path(fixture_dir).glob("*.json")) if fixture_dir else []
    # read every fixture first, so a bad one stops before any criterion runs
    fixtures = [(path.name, *_load_fixture(path)) for path in paths]
    results = run_all(seed=args.seed)
    all_ok = True
    for name, ok, detail, _, _ in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {name}: {detail}", file=sys.stderr)
        all_ok &= ok
    fixture_rows = []
    for name, f, tree in fixtures:
        rep = verify_slope_formula(f, tree, samples=args.samples,
                                   seed=args.seed)
        status = "PASS" if rep.verdict else "FAIL"
        print(f"[{status}] fixture {name}", file=sys.stderr)
        fixture_rows.append({"fixture": name, "pass": rep.verdict})
        all_ok &= rep.verdict
    _emit({
        "criteria": [
            {"name": n, "pass": ok, "detail": d, "seconds": round(dt, 3),
             "budget_s": budget}
            for n, ok, d, dt, budget in results
        ],
        "fixtures": fixture_rows,
        "verdict": "pass" if all_ok else "fail",
    })
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skeletron",
        description="Exact skeleta of nonarchimedean curves",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("newton", help="breakpoints and unit data on an annulus")
    s.add_argument("--f", required=True, help="tropical Laurent JSON")
    s.add_argument("--interval", required=True, help="lo,hi (rationals or +/-inf)")
    s.set_defaults(fn=cmd_newton)

    s = sub.add_parser("eval", help="val f at a type-2 point")
    s.add_argument("--f", required=True, help="rational function JSON")
    s.add_argument("--point", required=True, help="point JSON")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("skeleton", help="skeleton tree spanned by punctures")
    s.add_argument("--punctures", required=True, help="JSON list of points")
    s.add_argument("--extra-vertices", help="JSON list of type-2 points")
    s.set_defaults(fn=cmd_skeleton)

    s = sub.add_parser("slope-check", help="slope-formula certificate")
    s.add_argument("--f", required=True, help="rational function JSON")
    s.add_argument("--punctures", required=True, help="JSON list of points")
    s.add_argument("--samples", type=nonnegative_int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--emit-plot", help="write a plain-text slope table")
    s.set_defaults(fn=cmd_slope_check)

    s = sub.add_parser("stabilize", help="prune to the stable skeleton")
    s.add_argument("--graph", required=True, help="metric graph JSON")
    s.set_defaults(fn=cmd_stabilize)

    s = sub.add_parser("tate", help="elliptic-curve skeleton from val(j)")
    s.add_argument("--val-j", required=True, help="rational p/q")
    s.set_defaults(fn=cmd_tate)

    s = sub.add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=nonnegative_int, default=20)
    s.set_defaults(fn=cmd_selftest)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputError, ValueError, TypeError, KeyError) as e:
        print(f"input error: {_message(e)}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
