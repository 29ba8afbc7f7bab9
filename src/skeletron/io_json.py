"""JSON encoding/decoding for all interchange types.

Rationals travel as "p/q" strings, never JSON numbers; the point at
infinity as the string "inf".
"""

from __future__ import annotations

from .metric_graph import MetricGraph, PLFunction
from .newton import TropicalLaurent
from .points import INFINITY, RationalFunction, Type1, Type2
from .puiseux import element_from_json, element_to_json
from .skeleton import SkeletonTree
from .slopes import SlopeReport
from .stable import StabilizationReport
from .valq import format_rational, parse_rational


def trop_from_json(data) -> TropicalLaurent:
    return TropicalLaurent.from_terms(
        (t["n"], parse_rational(t["v"])) for t in data["terms"]
    )


def point_to_json(x) -> dict:
    if isinstance(x, Type1):
        value = "inf" if x.is_infinity() else element_to_json(x.value)
        return {"type": 1, "value": value}
    return {
        "type": 2,
        "center": element_to_json(x.center),
        "s": format_rational(x.s),
    }


def point_from_json(data):
    if data["type"] == 1:
        if data["value"] == "inf":
            return Type1(INFINITY)
        return Type1(element_from_json(data["value"]))
    if data["type"] == 2:
        return Type2(element_from_json(data["center"]),
                     parse_rational(data["s"]))
    raise ValueError(f"unknown point type {data['type']!r}")


def function_to_json(f: RationalFunction) -> dict:
    factors = [
        {"root": element_to_json(r), "mult": m} for r, m in f.factors
    ]
    return {"lead_val": format_rational(f.lead_val), "factors": factors}


def function_from_json(data) -> RationalFunction:
    factors = []
    for fac in data["factors"]:
        root = (
            INFINITY if fac["root"] == "inf"
            else element_from_json(fac["root"])
        )
        factors.append((root, fac["mult"]))
    return RationalFunction.make(parse_rational(data["lead_val"]), factors)


def graph_to_json(g: MetricGraph) -> dict:
    return {
        "vertices": [{"id": i, "w": w} for i, w in g.vertices],
        "edges": [
            {"u": u, "v": v, "len": format_rational(l)} for u, v, l in g.edges
        ],
        "rays": [{"base": b, "mark": m} for b, m in g.rays],
    }


def graph_from_json(data) -> MetricGraph:
    return MetricGraph.make(
        [(v["id"], v["w"]) for v in data["vertices"]],
        [(e["u"], e["v"], parse_rational(e["len"]))
         for e in data.get("edges", [])],
        [(r["base"], r["mark"]) for r in data.get("rays", [])],
    )


def tree_to_json(t: SkeletonTree) -> dict:
    return {
        "graph": graph_to_json(t.graph),
        "placement": {
            v: point_to_json(p) for v, p in t.placement.items()
        },
        "ray_targets": {
            m: point_to_json(p) for m, p in t.ray_target.items()
        },
    }


def pl_to_json(F: PLFunction) -> dict:
    return {
        "vertex_values": {
            v: format_rational(x) for v, x in F.vertex_values.items()
        },
        "edge_slopes": {str(i): s for i, s in F.edge_slopes.items()},
        "ray_slopes": dict(F.ray_slopes),
    }


def slope_report_to_json(r: SlopeReport) -> dict:
    return {
        "F": pl_to_json(r.F),
        "harmonicity": dict(r.harmonicity),
        "ray_checks": [
            {"mark": m, "slope": s, "expected": e, "match": ok}
            for m, s, e, ok in r.ray_checks
        ],
        "retraction_samples": [
            {
                "point": point_to_json(x),
                "value": format_rational(fx),
                "value_at_retraction": format_rational(ft),
                "match": ok,
            }
            for x, fx, ft, ok in r.retraction_samples
        ],
        "degree_sum": r.degree_sum,
        "verdict": "pass" if r.verdict else "fail",
    }


def stabilization_report_to_json(r: StabilizationReport) -> dict:
    return {
        "input": graph_to_json(r.input),
        "output": graph_to_json(r.output),
        "steps": [{"rule": rule, "vertex": v} for rule, v in r.steps],
        "chi": r.chi,
    }
