"""Result serialization: CSV tables, lossless JSON records, traffic exports."""
from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import fields
from functools import cache
from types import UnionType
from typing import Sequence, get_type_hints

from .harness import AlgorithmResult, TrialRecord, report_values
from .metrics import MetricsReport
from .netmodel import Network, node_label, node_xy
from .pathfinder import PathSet
from .scheduler import ALGORITHMS, RoutingOutcome

TRIAL_COLUMNS = ("seed", "algorithm", "k", "l_max", "alpha", "beta",
                 "F", "F_min", "U_ave", "U_var", "gamma", "J_req", "J_path",
                 "flags")

#: utilization classes per threshold: u < 0.3 low, 0.3 <= u <= 0.7 mid, u > 0.7 high
CLASS_LOW, CLASS_MID, CLASS_HIGH = "low", "mid", "high"

#: drawn edge width is proportional to utilization
WIDTH_SCALE = 5.0


def utilization_class(u: float) -> str:
    if u < 0.3:
        return CLASS_LOW
    if u <= 0.7:
        return CLASS_MID
    return CLASS_HIGH


# ---------------------------------------------------------------- CSV tables

def trial_rows(records: Sequence[TrialRecord]) -> list[dict]:
    rows = []
    for rec in records:
        for name in rec.results:
            metrics = report_values(rec.results[name].report)
            row = {"seed": rec.seed, "algorithm": name, "k": rec.params.k,
                   "l_max": rec.params.l_max, "alpha": rec.params.alpha,
                   "beta": rec.params.beta}
            row.update(metrics)
            row["flags"] = "|".join(rec.results[name].report.flags)
            rows.append(row)
    return rows


def write_csv(rows: Sequence[dict], columns: Sequence[str], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_trial_csv(records: Sequence[TrialRecord], path: str) -> None:
    write_csv(trial_rows(records), TRIAL_COLUMNS, path)


def aggregate_rows(agg: dict[str, dict[str, tuple[float, float]]],
                   n: int, extra: dict | None = None) -> list[dict]:
    rows = []
    for name, stats in agg.items():
        row = dict(extra or {})
        row.update({"algorithm": name, "n": n})
        for metric, (mean, stderr) in stats.items():
            row[f"{metric}_mean"] = mean
            row[f"{metric}_stderr"] = stderr
        rows.append(row)
    return rows


def write_table_csv(rows: Sequence[dict], path: str) -> None:
    """CSV for heterogeneous experiment tables; columns from the first row."""
    if not rows:
        raise ValueError("refusing to write an empty results table")
    write_csv(rows, list(rows[0].keys()), path)


# ------------------------------------------------------- lossless JSON records

def outcome_to_dict(outcome: RoutingOutcome) -> dict:
    """Flows as one list by path id, and PS's allocation rows, one list per
    edge id; the paths are written once per record."""
    data = {"algorithm": outcome.algorithm, "flows": list(outcome.flows.values())}
    if outcome.allocations is not None:
        data["allocations"] = [list(row) for row in outcome.allocations]
    return data


def _check_length(items: Sequence, expected: int, where: str, what: str) -> None:
    if len(items) != expected:
        raise ValueError(f"{where}: {len(items)} entries, expected {expected} ({what})")


#: the JSON types of a scalar annotation's values, and its name in errors
_SCALARS = {int: ({int}, "a non-negative int"), float: ({int, float}, "a number"),
            bool: ({bool}, "a bool"), str: ({str}, "a string")}


@cache
def _hints(cls: type) -> dict:
    return {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}


def _each(tp, values: list, where: str, suffixes: Sequence[str] | None = None) -> list:
    """``values`` read by ``tp``, value i at key path ``where`` + ``suffixes[i]``,
    or ``where[i]`` without them; scalars (ints are >= 0, floats finite) in one pass."""
    def at(i: int) -> str:
        return f"{where}[{i}]" if suffixes is None else where + suffixes[i]
    if tp not in _SCALARS:
        return [_decode(tp, v, at(i)) for i, v in enumerate(values)]
    allowed, name = _SCALARS[tp]
    for i, v in enumerate(values):
        if type(v) not in allowed or tp is int and v < 0 or tp is float and not math.isfinite(v):
            raise ValueError(f"{at(i)}: {v!r} is not {name}")
    return values


def _decode(tp, value, where: str):
    """``value`` read from JSON by the annotation ``tp``: a scalar, ``X | None``,
    ``tuple[X, ...]``, ``dict[int, X]``, ``dict[str, X]`` or a dataclass, at key
    path ``where``."""
    if tp in _SCALARS:
        return _each(tp, [value], where, ("",))[0]
    if type(tp) is UnionType:  # X | None
        return None if value is None else _decode(tp.__args__[0], value, where)
    origin = getattr(tp, "__origin__", None)
    if origin is tuple and type(value) is list:
        return tuple(_each(tp.__args__[0], value, where))
    if origin is dict and type(value) is dict:
        key_type, value_type = tp.__args__
        if key_type is str or all(map(str.isdecimal, value)):
            return dict(zip(map(key_type, value), _each(value_type, list(value.values()), where,
                                                        [f".{key}" for key in value])))
    if origin is None and type(value) is dict:
        return _load(tp, value, where)
    raise ValueError(f"{where}: {value!r} is not a {tp if origin else tp.__name__}")


def _check_keys(data, names: Sequence[str], where: str) -> None:
    """``data`` must be an object of exactly the keys ``names``."""
    if type(data) is not dict:
        raise ValueError(f"{where}: {data!r} is not an object")
    if data.keys() != set(names):
        raise ValueError(f"{where}: missing keys {[n for n in names if n not in data]}, "
                         f"extra keys {[k for k in data if k not in names]}")


def _load(cls: type, data: dict, where: str):
    """``cls`` from an object of exactly its fields, each read by its annotation."""
    hints = _hints(cls)
    _check_keys(data, list(hints), where)
    values = {name: _decode(tp, data[name], f"{where}.{name}") for name, tp in hints.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def outcome_from_dict(name: str, data: dict, paths: PathSet, l_max: int) -> RoutingOutcome:
    """Result ``name``'s outcome over ``paths``. Only PS, in a window with
    paths, has allocation rows; they are checked against ``paths.kept(l_max)``."""
    where, hints = f"results.{name}.outcome", _hints(RoutingOutcome)
    has_rows = name == "PS" and bool(paths.keys)
    _check_keys(data, ("algorithm", "flows", "allocations") if has_rows
                else ("algorithm", "flows"), where)
    if data["algorithm"] != name:
        raise ValueError(f"{where}.algorithm: {data['algorithm']!r} is not its result's "
                         f"name {name!r}")
    flows = _decode(tuple[int, ...], data["flows"], f"{where}.flows")
    _check_length(flows, len(paths.keys), f"{where}.flows", "one flow per path key")
    allocations = None
    if has_rows:  # read by the annotation without its None
        allocations = _decode(hints["allocations"].__args__[0], data["allocations"],
                              f"{where}.allocations")
        kept = paths.kept(l_max).keys
        _check_length(allocations, len(kept), f"{where}.allocations", "one list per path edge")
        for e, (ids, row) in enumerate(zip(kept, allocations)):
            _check_length(row, len(ids), f"{where}.allocations[{e}]",
                          f"the paths kept on edge {paths.edges[e]} at l_max = {l_max}")
    return RoutingOutcome(name, dict(zip(paths.keys, flows)), paths, allocations)


def report_to_dict(report: MetricsReport) -> dict:
    """The report's fields, in field order; stretch is in request order already."""
    return {**vars(report),
            "stretch_per_request": {str(r): g for r, g in report.stretch_per_request.items()},
            "demand_satisfied": {str(r): ok for r, ok
                                 in sorted(report.demand_satisfied.items())},
            "flags": list(report.flags)}


def record_to_dict(record: TrialRecord) -> dict:
    """The record as JSON-ready data. Its outcomes share one PathSet, so its
    arrays and its edges' capacities are written once."""
    paths = next(iter(record.results.values())).outcome.paths
    return {
        "seed": record.seed,
        "params": vars(record.params).copy(),
        "requests": [vars(r).copy() for r in record.requests],
        "network": vars(record.network).copy(),
        "paths": {
            "keys": list(map(list, paths.keys)),
            "edges": list(map(list, paths.edges)),
            "edge_ids": list(map(list, paths.edge_ids)),
            "capacities": list(record.capacities),
        },
        # the two timing keys are constants, kept because winbench's record_bytes reads them
        "results": {name: {"outcome": outcome_to_dict(res.outcome),
                           "report": report_to_dict(res.report),
                           "schedule_seconds": 0.0}
                    for name, res in record.results.items()},
        "stage_seconds": {},
        "reason": record.reason,
    }


def _ascending_pairs(value, where: str) -> tuple[tuple[int, int], ...]:
    """``value`` read as strictly ascending pairs of non-negative ints."""
    pairs = _decode(tuple[tuple[int, ...], ...], value, where)
    for i, pair in enumerate(pairs):
        _check_length(pair, 2, f"{where}[{i}]", "a pair")
        if i and pair <= pairs[i - 1]:
            raise ValueError(f"{where}[{i}]: {list(pair)} does not follow "
                             f"{list(pairs[i - 1])} in ascending order")
    return pairs


def _paths_from_dict(data: dict) -> PathSet:
    """The PathSet of a record's ``paths``: its keys, its sorted edges
    ``[u, v]`` with u < v, and each path's edge ids, every edge crossed by
    some path. A path's length is its number of edges."""
    _check_keys(data, ("keys", "edges", "edge_ids", "capacities"), "paths")
    keys = _ascending_pairs(data["keys"], "paths.keys")
    edges = _ascending_pairs(data["edges"], "paths.edges")
    for j, (u, v) in enumerate(edges):
        if u >= v:
            raise ValueError(f"paths.edges[{j}]: {[u, v]} is not an edge [u, v] with u < v")
    edge_ids = _decode(tuple[tuple[int, ...], ...], data["edge_ids"], "paths.edge_ids")
    _check_length(edge_ids, len(keys), "paths.edge_ids", "one list per path key")
    for p, ids in enumerate(edge_ids):
        if not ids or max(ids) >= len(edges):
            raise ValueError(f"paths.edge_ids[{p}]: {list(ids)} is not a non-empty list "
                             f"of ids below {len(edges)}")
    uncrossed = set(range(len(edges))).difference(*edge_ids)
    if uncrossed:
        j = min(uncrossed)
        raise ValueError(f"paths.edges[{j}]: {list(edges[j])} is crossed by no path")
    return PathSet(keys, [len(ids) for ids in edge_ids], edges, edge_ids)


def record_from_dict(data: dict) -> TrialRecord:
    """The record ``record_to_dict`` wrote; keys, paths, capacities, results
    or sections that do not fit raise ValueError with their key path."""
    _check_keys(data, ("seed", "params", "requests", "network", "paths", "results",
                       "stage_seconds", "reason"), "record")
    hints = _hints(TrialRecord)
    sections = {name: _decode(hints[name], data[name], name)
                for name in ("seed", "params", "requests", "network", "reason")}
    paths = _paths_from_dict(data["paths"])
    capacities = _decode(hints["capacities"], data["paths"]["capacities"], "paths.capacities")
    _check_length(capacities, len(paths.edges), "paths.capacities", "one per path edge")
    if type(data["results"]) is not dict or not data["results"]:
        raise ValueError(f"results: {data['results']!r} is not an object of one result "
                         "or more")
    results = {}
    for name, res in data["results"].items():
        if name not in ALGORITHMS:
            raise ValueError(f"results.{name}: not one of {ALGORITHMS}")
        _check_keys(res, ("outcome", "report", "schedule_seconds"), f"results.{name}")
        outcome = outcome_from_dict(name, res["outcome"], paths, sections["params"].l_max)
        report = _decode(MetricsReport, res["report"], f"results.{name}.report")
        results[name] = AlgorithmResult(outcome, report)
    # the allocations were checked against the kept views; the record needs none
    paths.release_views()
    return TrialRecord(**sections, results=results, capacities=capacities)


def write_records_json(records: Sequence[TrialRecord], path: str,
                       provenance: dict[str, str] | None = None) -> None:
    payload = {"records": [record_to_dict(r) for r in records]}
    if provenance is not None:
        payload["config_provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_records_json(path: str) -> list[TrialRecord]:
    """The records of a ``write_records_json`` file, an object of a ``records`` list
    and maybe ``config_provenance``; what does not fit raises ValueError with its key path."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    names = ("records", "config_provenance") if type(payload) is dict \
        and "config_provenance" in payload else ("records",)
    _check_keys(payload, names, path)
    if type(payload["records"]) is not list:
        raise ValueError(f"records: {payload['records']!r} is not a list")
    if "config_provenance" in payload:
        _decode(dict[str, str], payload["config_provenance"], "config_provenance")
    records = []
    for i, data in enumerate(payload["records"]):
        try:
            records.append(record_from_dict(data))
        except ValueError as exc:
            raise ValueError(f"records[{i}]: {exc}") from None
    return records


# ------------------------------------------------------------- traffic export

def _edge_traffic(outcome: RoutingOutcome, net: Network) -> list[dict]:
    usage = outcome.edge_usage()
    breakdown: dict[tuple[int, int], dict[str, int]] = {}
    for (key, flow), ids in zip(outcome.flows.items(), outcome.paths.edge_ids):
        if flow <= 0:
            continue
        for e in ids:
            breakdown.setdefault(outcome.paths.edges[e], {})[f"{key[0]}:{key[1]}"] = flow
    rows = []
    for e, capacity, active in zip(net.edges, net.capacity, net.active):
        used = usage.get(e, 0)
        row = {"u": e[0], "v": e[1], "capacity": capacity, "active": active,
               "flow": used}
        if used > 0:
            u_val = used / capacity
            row["utilization"] = u_val
            row["class"] = utilization_class(u_val)
            row["width"] = WIDTH_SCALE * u_val
            row["flows"] = breakdown.get(e, {})
        rows.append(row)
    return rows


def export_traffic_json(outcome: RoutingOutcome, net: Network, path: str) -> None:
    nodes = []
    for n in range(net.node_count):
        x, y = node_xy(n, net.cols)
        nodes.append({"id": n, "x": x, "y": y, "label": node_label(n, net.cols)})
    payload = {"algorithm": outcome.algorithm, "rows": net.rows, "cols": net.cols,
               "nodes": nodes, "edges": _edge_traffic(outcome, net)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

_GRAPHML_KEYS = (
    ("node", "x", "double"), ("node", "y", "double"), ("node", "label", "string"),
    ("edge", "capacity", "int"), ("edge", "active", "boolean"),
    ("edge", "flow", "int"), ("edge", "utilization", "double"),
    ("edge", "class", "string"), ("edge", "width", "double"),
)


def export_traffic_graphml(outcome: RoutingOutcome, net: Network, path: str) -> None:
    """Graph-description export loadable by standard GraphML viewers.

    Utilized edges carry a utilization value, a low/mid/high class, and a
    width proportional to u; unused and inactive edges carry no class and are
    drawn with zero width.
    """
    ET.register_namespace("", _GRAPHML_NS)
    root = ET.Element(f"{{{_GRAPHML_NS}}}graphml")
    for domain, name, kind in _GRAPHML_KEYS:
        ET.SubElement(root, f"{{{_GRAPHML_NS}}}key",
                      {"id": f"{domain[0]}_{name}", "for": domain,
                       "attr.name": name, "attr.type": kind})
    graph = ET.SubElement(root, f"{{{_GRAPHML_NS}}}graph",
                          {"id": outcome.algorithm or "traffic",
                           "edgedefault": "undirected"})

    def data(parent, key, value):
        el = ET.SubElement(parent, f"{{{_GRAPHML_NS}}}data", {"key": key})
        el.text = str(value)

    for n in range(net.node_count):
        x, y = node_xy(n, net.cols)
        el = ET.SubElement(graph, f"{{{_GRAPHML_NS}}}node", {"id": f"n{n}"})
        data(el, "n_x", float(x))
        data(el, "n_y", float(y))
        data(el, "n_label", node_label(n, net.cols))
    for i, row in enumerate(_edge_traffic(outcome, net)):
        el = ET.SubElement(graph, f"{{{_GRAPHML_NS}}}edge",
                           {"id": f"e{i}", "source": f"n{row['u']}",
                            "target": f"n{row['v']}"})
        data(el, "e_capacity", row["capacity"])
        data(el, "e_active", "true" if row["active"] else "false")
        data(el, "e_flow", row["flow"])
        if row["flow"] > 0:
            data(el, "e_utilization", row["utilization"])
            data(el, "e_class", row["class"])
            data(el, "e_width", row["width"])
        else:
            data(el, "e_width", 0.0)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
