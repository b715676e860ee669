"""Config documents: strict YAML parsing with defaults, range checks, and
per-field provenance."""
from __future__ import annotations

from dataclasses import replace
from typing import Any

import yaml

from .harness import ExperimentConfig, ObjectiveWeights, RequestSpec
from .netmodel import TOPOLOGIES, ScenarioParams
from .scheduler import ALGORITHMS, RoutingParams


class ConfigError(ValueError):
    """Malformed document, unknown key, or out-of-range value."""


def _parse_tree(text: str) -> tuple[Any, dict[str, int]]:
    """Parse YAML into plain values plus a {key path: line} map.

    Duplicate mapping keys are rejected (plain yaml.safe_load silently keeps
    the last one).
    """
    loader = yaml.SafeLoader(text)
    try:
        try:
            root = loader.get_single_node()
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if root is None:
            return {}, {}
        lines: dict[str, int] = {}

        def convert(node, path):
            if isinstance(node, yaml.MappingNode):
                out = {}
                for key_node, value_node in node.value:
                    key = str(loader.construct_object(key_node, deep=True))
                    key_path = f"{path}.{key}" if path else key
                    if key in out:
                        raise ConfigError(
                            f"{key_path}: duplicate key (line {key_node.start_mark.line + 1})")
                    lines[key_path] = key_node.start_mark.line + 1
                    out[key] = convert(value_node, key_path)
                return out
            if isinstance(node, yaml.SequenceNode):
                return [convert(child, f"{path}[{i}]")
                        for i, child in enumerate(node.value)]
            return loader.construct_object(node, deep=True)

        return convert(root, ""), lines
    finally:
        loader.dispose()


def _fail(path: str, lines: dict[str, int], message: str) -> None:
    where = f" (line {lines[path]})" if path in lines else ""
    raise ConfigError(f"{path}: {message}{where}")


def _scalar(value, path, lines, kind, lo=None, hi=None, lo_open=False):
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(path, lines, f"expected an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, lines, f"expected a number, got {value!r}")
        value = float(value)
    if lo is not None and (value <= lo if lo_open else value < lo):
        _fail(path, lines, f"value {value} below allowed range")
    if hi is not None and value > hi:
        _fail(path, lines, f"value {value} above allowed range")
    return value


def _scalar_or_grid(value, path, lines, kind, lo=None):
    """Routing parameters accept a single value or a list (sweep grid)."""
    if isinstance(value, list):
        if not value:
            _fail(path, lines, "grid list must not be empty")
        return tuple(sorted({_scalar(v, path, lines, kind, lo=lo) for v in value}))
    return _scalar(value, path, lines, kind, lo=lo)


_SECTIONS = ("lattice", "scenario", "routing", "requests", "experiment")
_KEYS = {
    "lattice": ("rows", "cols", "kind"),
    "scenario": ("c0", "f_mean", "f_std", "f_th", "p_in", "p_out"),
    "routing": ("k", "l_max", "alpha", "beta"),
    "requests": ("count", "distance", "pairs", "demand", "weight"),
    "experiment": ("algorithms", "replications", "base_seed", "pi1", "pi2", "pi3"),
}


def config_from_mapping(doc: dict, lines: dict[str, int] | None = None,
                        source: str = "file") -> ExperimentConfig:
    """Validate a parsed document and fill missing keys from the defaults."""
    lines = lines or {}
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping of sections")
    for section in doc:
        if section not in _SECTIONS:
            _fail(section, lines, "unknown section")
        body = doc[section]
        if body is None:
            body = {}
        if not isinstance(body, dict):
            _fail(section, lines, "section must be a mapping")
        for key in body:
            if key not in _KEYS[section]:
                _fail(f"{section}.{key}", lines, "unknown key")

    provenance: dict[str, str] = {
        f"{section}.{key}": "default" for section in _SECTIONS
        for key in _KEYS[section]}

    def get(section, key, default):
        body = doc.get(section) or {}
        if key in body:
            provenance[f"{section}.{key}"] = source
            return body[key], f"{section}.{key}"
        return default, f"{section}.{key}"

    rows, p = get("lattice", "rows", 8)
    rows = _scalar(rows, p, lines, int, lo=2)
    cols, p = get("lattice", "cols", 8)
    cols = _scalar(cols, p, lines, int, lo=2)
    kind, p = get("lattice", "kind", "square")
    if kind not in TOPOLOGIES:
        _fail(p, lines, f"expected one of {TOPOLOGIES}, got {kind!r}")

    sc: dict[str, Any] = {}
    sc["c0"], p = get("scenario", "c0", 100)
    sc["c0"] = _scalar(sc["c0"], p, lines, int, lo=1)
    for key, default, bounds in (("f_mean", 0.8, (0.0, 1.0)),
                                 ("f_std", 0.1, (0.0, None)),
                                 ("p_in", 0.9, (0.0, 1.0)),
                                 ("p_out", 0.8, (0.0, 1.0))):
        value, p = get("scenario", key, default)
        sc[key] = _scalar(value, p, lines, float, lo=bounds[0], hi=bounds[1])
    value, p = get("scenario", "f_th", 0.8)
    sc["f_th"] = _scalar(value, p, lines, float, lo=0.0, hi=1.0, lo_open=True)
    scenario = ScenarioParams(**sc)

    grid: dict[str, tuple] = {}
    routing_values: dict[str, Any] = {}
    for key, default, kind_, lo in (("k", 10, int, 1), ("l_max", 10, int, 1),
                                    ("alpha", 1.0, float, None),
                                    ("beta", 1.0, float, None)):
        value, p = get("routing", key, default)
        parsed = _scalar_or_grid(value, p, lines, kind_, lo=lo)
        if isinstance(parsed, tuple):
            grid[key] = parsed
            routing_values[key] = parsed[0]
        else:
            routing_values[key] = parsed
    routing = RoutingParams(**routing_values)

    count, p = get("requests", "count", 2)
    count = _scalar(count, p, lines, int, lo=1)
    pairs, p = get("requests", "pairs", None)
    if pairs is not None:
        if (not isinstance(pairs, list) or not pairs
                or not all(isinstance(pair, list) and len(pair) == 2
                           and all(isinstance(n, int) for n in pair) for pair in pairs)):
            _fail(p, lines, "expected a list of [source, terminal] node pairs")
        for s, t in pairs:
            for node in (s, t):
                if not 0 <= node < rows * cols:
                    _fail(p, lines, f"node {node} is outside the {rows}x{cols} lattice")
            if s == t:
                _fail(p, lines, f"source and terminal must differ, got [{s}, {t}]")
        pairs = tuple((s, t) for s, t in pairs)
    distance, p = get("requests", "distance", 3)
    if distance is not None:
        distance = _scalar(distance, p, lines, int, lo=1)
        # the distance only matters when requests are drawn, not pinned
        if pairs is None and distance > min(rows, cols) - 1:
            _fail(p, lines, f"no node pair at offset ({distance}, {distance}) "
                            f"in a {rows}x{cols} lattice")
    demand, p = get("requests", "demand", 10)
    demand = _scalar(demand, p, lines, int, lo=1)
    weight, p = get("requests", "weight", 1.0)
    weight = _scalar(weight, p, lines, float, lo=0.0, lo_open=True)
    requests = RequestSpec(count, distance, pairs, demand, weight)

    algorithms, p = get("experiment", "algorithms", list(ALGORITHMS))
    if (not isinstance(algorithms, list) or not algorithms
            or any(a not in ALGORITHMS for a in algorithms)):
        _fail(p, lines, f"expected a non-empty subset of {ALGORITHMS}")
    replications, p = get("experiment", "replications", 200)
    replications = _scalar(replications, p, lines, int, lo=1)
    base_seed, p = get("experiment", "base_seed", 7)
    base_seed = _scalar(base_seed, p, lines, int)
    pis = []
    for key in ("pi1", "pi2", "pi3"):
        value, p = get("experiment", key, 1.0)
        pis.append(_scalar(value, p, lines, float))

    return ExperimentConfig(
        rows=rows, cols=cols, kind=kind, scenario=scenario, routing=routing,
        routing_grid=grid, requests=requests, algorithms=tuple(algorithms),
        replications=replications, base_seed=base_seed,
        objective=ObjectiveWeights(*pis), provenance=provenance)


def load_config(path: str | None) -> ExperimentConfig:
    """Parse a config file; a missing path yields the full default config."""
    if path is None:
        return config_from_mapping({})
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc, lines = _parse_tree(text)
    return config_from_mapping(doc, lines)


def apply_overrides(config: ExperimentConfig, *, seed: int | None = None,
                    algorithms: tuple[str, ...] | None = None,
                    replications: int | None = None) -> ExperimentConfig:
    """Command-line flags take precedence over file values and defaults."""
    updates: dict[str, Any] = {}
    provenance = dict(config.provenance)
    if seed is not None:
        updates["base_seed"] = seed
        provenance["experiment.base_seed"] = "flag"
    if algorithms is not None:
        bad = [a for a in algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigError(f"unknown algorithms {bad}, expected a subset of {ALGORITHMS}")
        updates["algorithms"] = algorithms
        provenance["experiment.algorithms"] = "flag"
    if replications is not None:
        if replications < 1:
            raise ConfigError("replications must be >= 1")
        updates["replications"] = replications
        provenance["experiment.replications"] = "flag"
    if not updates:
        return config
    updates["provenance"] = provenance
    return replace(config, **updates)
