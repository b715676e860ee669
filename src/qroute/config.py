"""Config documents: strict YAML parsing with defaults, range checks, and
per-field provenance."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any

import yaml

from .harness import ExperimentConfig, ObjectiveWeights, RequestSpec
from .netmodel import TOPOLOGIES, ScenarioParams, distance_error
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


@dataclass(frozen=True)
class _Number:
    """Rule for an int or float key: bounds are inclusive unless ``lo_open``;
    ``nullable`` admits null. NaN and +-inf fail: NaN passes every bound, inf an absent one."""

    kind: type
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    nullable: bool = False

    def __call__(self, value, path: str, lines: dict[str, int]):
        if value is None and self.nullable:
            return None
        if self.kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(path, lines, f"expected an integer, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, lines, f"expected a number, got {value!r}")
        else:
            value = float(value)
            if not math.isfinite(value):
                _fail(path, lines, f"expected a number, got {value}")
        lo = self.lo
        if lo is not None and (value <= lo if self.lo_open else value < lo):
            _fail(path, lines, f"value {value} below allowed range")
        if self.hi is not None and value > self.hi:
            _fail(path, lines, f"value {value} above allowed range")
        return value


def _kind(value, path: str, lines: dict[str, int]) -> str:
    if value not in TOPOLOGIES:
        _fail(path, lines, f"expected one of {TOPOLOGIES}, got {value!r}")
    return value


def _algorithms(value, path: str, lines: dict[str, int]) -> tuple[str, ...]:
    if (not isinstance(value, (list, tuple)) or not value
            or any(a not in ALGORITHMS for a in value)):
        _fail(path, lines, f"expected a non-empty subset of {ALGORITHMS}")
    duplicates = sorted({a for a in value if value.count(a) > 1})
    if duplicates:
        _fail(path, lines, f"lists {', '.join(duplicates)} more than once")
    return tuple(value)


# Every key, in the order provenance lists them, with the rule that checks
# one value (None: requests.pairs, checked against the lattice afterwards).
# A key's default is the field of the same name in ExperimentConfig() or in
# one of its nested dataclasses. Routing keys also accept a grid list.
_RULES: dict[str, dict[str, Any]] = {
    "lattice": {"rows": _Number(int, 2), "cols": _Number(int, 2), "kind": _kind},
    "scenario": {"c0": _Number(int, 1), "f_mean": _Number(float, 0.0, 1.0),
                 "f_std": _Number(float, 0.0),
                 "f_th": _Number(float, 0.0, 1.0, lo_open=True),
                 "p_in": _Number(float, 0.0, 1.0), "p_out": _Number(float, 0.0, 1.0)},
    "routing": {"k": _Number(int, 1), "l_max": _Number(int, 1),
                "alpha": _Number(float), "beta": _Number(float)},
    "requests": {"count": _Number(int, 1), "distance": _Number(int, 1, nullable=True),
                 "pairs": None, "demand": _Number(int, 1),
                 "weight": _Number(float, 0.0, lo_open=True)},
    "experiment": {"algorithms": _algorithms, "replications": _Number(int, 1),
                   "base_seed": _Number(int, 0), "pi1": _Number(float),
                   "pi2": _Number(float), "pi3": _Number(float)},
}


def _leaves(obj) -> dict[str, Any]:
    """Leaf fields of a nested config dataclass by name (the names are unique)."""
    out: dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out.update(_leaves(value) if is_dataclass(value) else {f.name: value})
    return out


def config_from_mapping(doc: dict, lines: dict[str, int] | None = None,
                        source: str = "file") -> ExperimentConfig:
    """Validate a parsed document and fill missing keys from the defaults."""
    lines = lines or {}
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping of sections")
    for section in doc:
        if section not in _RULES:
            _fail(section, lines, "unknown section")
        body = doc[section]
        if body is None:
            body = {}
        if not isinstance(body, dict):
            _fail(section, lines, "section must be a mapping")
        for key in body:
            if key not in _RULES[section]:
                _fail(f"{section}.{key}", lines, "unknown key")

    defaults = _leaves(ExperimentConfig())
    provenance: dict[str, str] = {}
    v: dict[str, Any] = {}
    grid: dict[str, tuple] = {}
    for section, rules in _RULES.items():
        body = doc.get(section) or {}
        for key, check in rules.items():
            path = f"{section}.{key}"
            provenance[path] = source if key in body else "default"
            value = body[key] if key in body else defaults[key]
            if section == "routing" and isinstance(value, list):
                if not value:
                    _fail(path, lines, "grid list must not be empty")
                grid[key] = tuple(sorted({check(x, path, lines) for x in value}))
                value = grid[key][0]
            elif check is not None:
                value = check(value, path, lines)
            v[key] = value

    rows, cols, pairs = v["rows"], v["cols"], v["pairs"]
    # The largest raw weight is B**|x| (B: the most hops of a loopless path for
    # alpha, the largest request group on an edge for beta); up to l_max are
    # summed, and a rule multiplies one by at most l_max * c0 units.
    l_max = max(grid.get("l_max", (v["l_max"],)))
    headroom = math.log(sys.float_info.max) - 2 * math.log(l_max) - math.log(v["c0"])
    for key, base in (("alpha", rows * cols - 1), ("beta", l_max)):
        for x in grid.get(key, (v[key],)):
            if abs(x) * math.log(base) > headroom:
                _fail(f"routing.{key}", lines,
                      f"value {x} overflows the weights: {base}**{abs(x)} * "
                      f"l_max**2 * c0 is beyond the float range")
    if pairs is not None:
        p = "requests.pairs"
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
        v["pairs"] = tuple((s, t) for s, t in pairs)
    # the distance only matters when requests are drawn, not pinned
    elif v["distance"] is not None:
        reason = distance_error(v["distance"], rows, cols)
        if reason:
            _fail("requests.distance", lines, reason)

    def build(section, cls):
        return cls(**{key: v[key] for key in _RULES[section]})

    return ExperimentConfig(
        rows=rows, cols=cols, kind=v["kind"], scenario=build("scenario", ScenarioParams),
        routing=build("routing", RoutingParams), routing_grid=grid,
        requests=build("requests", RequestSpec), algorithms=v["algorithms"],
        replications=v["replications"], base_seed=v["base_seed"],
        objective=ObjectiveWeights(v["pi1"], v["pi2"], v["pi3"]), provenance=provenance)


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
    """Command-line flags take precedence over file values and defaults; they
    pass the same rules as the experiment keys they set."""
    flags = {"base_seed": seed, "algorithms": algorithms, "replications": replications}
    updates = {key: _RULES["experiment"][key](value, f"experiment.{key}", {})
               for key, value in flags.items() if value is not None}
    if not updates:
        return config
    provenance = dict(config.provenance)
    provenance.update((f"experiment.{key}", "flag") for key in updates)
    return replace(config, **updates, provenance=provenance)
