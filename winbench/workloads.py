"""The benchmark's workloads: configs, one window or sweep, and output digests.

Import this module only after ``src`` is on ``sys.path``; it imports qroute.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from qroute import harness, reports
from qroute.config import load_config

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: trial CSV columns the window digest covers. They are fixed here, so that a
#: column a later change adds to ``trial_rows`` leaves the digest alone; none
#: of them holds a timing.
DIGEST_COLUMNS = ("seed", "algorithm", "k", "l_max", "alpha", "beta", "F", "F_min",
                  "U_ave", "U_var", "gamma", "J_req", "J_path", "flags")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "window": run_trial on a pool of seeds; "sweep": grid_search_parameters
    kind: str
    #: windows per pass; a run repeats the pass, so every pass does the same work
    pool: int


WORKLOADS = {w.name: w for w in (
    Workload("paper_baseline", "window", 768),
    Workload("high_capacity", "window", 192),
    Workload("large_lattice", "window", 40),
    Workload("param_sweep", "sweep", 1),
)}


def load(name: str, seed: int):
    """The workload's config, with the seed range starting at ``seed``."""
    config = load_config(str(HERE / "configs" / f"{name}.yml"))
    return replace(config, base_seed=seed)


def pool(workload: Workload, seed: int) -> list[int]:
    """Window seeds of one pass, or the sweep's base seed."""
    return [seed + i for i in range(workload.pool)]


def serialize(record) -> str:
    return json.dumps(reports.record_to_dict(record))


def run_window(config, seed: int):
    """One window: a seeded trial, serialized as ``qroute replicate`` would."""
    record = harness.run_trial(config, seed)
    return record, serialize(record)


def run_sweep(config) -> list[dict]:
    _, table = harness.grid_search_parameters(config)
    return table


def grid_points(config) -> int:
    return math.prod(len(values) for values in config.routing_grid.values())


def sweep_windows(config) -> int:
    """Windows one sweep runs: grid points times replications."""
    return grid_points(config) * config.replications


def rows_text(record) -> str:
    """The window's trial CSV rows, without header."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=DIGEST_COLUMNS, extrasaction="ignore")
    writer.writerows(reports.trial_rows([record]))
    return out.getvalue()


def round_trip_rows(text: str) -> str:
    """CSV rows of the record read back from its serialized text."""
    return rows_text(reports.record_from_dict(json.loads(text)))


def table_text(table: list[dict]) -> str:
    return json.dumps(table, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_bytes(record) -> int:
    """Size of the serialized record with its timing fields zeroed, so that
    the count is exact."""
    data = reports.record_to_dict(record)
    data["stage_seconds"] = dict.fromkeys(data["stage_seconds"], 0.0)
    for result in data["results"].values():
        result["schedule_seconds"] = 0.0
    return len(json.dumps(data))


def _count_record_bytes(counts, args, kwargs, result):
    counts["reports.record_bytes"] += record_bytes(args[0])


#: the benchmark's own serialization step, traced like the program's functions
SERIALIZE_COUNTERS = {"serialize": _count_record_bytes}


def load_golden() -> dict[str, dict[str, str]]:
    """Digests from the commit that defined the benchmark, per workload and seed
    (window seed, or the sweep's base seed)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)
