import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from conftest import keyed_allocations

from qroute import cli, harness
from qroute.harness import ExperimentConfig, RequestSpec, prepare_trial, replicate, run_trial
from qroute.netmodel import ScenarioParams
from qroute.reports import (TRIAL_COLUMNS, read_records_json, record_from_dict,
                            record_to_dict, export_traffic_graphml,
                            export_traffic_json, utilization_class,
                            write_records_json, write_trial_csv)
from qroute.scheduler import RoutingParams


def small_config(**kwargs):
    defaults = dict(
        rows=5, cols=5,
        scenario=ScenarioParams(c0=50),
        routing=RoutingParams(k=4, l_max=5, alpha=1.0, beta=1.0),
        requests=RequestSpec(count=2, distance=2, demand=2),
        replications=3, base_seed=21)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_utilization_class_boundaries():
    assert utilization_class(0.29) == "low"
    assert utilization_class(0.30) == "mid"
    assert utilization_class(0.70) == "mid"
    assert utilization_class(0.71) == "high"


def test_trial_csv_schema(tmp_path):
    records, _ = replicate(small_config(replications=2))
    path = tmp_path / "trials.csv"
    write_trial_csv(records, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3  # one row per (trial, algorithm)
    assert list(rows[0].keys()) == list(TRIAL_COLUMNS)
    assert {row["algorithm"] for row in rows} == {"PS", "PF", "PU"}


def test_csv_byte_identical_on_rerun(tmp_path):
    cfg = small_config()
    for name in ("a.csv", "b.csv"):
        records, _ = replicate(cfg)
        write_trial_csv(records, str(tmp_path / name))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_record_json_roundtrip(tmp_path):
    record = run_trial(small_config(), 77)
    path = tmp_path / "records.json"
    write_records_json([record], str(path), provenance={"lattice.rows": "file"})
    loaded = read_records_json(str(path))
    assert loaded == [record]
    outcomes = [res.outcome for res in loaded[0].results.values()]
    assert all(o.paths is outcomes[0].paths for o in outcomes)
    payload = json.loads(path.read_text())
    assert payload["config_provenance"] == {"lattice.rows": "file"}
    # each path's edges and length, and each edge's capacity, are stored once
    # per record, not per algorithm
    data = payload["records"][0]
    paths = record.results["PS"].outcome.paths
    assert len(data["paths"]["keys"]) == len(record.results["PS"].outcome.flows)
    assert data["paths"]["capacities"] == list(record.capacities) == list(paths.capacities(
        prepare_trial(small_config(), 77).revised))
    for name, res in data["results"].items():
        assert set(res["outcome"]) <= {"algorithm", "flows", "allocations"}
        assert ("allocations" in res["outcome"]) == (name == "PS")
        # no per-edge utilization is stored; the read outcome's usage and the
        # record's capacities give it
        assert "utilization" not in res["report"]
        assert any(used / cap for used, cap in zip(loaded[0].results[name].outcome.usage,
                                                   loaded[0].capacities))
    # PS's allocations: one list per edge id, in the order of the paths kept
    # there, as the outcome holds them
    kept = paths.kept(record.params.l_max).keys
    allocations = keyed_allocations(record.results["PS"].outcome, record.params.l_max)
    assert data["results"]["PS"]["outcome"]["allocations"] == [
        [allocations[paths.edges[e]][paths.keys[p]] for p in ids] for e, ids in enumerate(kept)]
    assert loaded[0].results["PS"].outcome.allocations == record.results["PS"].outcome.allocations


@pytest.mark.parametrize("payload, where", [
    (lambda record: [], r"records\.json: \[\] is not an object"),
    (lambda record: {}, r"records\.json: missing keys \['records'\], extra keys \[\]"),
    (lambda record: {"records": 5}, r"records: 5 is not a list"),
    (lambda record: {"records": [], "extra": 1},
     r"records\.json: missing keys \[\], extra keys \['extra'\]"),
    (lambda record: {"records": [record, 5]}, r"records\[1\]: record: 5 is not an object"),
    # written as JSON's Infinity, which Python's json reads back
    (lambda record: {"records": [record, {**record, "params": {**record["params"],
                                                           "alpha": math.inf}}],
                     "config_provenance": {}},
     r"records\[1\]: params\.alpha: inf is not a number"),
    (lambda record: {"records": [record], "config_provenance": 5},
     r"config_provenance: 5 is not a dict\[str, str\]"),
    (lambda record: {"records": [record], "config_provenance": []},
     r"config_provenance: \[\] is not a dict\[str, str\]"),
    (lambda record: {"records": [record], "config_provenance": {"a": 1}},
     r"config_provenance\.a: 1 is not a string"),
])
def test_read_records_json_rejects_misshapen_payloads(tmp_path, payload, where):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(payload(record_to_dict(run_trial(small_config(), 77)))))
    with pytest.raises(ValueError, match=where):
        read_records_json(str(path))


def test_record_dict_roundtrip_degenerate():
    cfg = small_config(scenario=ScenarioParams(c0=50, p_out=0.0))
    record = run_trial(cfg, 1)
    assert record.capacities == ()
    data = record_to_dict(record)
    assert record_from_dict(data) == record
    # a window without paths has no PS allocation rows
    data["results"]["PS"]["outcome"]["allocations"] = []
    with pytest.raises(ValueError, match=r"results\.PS\.outcome: missing keys \[\], "
                                         r"extra keys \['allocations'\]"):
        record_from_dict(data)


@pytest.mark.parametrize("change, where", [
    (lambda d: d["paths"].pop("capacities"), r"paths: missing keys \['capacities'\]"),
    (lambda d: d["paths"]["capacities"].pop(), r"paths\.capacities: \d+ entries"),
    (lambda d: d["paths"]["capacities"].append(1), r"paths\.capacities: \d+ entries"),
    (lambda d: d["paths"]["capacities"].__setitem__(0, "x"),
     r"paths\.capacities\[0\]: 'x' is not a non-negative int"),
    (lambda d: d["results"]["PS"]["outcome"]["allocations"].pop(),
     r"results\.PS\.outcome\.allocations: \d+ entries"),
    (lambda d: d["results"]["PS"]["outcome"]["allocations"][2].append(1),
     r"results\.PS\.outcome\.allocations\[2\]: \d+ entries"),
    (lambda d: d["results"]["PS"]["outcome"]["allocations"][0].pop(),
     r"results\.PS\.outcome\.allocations\[0\]: \d+ entries"),
    (lambda d: d["results"]["PS"]["outcome"]["allocations"][1].__setitem__(0, "x"),
     r"results\.PS\.outcome\.allocations\[1\]\[0\]: 'x' is not a non-negative int"),
    (lambda d: d["results"]["PS"]["outcome"]["allocations"][0].__setitem__(0, -1),
     r"results\.PS\.outcome\.allocations\[0\]\[0\]: -1 is not a non-negative int"),
    (lambda d: d["results"]["PF"]["outcome"]["flows"].__setitem__(2, 1.5),
     r"results\.PF\.outcome\.flows\[2\]: 1\.5 is not a non-negative int"),
    (lambda d: d["results"]["PU"]["outcome"]["flows"].__setitem__(0, -4),
     r"results\.PU\.outcome\.flows\[0\]: -4 is not a non-negative int"),
    (lambda d: d["results"]["PS"]["outcome"]["flows"].__setitem__(1, "3"),
     r"results\.PS\.outcome\.flows\[1\]: '3' is not a non-negative int"),
    (lambda d: d["results"]["PS"]["outcome"]["flows"].__setitem__(0, True),
     r"results\.PS\.outcome\.flows\[0\]: True is not a non-negative int"),
    (lambda d: d["results"]["PU"]["outcome"]["flows"].append(0),
     r"results\.PU\.outcome\.flows: \d+ entries, expected \d+ \(one flow per path key\)"),
    (lambda d: d["results"]["PU"]["outcome"]["flows"].pop(),
     r"results\.PU\.outcome\.flows: \d+ entries, expected \d+ \(one flow per path key\)"),
    # the old layout: flows keyed by "r:l", and paths as "u-v" strings with
    # their lengths
    (lambda d: d["results"]["PF"]["outcome"].__setitem__(
        "flows", {"0:0": 1, "0:1": 2}), r"results\.PF\.outcome\.flows: \{'0:0': 1.* is not a"),
    (lambda d: d.__setitem__("paths", {"lengths": {"0:0": 1}, "path_edges": {"0:0": ["0-1"]},
                                       "capacities": [5]}),
     r"paths: missing keys \['keys', 'edges', 'edge_ids'\], "
     r"extra keys \['lengths', 'path_edges'\]"),
    # keys and edges: strictly ascending pairs of non-negative ints, each
    # edge [u, v] with u < v and crossed by some path
    (lambda d: d["paths"]["keys"].reverse(),
     r"paths\.keys\[1\]: \[\d+, \d+\] does not follow \[\d+, \d+\] in ascending order"),
    (lambda d: d["paths"]["keys"].__setitem__(1, d["paths"]["keys"][0]),
     r"paths\.keys\[1\]: \[0, 0\] does not follow \[0, 0\] in ascending order"),
    (lambda d: d["paths"]["keys"][0].append(0),
     r"paths\.keys\[0\]: 3 entries, expected 2 \(a pair\)"),
    (lambda d: d["paths"]["keys"].__setitem__(0, "0:0"),
     r"paths\.keys\[0\]: '0:0' is not a tuple"),
    (lambda d: d["paths"]["keys"][0].__setitem__(0, -1),
     r"paths\.keys\[0\]\[0\]: -1 is not a non-negative int"),
    (lambda d: d["paths"]["edges"].reverse(),
     r"paths\.edges\[1\]: .* does not follow .* in ascending order"),
    (lambda d: d["paths"]["edges"][0].pop(),
     r"paths\.edges\[0\]: 1 entries, expected 2 \(a pair\)"),
    (lambda d: d["paths"]["edges"][-1].reverse(),
     r"paths\.edges\[\d+\]: \[\d+, \d+\] is not an edge \[u, v\] with u < v"),
    (lambda d: d["paths"]["edges"].append([998, 999]),
     r"paths\.edges\[\d+\]: \[998, 999\] is crossed by no path"),
    # each path's edge ids: one non-empty list per key, of ids below len(edges)
    (lambda d: d["paths"]["edge_ids"].pop(),
     r"paths\.edge_ids: \d+ entries, expected \d+ \(one list per path key\)"),
    (lambda d: d["paths"]["edge_ids"].__setitem__(0, []),
     r"paths\.edge_ids\[0\]: \[\] is not a non-empty list of ids below \d+"),
    (lambda d: d["paths"]["edge_ids"][1].append(len(d["paths"]["edges"])),
     r"paths\.edge_ids\[1\]: \[.*\] is not a non-empty list of ids below \d+"),
    (lambda d: d["paths"]["edge_ids"][0].__setitem__(0, -1),
     r"paths\.edge_ids\[0\]\[0\]: -1 is not a non-negative int"),
    (lambda d: d["paths"]["edge_ids"].__setitem__(0, ["27-28"]),
     r"paths\.edge_ids\[0\]\[0\]: '27-28' is not a non-negative int"),
    # a missing or extra field, or a malformed edge, names its key path; a
    # field with a dataclass default is not filled in
    (lambda d: d["results"]["PS"]["report"].pop("u_ave"),
     r"results\.PS\.report: missing keys \['u_ave'\], extra keys \[\]"),
    (lambda d: d["results"]["PF"]["report"].__setitem__("utilization", {}),
     r"results\.PF\.report: missing keys \[\], extra keys \['utilization'\]"),
    (lambda d: d["network"].pop("active_edges"),
     r"network: missing keys \['active_edges'\]"),
    (lambda d: d["requests"][0].pop("demand"), r"requests\[0\]: missing keys \['demand'\]"),
    (lambda d: d["requests"][1].pop("weight"), r"requests\[1\]: missing keys \['weight'\]"),
    (lambda d: d["params"].pop("f_min"), r"params: missing keys \['f_min'\]"),
    # a value its field's annotation does not admit, or its constructor
    # rejects, names its key path
    (lambda d: d["requests"][0].__setitem__("demand", "x"),
     r"requests\[0\]\.demand: 'x' is not a non-negative int"),
    (lambda d: d["params"].__setitem__("k", 0), r"params: k must be >= 1, got 0"),
    (lambda d: d["results"]["PS"]["report"].__setitem__("u_ave", "x"),
     r"results\.PS\.report\.u_ave: 'x' is not a number"),
    (lambda d: d["network"].__setitem__("active_edges", "x"),
     r"network\.active_edges: 'x' is not a non-negative int"),
    (lambda d: d["params"].__setitem__("alpha", "x"), r"params\.alpha: 'x' is not a number"),
    # JSON's NaN and Infinity are read by Python's json, but are no numbers here
    (lambda d: d["requests"][0].__setitem__("weight", math.nan),
     r"requests\[0\]\.weight: nan is not a number"),
    (lambda d: d["params"].__setitem__("alpha", math.inf), r"params\.alpha: inf is not a number"),
    (lambda d: d["results"]["PS"]["report"].__setitem__("u_ave", math.nan),
     r"results\.PS\.report\.u_ave: nan is not a number"),
    (lambda d: d["params"].__setitem__("f_min", -1),
     r"params\.f_min: -1 is not a non-negative int"),
    (lambda d: d["requests"][1].__setitem__("terminal", d["requests"][1]["source"]),
     r"requests\[1\]: source and terminal must differ"),
    (lambda d: d["requests"][0].__setitem__("weight", 0), r"requests\[0\]: weight must be > 0"),
    (lambda d: d["results"]["PF"]["report"].__setitem__("flags", [1]),
     r"results\.PF\.report\.flags\[0\]: 1 is not a string"),
    (lambda d: d["results"]["PU"]["report"]["stretch_per_request"].__setitem__("a", 1.0),
     r"results\.PU\.report\.stretch_per_request: .*'a'.* is not a dict\[int, float\]"),
    (lambda d: d["results"]["PU"]["report"]["demand_satisfied"].__setitem__("0", "yes"),
     r"results\.PU\.report\.demand_satisfied\.0: 'yes' is not a bool"),
    (lambda d: d.__setitem__("seed", "x"), r"seed: 'x' is not a non-negative int"),
    (lambda d: d.__setitem__("reason", 5), r"reason: 5 is not a string"),
    # the record's own sections: objects of their keys, and one result or
    # more, each named in ALGORITHMS
    (lambda d: d.__setitem__("extra", 1), r"record: missing keys \[\], extra keys \['extra'\]"),
    (lambda d: d["results"]["PS"].__setitem__("extra", 1),
     r"results\.PS: missing keys \[\], extra keys \['extra'\]"),
    (lambda d: d["results"].__setitem__("XY", d["results"]["PF"]),
     r"results\.XY: not one of \('PS', 'PF', 'PU'\)"),
    (lambda d: d["results"]["PS"]["outcome"].__setitem__("algorithm", "PF"),
     r"results\.PS\.outcome\.algorithm: 'PF' is not its result's name 'PS'"),
    (lambda d: d["results"]["PF"].pop("report"), r"results\.PF: missing keys \['report'\]"),
    (lambda d: d.__setitem__("paths", 5), r"paths: 5 is not an object"),
    (lambda d: d.__setitem__("results", []), r"results: \[\] is not an object"),
    (lambda d: d.__setitem__("results", {}),
     r"results: \{\} is not an object of one result or more"),
    (lambda d: d["results"].__setitem__("PS", 5), r"results\.PS: 5 is not an object"),
    (lambda d: d["results"]["PS"].__setitem__("outcome", 5),
     r"results\.PS\.outcome: 5 is not an object"),
    # PS's outcome, and only PS's, holds allocation rows
    (lambda d: d["results"]["PS"]["outcome"].pop("allocations"),
     r"results\.PS\.outcome: missing keys \['allocations'\]"),
    (lambda d: d["results"]["PS"]["outcome"].__setitem__("allocations", None),
     r"results\.PS\.outcome\.allocations: None is not a tuple"),
    (lambda d: d["results"]["PF"]["outcome"].__setitem__(
        "allocations", d["results"]["PS"]["outcome"]["allocations"]),
     r"results\.PF\.outcome: missing keys \[\], extra keys \['allocations'\]"),
])
def test_record_from_dict_rejects_misshapen_capacities_and_allocations(change, where):
    data = record_to_dict(run_trial(small_config(), 77))
    assert record_from_dict(data)  # the record as written reads back
    change(data)
    with pytest.raises(ValueError, match=where):
        record_from_dict(data)


def baseline_outcome():
    cfg = ExperimentConfig(requests=RequestSpec(count=2, distance=3))
    ctx = prepare_trial(cfg, 0)
    record = run_trial(cfg, 0)
    return record.results["PU"].outcome, ctx.revised


def test_traffic_json_export(tmp_path):
    outcome, net = baseline_outcome()
    path = tmp_path / "traffic.json"
    export_traffic_json(outcome, net, str(path))
    data = json.loads(path.read_text())
    assert len(data["nodes"]) == 64
    assert len(data["edges"]) == 112
    usage = outcome.edge_usage()
    for edge in data["edges"]:
        key = (edge["u"], edge["v"])
        if edge["flow"] > 0:
            assert edge["class"] == utilization_class(edge["utilization"])
            assert edge["flow"] == usage[key]
            assert sum(edge["flows"].values()) == edge["flow"]
            assert edge["width"] == pytest.approx(5.0 * edge["utilization"])
        else:
            assert "class" not in edge


def test_traffic_graphml_parses(tmp_path):
    outcome, net = baseline_outcome()
    path = tmp_path / "traffic.graphml"
    export_traffic_graphml(outcome, net, str(path))
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.parse(path).getroot()
    graph = root.find("g:graph", ns)
    nodes = graph.findall("g:node", ns)
    edges = graph.findall("g:edge", ns)
    assert len(nodes) == 64 and len(edges) == 112
    keys = {k.get("id"): k for k in root.findall("g:key", ns)}
    assert {"n_x", "n_y", "e_utilization", "e_class", "e_width"} <= set(keys)
    classed = [e for e in edges
               if any(d.get("key") == "e_class" for d in e.findall("g:data", ns))]
    flows = [e for e in edges
             if any(d.get("key") == "e_flow" and int(d.text) > 0
                    for d in e.findall("g:data", ns))]
    assert len(classed) == len(flows) > 0


# --------------------------------------------------------------------- CLI

def write_config(tmp_path, text):
    path = tmp_path / "cfg.yml"
    path.write_text(text)
    return str(path)


BASE_YML = """\
lattice: {rows: 5, cols: 5}
scenario: {c0: 50}
routing: {k: 4, l_max: 5}
requests: {count: 2, distance: 2, demand: 2}
experiment: {replications: 2, base_seed: 3}
"""


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_YML)
    out_dir = tmp_path / "out"
    code = cli.main(["run", "-c", cfg, "--out-dir", str(out_dir),
                     "--traffic", "graphml"])
    assert code == 0
    assert (out_dir / "trial.csv").exists()
    assert (out_dir / "trial.json").exists()
    for name in ("PS", "PF", "PU"):
        assert (out_dir / f"traffic_{name}.graphml").exists()
    assert "PS:" in capsys.readouterr().out


def test_cli_run_prepares_the_window_once(tmp_path, monkeypatch):
    # the traffic export reads the network of the window the trial routed
    calls = []
    prepare = harness.prepare_trial
    monkeypatch.setattr(harness, "prepare_trial",
                        lambda *args: calls.append(args) or prepare(*args))
    baseline = pathlib.Path(__file__).resolve().parent.parent / "configs" / "baseline.yml"
    assert cli.main(["run", "-c", str(baseline), "--traffic", "json",
                     "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    for name in ("PS", "PF", "PU"):
        assert (tmp_path / f"traffic_{name}.json").exists()


def test_cli_run_seed_flag_changes_trial(tmp_path):
    cfg = write_config(tmp_path, BASE_YML)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert cli.main(["run", "-c", cfg, "--out-dir", str(out_a), "--seed", "9"]) == 0
    assert cli.main(["run", "-c", cfg, "--out-dir", str(out_b), "--seed", "9"]) == 0
    assert cli.main(["run", "-c", cfg, "--out-dir", str(out_c), "--seed", "10"]) == 0
    a = (out_a / "trial.csv").read_bytes()
    assert a == (out_b / "trial.csv").read_bytes()
    assert a != (out_c / "trial.csv").read_bytes()


def test_cli_replicate_and_algorithms_flag(tmp_path):
    cfg = write_config(tmp_path, BASE_YML)
    out_dir = tmp_path / "out"
    code = cli.main(["replicate", "-c", cfg, "--out-dir", str(out_dir),
                     "--algorithms", "PF,PU", "--replications", "3"])
    assert code == 0
    with open(out_dir / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["algorithm"] for r in rows} == {"PF", "PU"}
    assert (out_dir / "aggregate.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys, monkeypatch):
    bad = write_config(tmp_path, "scenario: {p_in: 2.0}\n")
    assert cli.main(["run", "-c", bad, "--out-dir", str(tmp_path / "o")]) == 1
    for text, message in (("requests: {pairs: [[0, 999]]}\n", "requests.pairs: node 999"),
                          ("requests: {pairs: [[5, 5]]}\n", "requests.pairs: source"),
                          ("requests: {distance: 9}\n", "requests.distance: no node pair"),
                          ("experiment: {base_seed: -1}\n", "experiment.base_seed: value -1")):
        bad = write_config(tmp_path, text)
        assert cli.main(["run", "-c", bad, "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err and "(line 1)" in err
    monkeypatch.setenv("QROUTE_WORKERS", "abc")
    assert cli.main(["replicate", "--out-dir", str(tmp_path / "o")]) == 1
    assert "QROUTE_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "replicate", "sweep", "optimize", "failures",
                                     "requests"])
def test_cli_duplicate_algorithms_exit_code(tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    assert cli.main([command, "--algorithms", "PU,PU", "--out-dir", str(out_dir)]) == 1
    assert "experiment.algorithms: lists PU more than once" in capsys.readouterr().err
    bad = write_config(tmp_path, "experiment:\n  algorithms: [PS, PS]\n")
    assert cli.main([command, "-c", bad, "--out-dir", str(out_dir)]) == 1
    assert "experiment.algorithms: lists PS more than once (line 2)" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_usage_error_exit_code(tmp_path):
    assert cli.main(["frobnicate"]) == 1


def test_python_m_qroute_runs_the_cli(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def qroute(*args):
        return subprocess.run([sys.executable, "-m", "qroute", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = qroute("--help")
    assert done.returncode == 0 and "usage" in done.stdout
    bad = write_config(tmp_path, "scenario: {p_in: 2.0}\n")
    done = qroute("run", "-c", bad, "--out-dir", str(tmp_path / "o"))
    assert done.returncode == 1 and "config error" in done.stderr


def test_cli_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--seed", "-1", "--out-dir", str(out_dir)]) == 1
    assert "experiment.base_seed" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "replicate", "sweep", "optimize", "failures",
                                     "requests"])
def test_cli_degenerate_exit_code(tmp_path, command):
    # p_out = 0 leaves no edge active, so every window is degenerate
    degenerate = write_config(tmp_path, BASE_YML.replace("c0: 50", "c0: 50, p_out: 0.0"))
    assert cli.main([command, "-c", degenerate, "--out-dir", str(tmp_path / "o")]) == 3


def test_cli_missing_config_file(tmp_path):
    assert cli.main(["run", "-c", str(tmp_path / "nope.yml"),
                     "--out-dir", str(tmp_path / "o")]) == 1


def test_cli_sweep_and_requests(tmp_path):
    cfg = write_config(tmp_path, BASE_YML.replace("k: 4", "k: [2, 4]"))
    out_dir = tmp_path / "out"
    assert cli.main(["sweep", "-c", cfg, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["k"] for r in rows} == {"2", "4"}

    cfg2 = write_config(tmp_path, BASE_YML)
    assert cli.main(["requests", "-c", cfg2, "--out-dir", str(out_dir),
                     "--counts", "2,3"]) == 0
    assert (out_dir / "requests.csv").exists()


@pytest.mark.parametrize("lattice,pair", [("{rows: 3, cols: 3}", "[0, 8]"),
                                          ("{rows: 5, cols: 5}", "[0, 24]")])
def test_cli_sweep_keeps_pinned_pairs(tmp_path, lattice, pair):
    # without --distances the sweep runs the config's pinned pair, as
    # replicate does; on 3x3 the default distance 3 fits no random pair
    cfg = write_config(tmp_path, BASE_YML.replace("{rows: 5, cols: 5}", lattice)
                       .replace("count: 2, distance: 2", f"pairs: [{pair}]"))
    out_dir = tmp_path / "out"
    assert cli.main(["sweep", "-c", cfg, "--out-dir", str(out_dir)]) == 0
    assert cli.main(["replicate", "-c", cfg, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    with open(out_dir / "aggregate.csv", newline="") as fh:
        aggregate = {row["algorithm"]: row for row in csv.DictReader(fh)}
    assert [row["algorithm"] for row in sweep] == ["PS", "PF", "PU"]
    for row in sweep:
        assert row["distance"] == ""
        assert row["F_mean"] == aggregate[row["algorithm"]]["F_mean"]


def test_cli_sweep_rejects_distance_beyond_lattice(tmp_path, capsys):
    # 8x8 admits distances 1..7; rejected before any replication runs
    baseline = pathlib.Path(__file__).resolve().parent.parent / "configs" / "baseline.yml"
    out_dir = tmp_path / "out"
    assert cli.main(["sweep", "-c", str(baseline), "--distances", "3,9",
                     "--out-dir", str(out_dir)]) == 1
    assert "--distances: 9" in capsys.readouterr().err
    assert not (out_dir / "sweep.csv").exists()


@pytest.mark.parametrize("argv,flag", [
    (["failures", "--max-failures", "0"], "--max-failures"),
    (["requests", "--counts", "0,2"], "--counts"),
    (["requests", "--counts", ","], "--counts"),
    (["sweep", "--distances", ","], "--distances"),
    (["replicate", "--replications", "0"], "--replications"),
])
def test_cli_rejects_bad_experiment_flags(tmp_path, capsys, monkeypatch, argv, flag):
    # a usage error (exit 1) raised while parsing, before any replication runs
    monkeypatch.setattr(harness, "prepare_trial", None)
    baseline = pathlib.Path(__file__).resolve().parent.parent / "configs" / "baseline.yml"
    out_dir = tmp_path / "out"
    assert cli.main(argv + ["-c", str(baseline), "--out-dir", str(out_dir)]) == 1
    assert f"argument {flag}: expected" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_optimize_and_failures(tmp_path):
    cfg = write_config(tmp_path, BASE_YML.replace("k: 4", "k: [2, 4]"))
    out_dir = tmp_path / "out"
    assert cli.main(["optimize", "-c", cfg, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "optimize.csv").exists()

    cfg2 = write_config(tmp_path, BASE_YML)
    assert cli.main(["failures", "-c", cfg2, "--out-dir", str(out_dir),
                     "--max-failures", "2"]) == 0
    with open(out_dir / "failures.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["mode"] for r in rows} == {"edge", "node"}


#: sha256 of the files the commands below wrote when these digests were pinned
PINNED_DIGESTS = {
    "trials.csv": "5f8e9d4c8f8112f579c7f94d6b37a51e5148e5d5d0e626e9a192c424ea59349d",
    "optimize.csv": "f8abdfd1f8a48d321f6e464c5518564151460556b0aa85a18a225bc2fe95efb5",
    "sweep.csv": "c2049647ad6b95ba4c62c436565a94228bc7201033cc1ac75121e4a306bb0ad5",
    "requests.csv": "78b072e28539ba0da6d0ebdc6e7961d543e26c227becea434c8c2aac1b51c523",
    "failures.csv": "0ec34cbff911bb7a971b635db336d7aa5ef210af7861e94a781be6daf96c0b1b",
    "trial.json": "0fe97743ebaa36cdc27df62fd3fdb7ea91d70821d1945133f35a4d01def95813",
    "trials.json": "012ada99419e8bf9f95068371582e4b9f06054eba4da240e56f2e0e7aee07606",
    "traffic_PS.json": "90eb4e0aaeb757cbfd55d1b562da97df836661739578fc5fa479614b6217fdca",
    "traffic_PF.json": "83da183b32a0050781c6a29e7ec09714c0e9627b2fbda0fd62169003a23c6b1d",
    "traffic_PU.json": "e83f6d90811c507e4601cc89f60c853524b2f05257991963395e0a742386f429",
    "traffic_PS.graphml": "815a9496e44a83fba08bef80a0fc4baf246a38c07f7b3c281f7bb106109723bb",
    "traffic_PF.graphml": "10d147a436e91e012735b9bb5dad1d591392ca03ab274b019d8d578390ff4061",
    "traffic_PU.graphml": "11c93fa4a8a5722420f74e58e26b89a079f03bdf397589bc362b6b3185d90a03",
    "hexagonal/trials.csv": "b7428932b05778bc6ae30e377f5b6eeec67d4fa1a3b6e9a9c1ccad15138ab11f",
    "triangular/trials.csv": "c5833bd2aeb19658055b847d273aedf812b7c31437d881c69b4d2f5a69fabe36",
}


def test_cli_outputs_match_pinned_digests(tmp_path):
    # differential check: a change to the pipeline that alters any output
    # byte fails here without running the benchmark
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    baseline, sweep = str(configs / "baseline.yml"), str(configs / "sweep.yml")
    out_dir = tmp_path / "out"
    assert cli.main(["replicate", "-c", baseline,
                     "--replications", "10", "--out-dir", str(out_dir)]) == 0
    assert cli.main(["optimize", "-c", sweep,
                     "--replications", "3", "--out-dir", str(out_dir)]) == 0
    assert cli.main(["sweep", "-c", sweep, "--distances", "2,3",
                     "--replications", "3", "--out-dir", str(out_dir)]) == 0
    assert cli.main(["requests", "-c", baseline, "--counts", "2,4",
                     "--replications", "3", "--out-dir", str(out_dir)]) == 0
    assert cli.main(["failures", "-c", baseline,
                     "--replications", "10", "--out-dir", str(out_dir)]) == 0
    for fmt in ("json", "graphml"):
        assert cli.main(["run", "-c", baseline, "--traffic", fmt,
                         "--out-dir", str(out_dir)]) == 0
    # the baseline configs are square lattices; pin the other two kinds too
    for kind in ("hexagonal", "triangular"):
        cfg = write_config(tmp_path, BASE_YML.replace("cols: 5", f"cols: 5, kind: {kind}"))
        assert cli.main(["replicate", "-c", cfg, "--replications", "6",
                         "--out-dir", str(out_dir / kind)]) == 0
    for name, digest in PINNED_DIGESTS.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name


def test_cli_runtime_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, BASE_YML)
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert cli.main(["run", "-c", cfg, "--out-dir", str(blocker)]) == 2
