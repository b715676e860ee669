import pathlib
import random

import pytest
import yaml

from conftest import reference_config_from_mapping
from qroute import cli
from qroute.config import (_RULES, ConfigError, _Number, apply_overrides,
                           config_from_mapping, load_config)
from qroute.harness import ExperimentConfig
from qroute.netmodel import TOPOLOGIES
from qroute.scheduler import ALGORITHMS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write(tmp_path, text):
    path = tmp_path / "config.yml"
    path.write_text(text)
    return str(path)


def test_minimal_file_filled_with_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "lattice: {rows: 6, cols: 6}\n"))
    assert (cfg.rows, cfg.cols, cfg.kind) == (6, 6, "square")
    assert cfg.scenario.c0 == 100
    assert cfg.scenario.f_mean == 0.8 and cfg.scenario.f_std == 0.1
    assert cfg.routing.k == 10 and cfg.routing.l_max == 10
    assert cfg.requests.count == 2 and cfg.requests.distance == 3
    assert cfg.algorithms == ("PS", "PF", "PU")
    assert cfg.provenance["lattice.rows"] == "file"
    assert cfg.provenance["scenario.c0"] == "default"


def test_missing_path_gives_full_defaults():
    cfg = load_config(None)
    assert cfg.rows == 8 and cfg.replications == 200 and cfg.base_seed == 7


def test_out_of_range_value_names_key(tmp_path):
    with pytest.raises(ConfigError, match="scenario.p_in"):
        load_config(write(tmp_path, "scenario: {p_in: 1.5}\n"))
    # drawn requests need a node pair at that offset; pinned pairs ignore it
    with pytest.raises(ConfigError, match=r"requests.distance: .*8x8 lattice \(line 1\)"):
        load_config(write(tmp_path, "requests: {distance: 9}\n"))
    cfg = load_config(write(tmp_path, "requests: {distance: 9, pairs: [[0, 9]]}\n"))
    assert cfg.requests.distance == 9


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="scenario.fidelity"):
        load_config(write(tmp_path, "scenario: {fidelity: 0.9}\n"))
    with pytest.raises(ConfigError, match="quantum"):
        load_config(write(tmp_path, "quantum: {}\n"))


def test_duplicate_key_is_a_parse_error(tmp_path):
    text = "scenario:\n  c0: 100\n  c0: 50\n"
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(write(tmp_path, text))


def test_malformed_yaml(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        load_config(write(tmp_path, "lattice: [unclosed\n"))


def test_wrong_type_diagnostic(tmp_path):
    with pytest.raises(ConfigError, match="lattice.rows"):
        load_config(write(tmp_path, "lattice: {rows: wide}\n"))


def test_routing_grid_lists(tmp_path):
    cfg = load_config(write(tmp_path, "routing: {k: [4, 2, 8], alpha: [0.0, 1.0]}\n"))
    assert cfg.routing_grid == {"k": (2, 4, 8), "alpha": (0.0, 1.0)}
    assert cfg.routing.k == 2  # smallest grid value is the scalar stand-in
    assert "l_max" not in cfg.routing_grid


def test_request_pairs(tmp_path):
    cfg = load_config(write(tmp_path, "requests: {pairs: [[27, 54], [30, 51]]}\n"))
    assert cfg.requests.pairs == ((27, 54), (30, 51))
    with pytest.raises(ConfigError, match="requests.pairs"):
        load_config(write(tmp_path, "requests: {pairs: [[1, 2, 3]]}\n"))
    with pytest.raises(ConfigError, match=r"requests.pairs: node 999 .*8x8 lattice \(line 2\)"):
        load_config(write(tmp_path, "requests:\n  pairs: [[0, 999]]\n"))
    with pytest.raises(ConfigError, match=r"requests.pairs: .*must differ.* \(line 1\)"):
        load_config(write(tmp_path, "requests: {pairs: [[5, 5]]}\n"))


def test_algorithm_subset_validated(tmp_path):
    cfg = load_config(write(tmp_path, "experiment: {algorithms: [PF]}\n"))
    assert cfg.algorithms == ("PF",)
    with pytest.raises(ConfigError, match="experiment.algorithms"):
        load_config(write(tmp_path, "experiment: {algorithms: [XX]}\n"))


def test_duplicate_algorithms_rejected(tmp_path):
    # a repeated name would run and report that algorithm twice
    with pytest.raises(ConfigError,
                       match=r"experiment.algorithms: lists PS more than once \(line 2\)"):
        load_config(write(tmp_path, "experiment:\n  algorithms: [PS, PF, PS]\n"))
    with pytest.raises(ConfigError, match=r"experiment.algorithms: lists PS, PU more than once$"):
        apply_overrides(ExperimentConfig(), algorithms=("PU", "PS", "PU", "PS"))


def test_empty_grid_list_rejected(tmp_path):
    with pytest.raises(ConfigError, match="routing.k"):
        load_config(write(tmp_path, "routing: {k: []}\n"))


def test_boolean_is_not_an_integer():
    with pytest.raises(ConfigError, match="lattice.rows"):
        config_from_mapping({"lattice": {"rows": True}})


def test_flag_overrides_take_precedence(tmp_path):
    cfg = load_config(write(tmp_path, "experiment: {base_seed: 3, replications: 9}\n"))
    out = apply_overrides(cfg, seed=42, algorithms=("PU",), replications=2)
    assert out.base_seed == 42 and out.algorithms == ("PU",) and out.replications == 2
    assert out.provenance["experiment.base_seed"] == "flag"
    assert out.provenance["experiment.replications"] == "flag"
    with pytest.raises(ConfigError, match="experiment.algorithms"):
        apply_overrides(cfg, algorithms=("XX",))
    with pytest.raises(ConfigError, match="experiment.algorithms"):
        apply_overrides(cfg, algorithms=())
    with pytest.raises(ConfigError, match="experiment.replications"):
        apply_overrides(cfg, replications=0)


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"experiment.base_seed: .*below.* \(line 2\)"):
        load_config(write(tmp_path, "experiment:\n  base_seed: -1\n"))
    with pytest.raises(ConfigError, match="experiment.base_seed"):
        apply_overrides(load_config(None), seed=-1)
    assert apply_overrides(load_config(None), seed=0).base_seed == 0


BASELINE = ROOT / "configs" / "baseline.yml"


def _baseline_with(tmp_path, key: str, value: str) -> str:
    """configs/baseline.yml with one routing key set to ``value``."""
    text = BASELINE.read_text()
    assert f"\n  {key}: 1.0\n" in text
    return write(tmp_path, text.replace(f"\n  {key}: 1.0\n", f"\n  {key}: {value}\n"))


@pytest.mark.parametrize("key, value", [("alpha", "1000"), ("alpha", "-1000"),
                                        ("beta", "1000"), ("alpha", "[0.5, 1000, 2.0]")])
def test_overflowing_weight_exponent_exits_1_with_key_and_line(tmp_path, capsys, key, value):
    cfg = _baseline_with(tmp_path, key, value)
    line = 1 + BASELINE.read_text().splitlines().index(f"  {key}: 1.0")
    assert cli.main(["run", "-c", cfg, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"routing.{key}: value " in err and f"(line {line})" in err, err
    assert not (tmp_path / "out").exists()


FLOAT_KEYS = [f"{section}.{key}" for section, rules in _RULES.items()
              for key, rule in rules.items() if isinstance(rule, _Number) and rule.kind is float]
NAN_VALUES = [(path, v) for path in FLOAT_KEYS for v in (".nan", ".inf", "-.inf")] + \
    [(path, "[0.5, .nan]") for path in FLOAT_KEYS if path.startswith("routing.")]


@pytest.mark.parametrize("path, value", NAN_VALUES, ids=[f"{p}={v}" for p, v in NAN_VALUES])
def test_nan_exits_1_with_key_and_line(tmp_path, capsys, path, value):
    # NaN compares false with every bound, and most float keys have no upper
    # bound for inf, so the rule must reject both by name
    section, key = path.split(".")
    cfg = write(tmp_path, f"lattice: {{rows: 4, cols: 4}}\n{section}:\n  {key}: {value}\n")
    assert cli.main(["run", "-c", cfg, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    shown = value.strip("[]").split(", ")[-1].replace(".", "")
    assert f"{path}: expected a number, got {shown} (line 3)" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("alpha", "100"), ("alpha", "-100"),
                                        ("beta", "100"), ("beta", "-100")])
def test_large_weight_exponent_within_the_bound_still_routes(tmp_path, key, value):
    cfg = _baseline_with(tmp_path, key, value)
    assert cli.main(["run", "-c", cfg, "--out-dir", str(tmp_path / "out")]) == 0


def test_weight_exponent_bound_derives_from_the_config():
    # 8x8 lattice, c0 = 100: |x| * log(B) <= log(max float) - 2 log(l_max) - log(c0),
    # with B = 63 for alpha and B = l_max for beta, l_max the grid's largest
    config_from_mapping({"routing": {"alpha": 169}})
    with pytest.raises(ConfigError, match="routing.alpha: value -170.0"):
        config_from_mapping({"routing": {"alpha": -170}})
    config_from_mapping({"routing": {"l_max": 10, "beta": 304}})
    with pytest.raises(ConfigError, match="routing.beta: value 305.0"):
        config_from_mapping({"routing": {"l_max": [2, 10], "beta": [1, 305]}})
    config_from_mapping({"routing": {"l_max": 2, "beta": 305}})
    # a larger c0 leaves less room
    with pytest.raises(ConfigError, match="routing.alpha"):
        config_from_mapping({"scenario": {"c0": 10**30}, "routing": {"alpha": 169}})


def _outside(rule: _Number, side: str):
    """A value just outside one bound of a numeric rule, written so that YAML
    reads it back with the rule's type."""
    bound = rule.lo if side == "lo" else rule.hi
    if rule.kind is int:
        return str(bound - 1 if side == "lo" else bound + 1)
    if side == "lo" and rule.lo_open:
        return repr(float(bound))
    return f"{bound - 1e-6 if side == 'lo' else bound + 1e-6:.6f}"


BOUNDS = [(section, key, side) for section, rules in _RULES.items()
          for key, rule in rules.items() if isinstance(rule, _Number)
          for side in ("lo", "hi") if getattr(rule, side) is not None]


@pytest.mark.parametrize("section,key,side", BOUNDS,
                         ids=[f"{s}.{k}-{side}" for s, k, side in BOUNDS])
def test_value_just_outside_each_bound_names_key_and_line(tmp_path, section, key, side):
    value = _outside(_RULES[section][key], side)
    text = f"# header\n{section}:\n  {key}: {value}\n"
    path = f"{section}.{key}"
    message = rf"^{path}: value .* (below|above) allowed range \(line 3\)$"
    with pytest.raises(ConfigError, match=message) as exc:
        load_config(write(tmp_path, text))
    doc = yaml.safe_load(text)
    lines = {section: 2, path: 3}
    if path == "experiment.base_seed":
        # the parser before the key table had no lower bound on the seed:
        # -1 got through and failed later inside numpy
        assert reference_config_from_mapping(doc, lines).base_seed == -1
    else:
        with pytest.raises(ConfigError) as ref:
            reference_config_from_mapping(doc, lines)
        assert str(exc.value) == str(ref.value)


def _random_document(rng: random.Random) -> dict:
    """A valid document: a random subset of keys with in-range values,
    including grid lists, explicit pairs and ``distance: null``."""
    def number(lo, hi):
        return rng.choice([lo, hi, round(rng.uniform(lo, hi), 3), int(lo)])

    def grid(draw):
        return [draw() for _ in range(rng.randint(1, 4))] if rng.random() < 0.3 else draw()

    rows, cols = rng.randint(2, 9), rng.randint(2, 9)
    pairs = None
    if rng.random() < 0.3:
        pairs = [rng.sample(range(min(rows, 8) * min(cols, 8)), 2)
                 for _ in range(rng.randint(1, 3))]
    candidates = {
        "lattice": {"rows": rows, "cols": cols, "kind": rng.choice(TOPOLOGIES)},
        "scenario": {"c0": rng.randint(1, 500), "f_mean": number(0.0, 1.0),
                     "f_std": number(0.0, 0.3), "f_th": rng.choice([1.0, 1, 0.001, 0.9]),
                     "p_in": number(0.0, 1.0), "p_out": number(0.0, 1.0)},
        "routing": {"k": grid(lambda: rng.randint(1, 12)),
                    "l_max": grid(lambda: rng.randint(1, 12)),
                    "alpha": grid(lambda: number(-2.0, 3.0)),
                    "beta": grid(lambda: number(-2.0, 3.0))},
        "requests": {"count": rng.randint(1, 5),
                     "distance": rng.choice([None, rng.randint(1, 20)]),
                     "pairs": pairs, "demand": rng.randint(1, 20),
                     "weight": rng.choice([5, 0.001, round(rng.uniform(0.01, 5), 3)])},
        "experiment": {"algorithms": rng.sample(ALGORITHMS, rng.randint(1, 3)),
                       "replications": rng.randint(1, 300),
                       # a negative base_seed is the one intended difference from the
                       # reference parser, so only seeds both accept are drawn
                       "base_seed": rng.randint(0, 10**6),
                       "pi1": number(-1.0, 2.0), "pi2": number(-1.0, 2.0),
                       "pi3": number(-1.0, 2.0)},
    }
    if pairs is None:
        del candidates["requests"]["pairs"]
    doc: dict = {}
    for section, keys in candidates.items():
        chosen = [k for k in keys if rng.random() < 0.5]
        if chosen or rng.random() < 0.2:
            doc[section] = {k: keys[k] for k in chosen} or rng.choice([{}, None])
    # drawn requests need their distance (given or default) inside the lattice
    lattice = doc.get("lattice") or {}
    rows, cols = lattice.get("rows", 8), lattice.get("cols", 8)
    requests = doc.get("requests") or {}
    if "pairs" not in requests and (requests.get("distance", 3) or 0) > min(rows, cols) - 1:
        requests["distance"] = rng.choice([None, rng.randint(1, min(rows, cols) - 1)])
        doc["requests"] = requests
    return doc


def test_table_parser_matches_reference_parser():
    rng = random.Random(20201)
    for _ in range(400):
        doc = _random_document(rng)
        text = yaml.safe_dump(doc)
        cfg = config_from_mapping(yaml.safe_load(text))
        ref = reference_config_from_mapping(yaml.safe_load(text))
        assert cfg == ref, text
        # provenance is compare=False, so compare it (and its order) apart;
        # repr also tells an int from an equal float
        assert list(cfg.provenance.items()) == list(ref.provenance.items()), text
        assert repr(cfg) == repr(ref), text


# values on and around every bound in the table, plus wrong types
PROBES = [-1, 0, 1, 2, -1e-6, 0.0, 1e-6, 1.0, 1.000001, 2.5, None, True, "x",
          "hexagonal", [], [1, 0], [[0, 9]], ["PS"]]
KEYS = [f"{section}.{key}" for section, rules in _RULES.items() for key in rules]


@pytest.mark.parametrize("path", KEYS)
def test_single_key_documents_match_reference_parser(path):
    section, key = path.split(".")
    for value in PROBES:
        doc, lines = {section: {key: value}}, {section: 1, path: 2}
        outcomes = []
        for parse in (config_from_mapping, reference_config_from_mapping):
            try:
                outcomes.append(repr(parse(doc, lines)))
            except ConfigError as exc:
                outcomes.append(str(exc))
        if path == "experiment.base_seed" and value == -1:
            # the new lower bound of 0; the reference let -1 through
            assert outcomes[0] == f"{path}: value -1 below allowed range (line 2)"
            continue
        assert outcomes[0] == outcomes[1], value


CONFIG_FILES = sorted((ROOT / "configs").glob("*.yml")) + sorted(
    (ROOT / "winbench" / "configs").glob("*.yml"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.name for p in CONFIG_FILES])
def test_checked_in_configs_load_with_file_provenance(path):
    cfg = load_config(str(path))
    doc = yaml.safe_load(path.read_text()) or {}
    given = {f"{section}.{key}" for section, body in doc.items() for key in (body or {})}
    assert {p for p, src in cfg.provenance.items() if src == "file"} == given
    assert set(cfg.provenance.values()) <= {"file", "default"}


def test_no_config_file_gives_dataclass_defaults():
    cfg = load_config(None)
    assert cfg == ExperimentConfig()
    assert set(cfg.provenance.values()) == {"default"}
