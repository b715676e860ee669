import pytest

from qroute.config import ConfigError, apply_overrides, config_from_mapping, load_config


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
    with pytest.raises(ConfigError):
        apply_overrides(cfg, algorithms=("XX",))
