"""qroute: entanglement routing simulator for lattice quantum-repeater networks."""

from .netmodel import (Edge, InvariantError, Network, Request,
                       ScenarioParams, build_lattice, deactivate_low_capacity_edges,
                       generate_requests, inject_failures, sample_edge_states)
from .purification import pump_fidelity, purify_network
from .pathfinder import (PathKey, PathSet, build_path_info, k_shortest_paths,
                         truncate_edge_paths)
from .scheduler import (ALGORITHMS, RoutingOutcome, RoutingParams,
                        compute_f_min, run_algorithm, two_stage_weights)
from .metrics import MetricsReport, evaluate, throughput
from .harness import (ExperimentConfig, ObjectiveWeights, RequestSpec,
                      TrialRecord, failure_experiment, grid_search_parameters,
                      replicate, request_sweep, run_trial, swap_monte_carlo,
                      sweep_reports)
from .config import ConfigError, load_config

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ConfigError", "Edge", "ExperimentConfig",
    "InvariantError", "MetricsReport", "Network", "ObjectiveWeights",
    "PathKey", "PathSet", "Request",
    "RequestSpec", "RoutingOutcome", "RoutingParams", "ScenarioParams",
    "TrialRecord", "build_lattice",
    "build_path_info", "compute_f_min", "deactivate_low_capacity_edges",
    "evaluate", "failure_experiment",
    "generate_requests", "grid_search_parameters", "inject_failures",
    "k_shortest_paths", "load_config", "pump_fidelity", "purify_network",
    "replicate", "request_sweep", "run_algorithm", "run_trial",
    "sample_edge_states", "swap_monte_carlo", "sweep_reports",
    "throughput",
    "truncate_edge_paths", "two_stage_weights",
]
