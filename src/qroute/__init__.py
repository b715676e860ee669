"""qroute: entanglement routing simulator for lattice quantum-repeater networks."""

from .netmodel import (Edge, InvariantError, Network, Request,
                       ScenarioParams, build_lattice, deactivate_low_capacity_edges,
                       generate_requests, inject_failures, sample_edge_states)
from .purification import PurificationOutcome, pump_fidelity, purify_edge, purify_network
from .pathfinder import (Path, PathKey, PathSet, build_path_info, k_shortest_paths,
                         truncate_edge_paths)
from .scheduler import (ALGORITHMS, RoutingOutcome, RoutingParams, ScheduleTable,
                        compute_f_min, flow_determination, progressive_filling,
                        propagatory_update, proportional_share, run_algorithm,
                        two_stage_weights)
from .metrics import MetricsReport, evaluate, jain_paths, jain_requests, min_flow
from .metrics import throughput, utilization_stats, stretch_factor, evaluate_demand
from .harness import (ExperimentConfig, ObjectiveWeights, RequestSpec,
                      TrialRecord, failure_experiment, grid_search_parameters,
                      replicate, request_sweep, run_trial, swap_monte_carlo,
                      sweep_reports)
from .config import ConfigError, load_config

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ConfigError", "Edge", "ExperimentConfig",
    "InvariantError", "MetricsReport", "Network", "ObjectiveWeights", "Path",
    "PathKey", "PathSet", "PurificationOutcome", "Request",
    "RequestSpec", "RoutingOutcome", "RoutingParams", "ScenarioParams",
    "ScheduleTable", "TrialRecord", "build_lattice",
    "build_path_info", "compute_f_min", "deactivate_low_capacity_edges",
    "evaluate", "evaluate_demand", "failure_experiment", "flow_determination",
    "generate_requests", "grid_search_parameters", "inject_failures",
    "jain_paths", "jain_requests", "k_shortest_paths", "load_config",
    "min_flow", "progressive_filling", "propagatory_update",
    "proportional_share", "pump_fidelity", "purify_edge", "purify_network",
    "replicate", "request_sweep", "run_algorithm", "run_trial",
    "sample_edge_states", "stretch_factor", "swap_monte_carlo", "sweep_reports",
    "throughput",
    "truncate_edge_paths", "two_stage_weights", "utilization_stats",
]
