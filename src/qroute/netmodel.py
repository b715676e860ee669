"""Lattice topologies, stochastic edge initialization, topology revision, and requests."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import compress
from operator import not_
from typing import NamedTuple

import numpy as np

TOPOLOGIES = ("square", "hexagonal", "triangular")

#: canonical edge key: (smaller node id, larger node id)
Edge = tuple[int, int]


class InvariantError(RuntimeError):
    """A pipeline invariant failed; raised, not asserted, so it holds under -O."""


def node_id(x: int, y: int, cols: int) -> int:
    return y * cols + x


def node_xy(node: int, cols: int) -> tuple[int, int]:
    return node % cols, node // cols


def node_label(node: int, cols: int) -> str:
    """Two-digit display label, horizontal coordinate first (node 'xy')."""
    x, y = node_xy(node, cols)
    return f"{x}{y}"


class EdgeMasks(NamedTuple):
    """Bitset view of a network's active edges, with node n as bit n.

    ``offsets`` holds one ``(offset, mask)`` pair per edge offset v - u in
    ascending order (1 and cols on square and hexagonal lattices, plus
    cols + 1 on triangular ones); bit n of ``mask`` is set iff edge
    (n, n + offset) is active. ``neighbours[n]`` has the bits of n's
    neighbours over active edges.
    """

    offsets: tuple[tuple[int, int], ...]
    neighbours: tuple[int, ...]


class LatticeIndex(NamedTuple):
    """What a network's edge tuple fixes, whatever the edges' state: the
    edge masks with every edge active, per node a map from each neighbour
    to the index of their edge in the tuple, and the lattice's own k
    shortest paths that ``pathfinder.k_shortest_paths`` has found."""

    masks: EdgeMasks
    edge_index: tuple[dict[int, int], ...]
    #: (s, t, k) -> (the indices of the edges the paths cross, the paths)
    paths: dict[tuple[int, int, int], tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]


@lru_cache(maxsize=8)
def _lattice_index(edges: tuple[Edge, ...], node_count: int) -> LatticeIndex:
    """One ``LatticeIndex`` per edge tuple and node count; every stage of a
    window shares its lattice's edge tuple, so windows share one."""
    by_offset: dict[int, int] = {}
    neighbours = [0] * node_count
    edge_index: list[dict[int, int]] = [{} for _ in range(node_count)]
    for j, (u, v) in enumerate(edges):
        by_offset[v - u] = by_offset.get(v - u, 0) | 1 << u
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
        edge_index[u][v] = edge_index[v][u] = j
    return LatticeIndex(EdgeMasks(tuple(sorted(by_offset.items())), tuple(neighbours)),
                        tuple(edge_index), {})


@dataclass
class ScenarioParams:
    """Global quantum-layer parameters for one processing window."""

    c0: int = 100
    f_mean: float = 0.8
    f_std: float = 0.1
    f_th: float = 0.8
    p_in: float = 0.9
    p_out: float = 0.8

    def __post_init__(self) -> None:
        if self.c0 < 1:
            raise ValueError(f"c0 must be >= 1, got {self.c0}")
        if self.f_std < 0:
            raise ValueError(f"f_std must be >= 0, got {self.f_std}")
        if not 0.0 <= self.f_mean <= 1.0:
            raise ValueError(f"f_mean must be in [0, 1], got {self.f_mean}")
        if not 0.0 < self.f_th <= 1.0:
            raise ValueError(f"f_th must be in (0, 1], got {self.f_th}")
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class Request:
    """Connection request r = [s, t] with demand and scheduling weight."""

    id: int
    source: int
    terminal: int
    demand: int = 10
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.source == self.terminal:
            raise ValueError("source and terminal must differ")
        if self.demand < 1:
            raise ValueError(f"demand must be >= 1, got {self.demand}")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class Network:
    """Lattice network at one stage of the window; stages return new networks.

    ``edges`` is the sorted edge tuple of ``build_lattice``, shared by every
    later stage; ``capacity``, ``fidelity`` and ``active`` are aligned with
    it. After initialization, capacity 0 implies the edge is inactive and an
    active edge has capacity >= 1. ``phase`` tracks the window lifecycle:
    raw -> initialized -> purified.
    """

    rows: int
    cols: int
    kind: str
    edges: tuple[Edge, ...]
    capacity: tuple[int, ...]
    fidelity: tuple[float, ...]
    active: tuple[bool, ...]
    phase: str = "raw"

    def __post_init__(self) -> None:
        n = len(self.edges)
        if not len(self.capacity) == len(self.fidelity) == len(self.active) == n:
            raise ValueError("capacity, fidelity and active must align with edges")

    @property
    def node_count(self) -> int:
        return self.rows * self.cols

    # derived views, computed once per network; callers must not mutate them

    def active_edges(self) -> tuple[Edge, ...]:
        return self._active_edges

    def capacity_map(self) -> dict[Edge, int]:
        """Capacities of active edges only."""
        return self._capacity_map

    def edge_masks(self) -> EdgeMasks:
        """Active edges as per-offset and per-node bitmasks."""
        return self._edge_masks

    def lattice(self) -> LatticeIndex:
        """What ``edges`` fixes, whatever the edges' state, shared by every
        network on the same edges."""
        return self._lattice

    @cached_property
    def _capacity_map(self) -> dict[Edge, int]:
        return {e: c for e, c, on in zip(self.edges, self.capacity, self.active) if on}

    @cached_property
    def _active_edges(self) -> tuple[Edge, ...]:
        return tuple(self._capacity_map)

    @cached_property
    def _lattice(self) -> LatticeIndex:
        return _lattice_index(self.edges, self.node_count)

    @cached_property
    def _edge_masks(self) -> EdgeMasks:
        """The lattice's masks with the bits of the inactive edges cleared;
        an offset class left empty is dropped, as if built from the active
        edges alone."""
        masks = self._lattice.masks
        inactive = list(compress(self.edges, map(not_, self.active)))
        if not inactive:
            return masks
        by_offset = dict(masks.offsets)
        neighbours = list(masks.neighbours)
        for u, v in inactive:
            by_offset[v - u] &= ~(1 << u)
            neighbours[u] &= ~(1 << v)
            neighbours[v] &= ~(1 << u)
        return EdgeMasks(tuple((off, mask) for off, mask in by_offset.items() if mask),
                         tuple(neighbours))


@lru_cache(maxsize=8)
def build_lattice(rows: int, cols: int, kind: str = "square") -> Network:
    """Construct a raw lattice with all edges active and state unset.

    Square is the plain grid; hexagonal is the degree-3 brick-wall variant
    (vertical rungs only where x+y is even); triangular augments the square
    grid with one down-right diagonal per cell (degree 6 in the interior).
    The network is frozen and every later stage returns a new one, so one
    cached object per argument tuple serves every window.
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"lattice dimensions must be >= 2, got {rows}x{cols}")
    if kind not in TOPOLOGIES:
        raise ValueError(f"unknown topology kind {kind!r}, expected one of {TOPOLOGIES}")
    pairs: list[Edge] = []
    for y in range(rows):
        for x in range(cols):
            n = node_id(x, y, cols)
            if x + 1 < cols:
                pairs.append((n, node_id(x + 1, y, cols)))
            if y + 1 < rows and (kind != "hexagonal" or (x + y) % 2 == 0):
                pairs.append((n, node_id(x, y + 1, cols)))
            if kind == "triangular" and x + 1 < cols and y + 1 < rows:
                pairs.append((n, node_id(x + 1, y + 1, cols)))
    n = len(pairs)
    return Network(rows, cols, kind, tuple(sorted(pairs)), (0,) * n, (0.0,) * n,
                   (True,) * n, "raw")


def sample_edge_states(net: Network, params: ScenarioParams,
                       rng: np.random.Generator) -> Network:
    """Draw realized capacities and fidelities for every edge.

    Capacity is Binomial(C0, p_out) per edge (independent pair attempts);
    fidelity is Normal(F_mean, F_std) clipped into [0, 1]. Edges that realize
    zero capacity are deactivated.
    """
    if net.phase != "raw":
        raise ValueError(f"sample_edge_states requires a raw network, got phase {net.phase!r}")
    n_edges = len(net.edges)
    caps = rng.binomial(params.c0, params.p_out, size=n_edges)
    fids = np.clip(rng.normal(params.f_mean, params.f_std, size=n_edges), 0.0, 1.0)
    capacity = tuple(caps.tolist())
    return replace(net, capacity=capacity, fidelity=tuple(fids.tolist()),
                   active=tuple(c > 0 for c in capacity), phase="initialized")


def deactivate_low_capacity_edges(net: Network, l_max: int) -> Network:
    """Remove edges that cannot host l_max paths with one channel each (G -> G')."""
    if net.phase != "purified":
        raise ValueError(f"deactivation runs on a purified network, got phase {net.phase!r}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    return replace(net, active=tuple(on and c >= l_max
                                     for c, on in zip(net.capacity, net.active)))


def inject_failures(net: Network, mode: str, count: int,
                    utilized, rng: np.random.Generator) -> Network:
    """Deactivate ``count`` uniformly-drawn utilized elements without replacement.

    ``utilized`` holds edge keys for mode "edge" and node ids for mode "node";
    a failed node takes down every incident edge.
    """
    if mode not in ("edge", "node"):
        raise ValueError(f"mode must be 'edge' or 'node', got {mode!r}")
    if count < 1:
        raise ValueError(f"failure count must be >= 1, got {count}")
    targets = sorted(utilized)
    if count > len(targets):
        raise ValueError(f"cannot fail {count} of {len(targets)} utilized {mode}s")
    picks = rng.choice(len(targets), size=count, replace=False)
    chosen = {targets[int(i)] for i in picks}
    if mode == "edge":
        failed = [e in chosen for e in net.edges]
    else:
        failed = [u in chosen or v in chosen for u, v in net.edges]
    return replace(net, active=tuple(on and not f for on, f in zip(net.active, failed)))


@lru_cache(maxsize=8)
def _offset_pairs(rows: int, cols: int, distance: int) -> tuple[tuple[int, int], ...]:
    """Every (s, t) node pair at lattice offset (+-distance, +-distance), in
    the order requests are drawn from; one tuple per lattice shape."""
    pairs = []
    for sy in range(rows):
        for sx in range(cols):
            for dy in (-distance, distance):
                for dx in (-distance, distance):
                    tx, ty = sx + dx, sy + dy
                    if 0 <= tx < cols and 0 <= ty < rows:
                        pairs.append((node_id(sx, sy, cols), node_id(tx, ty, cols)))
    return tuple(pairs)


def distance_error(distance: int, rows: int, cols: int) -> str | None:
    """Why drawn requests cannot sit at lattice offset (distance, distance)
    in a rows x cols lattice, or None when they can."""
    if not 1 <= distance <= min(rows, cols) - 1:
        return f"no node pair at offset ({distance}, {distance}) in a {rows}x{cols} lattice"
    return None


def generate_requests(net: Network, count: int, distance: int | None,
                      rng: np.random.Generator, demand: int = 10,
                      weight: float = 1.0) -> list[Request]:
    """Draw connection requests; duplicates of s, t, or [s, t] are permitted.

    When ``distance`` is given, pairs satisfy |dx| = |dy| = distance in lattice
    coordinates; otherwise arbitrary distinct node pairs are drawn.
    """
    if count < 1:
        raise ValueError(f"request count must be >= 1, got {count}")
    requests: list[Request] = []
    if distance is not None:
        reason = distance_error(distance, net.rows, net.cols)
        if reason:
            raise ValueError(reason)
        pairs = _offset_pairs(net.rows, net.cols, distance)
        for i in range(count):
            s, t = pairs[int(rng.integers(len(pairs)))]
            requests.append(Request(i, s, t, demand, weight))
    else:
        n_nodes = net.node_count
        for i in range(count):
            s = int(rng.integers(n_nodes))
            t = int(rng.integers(n_nodes))
            while t == s:
                t = int(rng.integers(n_nodes))
            requests.append(Request(i, s, t, demand, weight))
    return requests
