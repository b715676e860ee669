"""Entanglement purification: trade edge capacity for fidelity until a threshold holds."""
from __future__ import annotations

from dataclasses import replace

from .netmodel import InvariantError, Network


def pump_fidelity(f: float) -> float:
    """One two-to-one purification round: F -> F^2 / (F^2 + (1-F)^2).

    Monotone increasing toward 1 for F > 0.5; 0.5 and the endpoints are
    fixed points.
    """
    good = f * f
    return good / (good + (1.0 - f) * (1.0 - f))


def _purify(fidelity: float, capacity: int, f_th: float) -> tuple[float, int, int]:
    """The purification rule as ``(fidelity, capacity, rounds)``: halve the
    capacity and pump the fidelity once per round until it reaches f_th or
    fewer than two pairs are left; an edge still below f_th ends with zero
    capacity. ``purify_network`` runs it on every active edge."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    f, c, rounds = fidelity, capacity, 0
    while f < f_th and c >= 2:
        c //= 2
        f = pump_fidelity(f)
        rounds += 1
    return f, 0 if f < f_th else c, rounds


def purify_network(net: Network, f_th: float) -> Network:
    """Apply the purification rule to every active edge; zero-capacity edges
    are deactivated."""
    if net.phase != "initialized":
        raise ValueError(f"purification runs on an initialized network, got phase {net.phase!r}")
    capacity, fidelity, active = [], [], []
    for e, c, f, on in zip(net.edges, net.capacity, net.fidelity, net.active):
        if on:
            f, c, _ = _purify(f, c, f_th)
            on = c > 0
            if on and f < f_th:
                raise InvariantError(f"edge {e} kept at fidelity {f} below f_th {f_th}")
        capacity.append(c)
        fidelity.append(f)
        active.append(on)
    return replace(net, capacity=tuple(capacity), fidelity=tuple(fidelity),
                   active=tuple(active), phase="purified")
