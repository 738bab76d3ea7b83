"""Intra-cluster coordination: head election and UE-to-BS scheduling.

The cluster head time-orthogonalizes member transmissions; UE assignment
inside a cluster minimizes the summed member load

    min sum_b rho_b = sum_b sum_m z_bm * c_bm,   c_bm = traffic_m / R_b(x_m)

subject to each UE's assignment fractions summing to 1. The relaxation has
no coupling constraint, so it decouples into a per-UE argmin over c_bm; the
tests check that against a generic LP solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class UncoveredUEsError(RuntimeError):
    """A cluster holds UEs but no active member to serve them."""


@dataclass
class Schedule:
    """Fractional and rounded assignment of a cluster's UEs to its members."""

    member_ids: tuple[int, ...]
    ue_ids: tuple[int, ...]
    fractional: np.ndarray  # (n_members, n_ues), columns sum to 1
    binary: np.ndarray  # (n_members, n_ues), one 1 per column
    cluster_load: float  # sum of member loads before clamping
    overload: bool  # cluster_load > 1, time-share infeasible


def elect_head(members: Sequence[int], loads: Sequence[float]) -> int:
    """Cluster head: the member with maximal estimated load, ties to lowest id."""
    if len(members) == 0:
        raise ValueError("cannot elect a head for an empty cluster")
    if len(members) != len(loads):
        raise ValueError("members and loads must align")
    best = None
    best_load = -np.inf
    for b, rho in zip(members, loads):
        if rho > best_load or (rho == best_load and b < best):
            best, best_load = b, rho
    return int(best)


def solve_cluster_schedule(
    costs: np.ndarray,
    member_ids: Sequence[int],
    ue_ids: Sequence[int],
    active: np.ndarray,
) -> Schedule:
    """Assign cluster UEs to active members minimizing the summed load.

    costs[b, m] is the load coefficient of serving UE m from member b, with
    interference frozen at the pre-scheduling loads. Sleeping members cannot
    serve. The fractional optimum puts each UE's whole mass on its cheapest
    active member (ties to the lowest member id); rounding keeps the member
    with the largest fractional value, same tie rule.
    """
    costs = np.asarray(costs, dtype=float)
    active = np.asarray(active, dtype=bool)
    n_b, n_m = costs.shape
    if n_b != len(member_ids) or n_m != len(ue_ids):
        raise ValueError("costs shape must match member_ids x ue_ids")
    if n_m > 0 and not active.any():
        raise UncoveredUEsError(
            f"cluster {tuple(member_ids)} has {n_m} UEs but every member sleeps"
        )

    masked = np.where(active[:, None], costs, np.inf)
    fractional = np.zeros((n_b, n_m))
    if n_m > 0:
        # members are listed in ascending id order, so argmin's first-hit
        # tie-break is the lowest id
        choice = np.argmin(masked, axis=0)
        fractional[choice, np.arange(n_m)] = 1.0
    binary = np.zeros_like(fractional)
    if n_m > 0:
        rounded = np.argmax(fractional, axis=0)
        binary[rounded, np.arange(n_m)] = 1.0
    cluster_load = float(np.sum(binary * np.where(active[:, None], costs, 0.0)))
    return Schedule(
        member_ids=tuple(int(b) for b in member_ids),
        ue_ids=tuple(int(u) for u in ue_ids),
        fractional=fractional,
        binary=binary,
        cluster_load=cluster_load,
        overload=cluster_load > 1.0,
    )


def rebalance(
    costs: np.ndarray, label: np.ndarray, serving: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """solve_cluster_schedule for every cluster at once: new serving BS per UE.

    costs is (n_bs, n_ue); label[b] is BS b's cluster index (-1: none). A UE
    served by a clustered BS moves to the cheapest active member of that
    cluster, ties to the lowest id; other UEs keep their station.
    """
    lab = label[serving]
    members = (label[:, None] == lab[None, :]) & active[:, None]
    choice = np.argmin(np.where(members, costs, np.inf), axis=0)
    return np.where(lab >= 0, choice, serving)
