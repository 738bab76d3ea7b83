"""Intra-cluster coordination: head election and UE-to-BS scheduling.

The cluster head time-orthogonalizes member transmissions; UE assignment
inside a cluster minimizes the summed member load

    min sum_b rho_b = sum_b sum_m z_bm * c_bm,   c_bm = traffic_m / R_b(x_m)

subject to each UE's assignment fractions summing to 1. The relaxation has
no coupling constraint, so it decouples into a per-UE argmin over c_bm; the
tests check that against a generic LP solver. Members share one exclusion
set, so a UE's cheapest awake member is the one it receives most strongly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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


def rebalance(
    costs: np.ndarray, label: np.ndarray, serving: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Assign every cluster's UEs at once: new serving BS per UE.

    costs is (n_bs, n_ue): the load coefficient c_bm with interference
    frozen, or any price that orders each UE's co-members as c_bm does
    (the negated received power, say). label[b] is BS b's cluster index
    (-1: none). A UE served by a clustered BS moves to the cheapest active
    member of that cluster (the relaxation's optimum is already integral),
    ties to the lowest id; other UEs keep their station.
    """
    lab = label[serving]
    members = (label[:, None] == lab[None, :]) & active[:, None]
    # members all at inf tie with every non-member, so argmin returns
    # station 0; any other argmin is a member, never below the lowest-id one
    choice = np.maximum(np.where(members, costs, np.inf).argmin(axis=0),
                        members.argmax(axis=0))
    return np.where(lab >= 0, choice, serving)
