"""Load-aware user association and slow load estimation.

Each UE picks the active station maximizing

    (1 - rho_hat_b)^delta * p_rx_b

where p_rx_b is the received power and rho_hat_b the station's slowly
tracked load estimate. delta = 0 recovers plain strongest-signal (RSSI)
association. Estimates follow a standard decreasing-gain recursion

    rho_hat += nu(t) * (rho(t-1) - rho_hat),    nu(t) = 1 / t^0.9
"""

from __future__ import annotations

import numpy as np


def associate_all(
    rx_power: np.ndarray,
    state: np.ndarray,
    rho_hat: np.ndarray,
    delta: float = 1.0,
) -> np.ndarray:
    """Serving station index per UE; rx_power is (stations, UEs).

    Scores active stations by (1 - rho_hat)^delta * rx_power; ties break by
    raw received power, then by lowest station index. Raises ValueError
    when every station sleeps.
    """
    rx_power = np.asarray(rx_power, dtype=float)
    state = np.asarray(state)
    rho_hat = np.asarray(rho_hat, dtype=float)
    if not np.count_nonzero(state):
        raise ValueError("every station is asleep: no UE can be served")
    # 0^0 = 1 under numpy power, so delta = 0 degrades cleanly to RSSI even
    # at a fully loaded station
    scores = np.power(1.0 - rho_hat, delta)[:, None] * rx_power
    scores[state == 0] = -np.inf
    tied = scores == scores.max(axis=0)
    if np.count_nonzero(tied) == tied.shape[1]:  # one best station per UE
        return tied.argmax(axis=0)
    # among the stations at the best score, the strongest raw signal;
    # argmax then keeps the lowest index
    return np.where(tied, rx_power, -np.inf).argmax(axis=0)


def update_load_estimate(
    rho_hat: np.ndarray, rho_prev: np.ndarray, t: int, nu_exponent: float = 0.9
) -> None:
    """One in-place step of the float array rho_hat at time t >= 1, fed
    with the float array of the previous step's loads."""
    if t < 1:
        raise ValueError("time index starts at 1")
    step = rho_prev - rho_hat
    step *= 1.0 / t**nu_exponent
    rho_hat += step
