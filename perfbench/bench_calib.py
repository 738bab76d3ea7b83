"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same code runs up to ~1.7x slower
for seconds at a time. `kernel_ms` times a fixed, benchmark-owned kernel
of small numpy operations (the same kind of work as the simulator's step)
so the benchmark can measure the host's speed right before and after each
run. A timing t taken while the kernel needed k ms is reported as
t * REFERENCE_MS / k: the time the work would take on a host where the
kernel takes REFERENCE_MS. The kernel never calls the simulator, so a
change to the simulator cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median kernel time on the 2-core x86-64 host the benchmark was defined on
REFERENCE_MS = 2.5

_rng = np.random.default_rng(20261017)
_GAINS = _rng.random((11, 75))
_POWER = _rng.random(11)


def kernel_ms() -> float:
    """Host ms of one pass of the calibration kernel."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(200):
        total = _POWER @ _GAINS
        excluded = (_GAINS * _POWER[:, None]) @ _GAINS.T
        rates = np.log2(1.0 + _GAINS / (total[None, :] + 1.0))
        acc += float(rates.sum()) + float(excluded[0, 0])
    return (perf_counter() - t0) * 1e3
