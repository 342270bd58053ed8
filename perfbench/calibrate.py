"""Machine-speed probe that puts timings on a common scale.

On a 2-core host shared with other tenants, the cores' speed
drifts by up to 1.6x for tens of seconds at a time; process CPU time drifts
with wall time, so this is slower execution, not descheduling. Raw wall
times of the same work therefore spread by 20-38% (quartile distance over
median) between runs. The probe times two fixed kernels that belong to the
benchmark, not to tabflow: one bound by the interpreter and small numpy
calls (the mix of the Karplus-Strong loop) and one bound by BLAS (the mix of
conv1d). Their times over REFERENCE_S give the machine's slowdown at that
moment. The runner probes just before and just after every timed interval
and divides the interval's time by the mean slowdown of those probes, which
gives the time at reference speed. A change to tabflow cannot move the
probe, so the scaling cancels only the machine's drift.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel times on an undisturbed 2-core Intel Xeon (numpy 2.4, OpenBLAS 0.3.31,
# one BLAS thread): the lower decile of one minute of probes. They only fix
# the scale; any constant gives the same spread.
REFERENCE_S = {"interp": 0.0267, "blas": 0.0317}

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal(8192)
_TAPS = np.arange(64)
_A = _rng.standard_normal((256, 256))
_B = _rng.standard_normal((256, 256))


def _interp() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        p = _TAPS + (i % 128)
        acc += float((_SIGNAL[p] * 0.3 + _SIGNAL[p + 1] * 0.7).sum())
    return time.perf_counter() - t0


def _blas() -> float:
    t0 = time.perf_counter()
    for _ in range(60):
        _A @ _B
    return time.perf_counter() - t0


def probe() -> float:
    """The machine's slowdown now: kernel time over reference, mean of both."""
    return (_interp() / REFERENCE_S["interp"] + _blas() / REFERENCE_S["blas"]) / 2.0
