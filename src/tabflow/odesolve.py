"""Fixed-step Euler and RK4 plus adaptive Dormand-Prince 5(4) integration.

A solver is a name in SOLVERS. "euler" and "rk4" take a given number of
equal steps; "dopri5" adapts its step to the tolerances RTOL and ATOL and
fails past MAX_STEPS accepted and rejected steps. The solver integrates over
t in [0, 1], the time span of rectified flow's transport. States are
arbitrary-shape numpy arrays; the derivative callback receives (t, state)
and returns an array of the same shape, not re-checked here: flowmatch's
velocity raises through the tensor engine's checks. Dormand-Prince uses the
standard 7-stage tableau, reusing first-same-as-last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

SOLVERS = ("euler", "rk4", "dopri5")
RTOL = ATOL = 1e-4
MAX_STEPS = 10000


@dataclass
class OdeTrace:
    """Integration record. f_evals counts the calls of f: euler = steps, rk4 =
    4*steps, dopri5 = 2 (initial-step probe) + 6 per accepted or rejected step."""

    final_state: np.ndarray
    accepted_steps: int
    rejected_steps: int
    f_evals: int


# Dormand-Prince 5(4) tableau
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1/5


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def integrate(f, state0, solver: str, steps: int) -> OdeTrace:
    """Integrate dy/dt = f(t, y) from t = 0 to t = 1 with the named solver of
    SOLVERS and return the state at 1; dopri5 ignores steps."""
    y = np.array(state0, copy=True)

    if solver == "euler":
        h = 1.0 / steps
        for i in range(steps):
            y = y + h * f(i * h, y)
        return OdeTrace(y, steps, 0, steps)

    if solver == "rk4":
        h = 1.0 / steps
        for i in range(steps):
            t = i * h
            k1 = f(t, y)
            k2 = f(t + h / 2, y + (h / 2) * k1)
            k3 = f(t + h / 2, y + (h / 2) * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return OdeTrace(y, steps, 0, 4 * steps)

    return _dopri5(f, y)


def _initial_step(f, y0, f0) -> float:
    sc = ATOL + RTOL * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = f(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, 1.0)


def _dopri5(f, y) -> OdeTrace:
    t = 0.0
    k1 = f(t, y)
    h = _initial_step(f, y, k1)
    accepted = rejected = 0
    k = [k1] + [None] * 6

    while t < 1.0:
        h = min(h, 1.0 - t)
        for i in range(6):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]) if a != 0.0)
            k[i + 1] = f(t + _C[i] * h, yi)
        # first-same-as-last: row _A[5] is the 5th-order weights, so the sixth
        # stage's state is the step's solution, summed in the same order
        y_new = yi
        err_vec = h * sum(e * k[j] for j, e in enumerate(_ERR) if e != 0.0)
        scale_ = ATOL + RTOL * np.maximum(np.abs(y_new), np.abs(y_new - err_vec))
        err = _rms(err_vec / scale_)

        if err <= 1.0:
            accepted += 1
            t = 1.0 if h >= (1.0 - t) else t + h
            y = y_new
            k[0] = k[6]  # first-same-as-last
        else:
            rejected += 1
        if accepted + rejected > MAX_STEPS:
            raise NumericError(f"dopri5 exceeded {MAX_STEPS} steps at t={t:.6g}")
        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-_ORDER_EXP)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    return OdeTrace(y, accepted, rejected, 2 + 6 * (accepted + rejected))
