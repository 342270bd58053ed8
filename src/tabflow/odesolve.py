"""Fixed-step Euler and RK4 plus adaptive Dormand-Prince 5(4) integration.

The solver integrates over t in [0, 1], the time span of rectified flow's
transport. States are arbitrary-shape numpy arrays; the derivative callback
receives (t, state) and returns an array of the same shape. Dormand-Prince
uses the standard 7-stage tableau with the first-same-as-last evaluation
reused across accepted steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class Euler:
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise NumericError("steps must be >= 1")


@dataclass(frozen=True)
class RK4:
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise NumericError("steps must be >= 1")


@dataclass(frozen=True)
class Dopri5:
    rtol: float
    atol: float
    max_steps: int

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):  # NaN fails too
            raise NumericError("rtol and atol must be finite and > 0")
        if self.max_steps < 1:
            raise NumericError("max_steps must be >= 1")


SolverKind = Euler | RK4 | Dopri5


@dataclass
class OdeTrace:
    """Integration record. f_evals is exact: Euler = steps, RK4 = 4*steps,
    Dopri5 = 2 (initial-step probe) + 6 per accepted or rejected step."""

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


class _Counted:
    def __init__(self, f):
        self.f = f
        self.evals = 0

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        self.evals += 1
        dy = np.asarray(self.f(t, y))
        if not np.all(np.isfinite(dy)):
            raise NumericError(f"non-finite derivative at t={t:.6g}")
        return dy


def integrate(f, state0, solver: SolverKind) -> OdeTrace:
    """Integrate dy/dt = f(t, y) from t = 0 to t = 1 and return the state at 1."""
    y = np.array(state0, copy=True)
    if not np.all(np.isfinite(y)):
        raise NumericError("initial state is not finite")
    cf = _Counted(f)

    if isinstance(solver, Euler):
        h = 1.0 / solver.steps
        for i in range(solver.steps):
            y = y + h * cf(i * h, y)
        return OdeTrace(y, solver.steps, 0, cf.evals)

    if isinstance(solver, RK4):
        h = 1.0 / solver.steps
        for i in range(solver.steps):
            t = i * h
            k1 = cf(t, y)
            k2 = cf(t + h / 2, y + (h / 2) * k1)
            k3 = cf(t + h / 2, y + (h / 2) * k2)
            k4 = cf(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return OdeTrace(y, solver.steps, 0, cf.evals)

    return _dopri5(cf, y, solver)


def _initial_step(cf, y0, f0, rtol, atol) -> float:
    sc = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = cf(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, 1.0)


def _dopri5(cf, y, solver: Dopri5) -> OdeTrace:
    rtol, atol = solver.rtol, solver.atol
    t = 0.0
    k1 = cf(t, y)
    h = _initial_step(cf, y, k1, rtol, atol)
    accepted = rejected = 0
    k = [k1] + [None] * 6

    while t < 1.0:
        h = min(h, 1.0 - t)
        for i in range(6):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]) if a != 0.0)
            k[i + 1] = cf(t + _C[i] * h, yi)
        # first-same-as-last: row _A[5] is the 5th-order weights, so the sixth
        # stage's state is the step's solution, summed in the same order
        y_new = yi
        err_vec = h * sum(e * k[j] for j, e in enumerate(_ERR) if e != 0.0)
        scale_ = atol + rtol * np.maximum(np.abs(y_new), np.abs(y_new - err_vec))
        err = _rms(err_vec / scale_)

        if err <= 1.0:
            accepted += 1
            t = 1.0 if h >= (1.0 - t) else t + h
            y = y_new
            k[0] = k[6]  # first-same-as-last
        else:
            rejected += 1
        if accepted + rejected > solver.max_steps:
            raise NumericError(f"dopri5 exceeded {solver.max_steps} steps at t={t:.6g}")
        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-_ORDER_EXP)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    return OdeTrace(y, accepted, rejected, cf.evals)
