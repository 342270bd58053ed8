import hashlib
from dataclasses import replace

import numpy as np
import pytest

from tabflow.config import load_config
from tabflow.errors import NumericError
from tabflow.odesolve import Dopri5, Euler, RK4, integrate

# dopri5 at the configured rtol, atol and max_steps
DOPRI5 = load_config().solver()


def exp_field(t, y):
    return y


def convergence_order(f, state0, exact_final, solver, base_steps: int = 64) -> float:
    """Measured order of a fixed-step solver class (Euler or RK4): log2 of
    the final-error ratio between N and 2N steps."""
    def error(steps):
        final = integrate(f, state0, solver(steps)).final_state
        return float(np.sqrt(np.mean(np.square(final - exact_final))))
    e1, e2 = error(base_steps), error(2 * base_steps)
    if e2 == 0.0:
        return float("inf")
    return float(np.log2(e1 / e2))


def test_zero_field_returns_initial_state():
    y0 = np.array([1.5, -2.0, 0.25])
    for solver in (Euler(10), RK4(10), DOPRI5):
        trace = integrate(lambda t, y: np.zeros_like(y), y0, solver)
        assert np.array_equal(trace.final_state, y0)


def test_euler_100_steps_matches_compound_product():
    trace = integrate(exp_field, np.array(1.0), Euler(100))
    assert float(trace.final_state) == pytest.approx((1 + 0.01) ** 100, rel=1e-12)
    assert float(trace.final_state) == pytest.approx(2.704814, abs=1e-6)


def test_dopri5_tight_tolerance_hits_e():
    trace = integrate(exp_field, np.array(1.0), replace(DOPRI5, rtol=1e-6, atol=1e-6))
    assert abs(float(trace.final_state) - np.e) < 1e-6


def test_constant_field_transports_exactly_for_all_solvers():
    c = np.array([2.5, -1.25])
    y0 = np.array([1.0, 3.0])
    for solver in (Euler(1), Euler(37), RK4(5), DOPRI5):
        trace = integrate(lambda t, y: c, y0, solver)
        np.testing.assert_allclose(trace.final_state, y0 + c, rtol=0, atol=1e-12)


def test_euler_convergence_order_near_one():
    order = convergence_order(exp_field, np.array(1.0), np.e, Euler, 128)
    assert 0.9 <= order <= 1.1


def test_rk4_convergence_order_near_four():
    order = convergence_order(exp_field, np.array(1.0), np.e, RK4, 32)
    assert 3.7 <= order <= 4.3


def test_fixed_step_eval_counts():
    assert integrate(exp_field, np.array(1.0), Euler(17)).f_evals == 17
    assert integrate(exp_field, np.array(1.0), RK4(9)).f_evals == 36


def test_dopri5_eval_count_consistent_with_fsal():
    trace = integrate(exp_field, np.array(1.0), replace(DOPRI5, rtol=1e-6, atol=1e-6))
    assert trace.f_evals == 2 + 6 * (trace.accepted_steps + trace.rejected_steps)


def test_dopri5_tightening_tolerance_never_hurts():
    errors = []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7):
        trace = integrate(exp_field, np.array(1.0), replace(DOPRI5, rtol=tol, atol=tol))
        errors.append(abs(float(trace.final_state) - np.e))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_harmonic_oscillator_time_reversal():
    def ho(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    forward = integrate(ho, y0, DOPRI5).final_state
    back = integrate(lambda t, y: -ho(t, y), forward, DOPRI5).final_state
    assert np.abs(back - y0).max() < 1e-3


def _ring_field(t, y):
    """A nonlinear field on a [16, 5] state from elementwise arithmetic and
    np.roll alone, so no BLAS or libm kernel choice can move its bits."""
    ring = np.roll(y, 1, axis=0) - np.roll(y, -1, axis=1)
    return 4.0 * ring * (1.0 - y * y) / (1.0 + y * y) - 2.0 * y + 3.0 * t * (1.0 - t)


# (tolerance, sha256 of final_state, accepted, rejected, network calls); each
# tolerance rejects a step, so the step-size control is pinned as well
@pytest.mark.parametrize("tol, digest, accepted, rejected, calls", [
    (1e-4, "b879d1a5678f4736d5b57f41674e229b63f008e6a759b940e76859436f425ae5", 8, 3, 68),
    (1e-8, "1f2e503b9272644355d4ec90db81585254af74f94d2302e0b74bce8f4767e3b8", 38, 1, 236),
])
def test_dopri5_golden(tol, digest, accepted, rejected, calls):
    y0 = np.linspace(-1.5, 1.5, 80).reshape(16, 5)
    trace = integrate(_ring_field, y0, Dopri5(tol, tol, 1000))
    assert hashlib.sha256(trace.final_state.tobytes()).hexdigest() == digest
    assert (trace.accepted_steps, trace.rejected_steps, trace.f_evals) == (
        accepted, rejected, calls)


def test_max_steps_exceeded_raises():
    with pytest.raises(NumericError, match="exceeded"):
        integrate(lambda t, y: 1000.0 * y, np.array(1.0), Dopri5(1e-12, 1e-14, max_steps=3))


def test_non_finite_derivative_reported_with_time():
    def bad(t, y):
        with np.errstate(divide="ignore"):  # the pole at t = 0.5 is the point
            return y / (0.5 - t)

    with pytest.raises(NumericError, match="non-finite derivative at t="):
        integrate(bad, np.array(1.0), Euler(2))


def test_dopri5_final_time_exact():
    seen = []

    def f(t, y):
        seen.append(t)
        return np.array(1.0)

    trace = integrate(f, np.array(0.0), DOPRI5)
    assert float(trace.final_state) == pytest.approx(1.0, abs=1e-12)
    assert max(seen) <= 1.0 + 1e-12


def test_solver_parameter_validation():
    with pytest.raises(NumericError):
        Euler(0)
    with pytest.raises(NumericError):
        replace(DOPRI5, rtol=0.0)


@pytest.mark.parametrize("kwargs", [{"rtol": float("nan")}, {"atol": float("nan")},
                                    {"rtol": float("inf")}, {"atol": float("inf")},
                                    {"max_steps": 0}])
def test_dopri5_rejects_non_finite_tolerances_and_no_steps(kwargs):
    with pytest.raises(NumericError):
        replace(DOPRI5, **kwargs)
