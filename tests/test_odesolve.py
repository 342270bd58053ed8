import hashlib

import numpy as np
import pytest

from tabflow import odesolve
from tabflow.errors import NumericError
from tabflow.odesolve import integrate


@pytest.fixture()
def tolerance(monkeypatch):
    """Sets dopri5's RTOL and ATOL to one value for the test."""
    def set_to(tol):
        monkeypatch.setattr(odesolve, "RTOL", tol)
        monkeypatch.setattr(odesolve, "ATOL", tol)
    return set_to


def exp_field(t, y):
    return y


def convergence_order(f, state0, exact_final, solver, base_steps: int = 64) -> float:
    """Measured order of a fixed-step solver ("euler" or "rk4"): log2 of
    the final-error ratio between N and 2N steps."""
    def error(steps):
        final = integrate(f, state0, solver, steps).final_state
        return float(np.sqrt(np.mean(np.square(final - exact_final))))
    e1, e2 = error(base_steps), error(2 * base_steps)
    if e2 == 0.0:
        return float("inf")
    return float(np.log2(e1 / e2))


def test_zero_field_returns_initial_state():
    y0 = np.array([1.5, -2.0, 0.25])
    for solver in odesolve.SOLVERS:
        trace = integrate(lambda t, y: np.zeros_like(y), y0, solver, 10)
        assert np.array_equal(trace.final_state, y0)


def test_euler_100_steps_matches_compound_product():
    trace = integrate(exp_field, np.array(1.0), "euler", 100)
    assert float(trace.final_state) == pytest.approx((1 + 0.01) ** 100, rel=1e-12)
    assert float(trace.final_state) == pytest.approx(2.704814, abs=1e-6)


def test_dopri5_tight_tolerance_hits_e(tolerance):
    tolerance(1e-6)
    trace = integrate(exp_field, np.array(1.0), "dopri5", 100)
    assert abs(float(trace.final_state) - np.e) < 1e-6


def test_constant_field_transports_exactly_for_all_solvers():
    c = np.array([2.5, -1.25])
    y0 = np.array([1.0, 3.0])
    for solver, steps in (("euler", 1), ("euler", 37), ("rk4", 5), ("dopri5", 100)):
        trace = integrate(lambda t, y: c, y0, solver, steps)
        np.testing.assert_allclose(trace.final_state, y0 + c, rtol=0, atol=1e-12)


def test_euler_convergence_order_near_one():
    order = convergence_order(exp_field, np.array(1.0), np.e, "euler", 128)
    assert 0.9 <= order <= 1.1


def test_rk4_convergence_order_near_four():
    order = convergence_order(exp_field, np.array(1.0), np.e, "rk4", 32)
    assert 3.7 <= order <= 4.3


def _counting(f):
    """f, and a list that gets one entry per call of it."""
    calls = []

    def counted(t, y):
        calls.append(t)
        return f(t, y)
    return counted, calls


def test_fixed_step_eval_counts():
    for solver, steps, want in (("euler", 17, 17), ("rk4", 9, 36)):
        f, calls = _counting(exp_field)
        assert integrate(f, np.array(1.0), solver, steps).f_evals == len(calls) == want


def test_dopri5_eval_count_consistent_with_fsal(tolerance):
    tolerance(1e-6)
    f, calls = _counting(exp_field)
    trace = integrate(f, np.array(1.0), "dopri5", 100)
    assert trace.f_evals == len(calls)
    assert trace.f_evals == 2 + 6 * (trace.accepted_steps + trace.rejected_steps)


def test_dopri5_tightening_tolerance_never_hurts(tolerance):
    errors = []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7):
        tolerance(tol)
        trace = integrate(exp_field, np.array(1.0), "dopri5", 100)
        errors.append(abs(float(trace.final_state) - np.e))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_harmonic_oscillator_time_reversal():
    def ho(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    forward = integrate(ho, y0, "dopri5", 100).final_state
    back = integrate(lambda t, y: -ho(t, y), forward, "dopri5", 100).final_state
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
def test_dopri5_golden(tolerance, tol, digest, accepted, rejected, calls):
    tolerance(tol)
    y0 = np.linspace(-1.5, 1.5, 80).reshape(16, 5)
    f, f_calls = _counting(_ring_field)
    trace = integrate(f, y0, "dopri5", 100)
    assert len(f_calls) == calls
    assert hashlib.sha256(trace.final_state.tobytes()).hexdigest() == digest
    assert (trace.accepted_steps, trace.rejected_steps, trace.f_evals) == (
        accepted, rejected, calls)


def test_max_steps_exceeded_raises(monkeypatch):
    monkeypatch.setattr(odesolve, "RTOL", 1e-12)
    monkeypatch.setattr(odesolve, "ATOL", 1e-14)
    monkeypatch.setattr(odesolve, "MAX_STEPS", 3)
    with pytest.raises(NumericError, match="exceeded 3 steps"):
        integrate(lambda t, y: 1000.0 * y, np.array(1.0), "dopri5", 100)


def test_dopri5_final_time_exact():
    seen = []

    def f(t, y):
        seen.append(t)
        return np.array(1.0)

    trace = integrate(f, np.array(0.0), "dopri5", 100)
    assert float(trace.final_state) == pytest.approx(1.0, abs=1e-12)
    assert max(seen) <= 1.0 + 1e-12
