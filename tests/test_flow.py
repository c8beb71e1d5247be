"""Time integration: energy decrease, consistency, verdicts, step control."""

import numpy as np
import pytest

from fracflow import (
    EXPLICIT,
    FlowConfig,
    GridFunction,
    ModelParams,
    NotInX0,
    NumericalFailure,
    StepCollapse,
    Verdict,
    build_grid,
    bump_profile,
    energy,
    estimate_well_depth,
    full_gradient,
    l2_norm,
    run_flow,
    step_explicit,
    step_proximal,
)
from conftest import random_state


@pytest.fixture(scope="module")
def grid_flow():
    return build_grid(ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=24))


@pytest.fixture(scope="module")
def grid_p3():
    return build_grid(ModelParams(s=0.5, p=3.0, a=0.0, b=1.0, n=24))


# ---------------------------------------------------------------------------
# proximal step


def test_proximal_step_decreases_energy(grid_p3):
    rng = np.random.default_rng(211)
    for _ in range(8):
        u = random_state(grid_p3, rng, smooth=True)
        e_u = energy(u)
        for dt in (1e-3, 1e-2, 1e-1):
            result = step_proximal(u, dt)
            assert result.ok
            assert energy(result.u_next) <= e_u


def test_proximal_energy_inequality_single_step(grid_p3):
    rng = np.random.default_rng(223)
    u = random_state(grid_p3, rng, smooth=True)
    dt = 0.05
    result = step_proximal(u, dt)
    v = result.u_next
    gap = energy(u) - energy(v)
    penalty = grid_p3.h * float(np.dot(v.values - u.values, v.values - u.values)) / (2 * dt)
    assert penalty <= gap + 1e-12 * (1.0 + abs(energy(u)))


def test_proximal_fixed_point_at_stationary_state():
    # a wide domain keeps the ground state at O(1) amplitude, so the descent
    # can polish the gradient to an absolute level below the test tolerance
    grid = build_grid(ModelParams(s=0.3, p=2.0, a=0.0, b=20.0, n=24))
    est = estimate_well_depth(grid, count=24, seed=4, descent_iters=5000, grad_tol=1e-14)
    w = est.minimizer
    inner_tol = 1e-6
    assert l2_norm(full_gradient(w)) <= inner_tol
    for dt in (1e-3, 1e-2):
        result = step_proximal(w, dt, inner_tol=inner_tol)
        assert result.ok
        assert l2_norm(GridFunction(grid, result.u_next.values - w.values)) <= inner_tol * dt


def test_proximal_consistency_as_dt_vanishes(grid_flow):
    # (v - u)/dt approaches -full_gradient(u) at first order
    rng = np.random.default_rng(227)
    u = random_state(grid_flow, rng, smooth=True)
    g = full_gradient(u)
    errors = []
    for dt in (1e-3, 1e-4, 1e-5):
        v = step_proximal(u, dt, inner_tol=1e-12, inner_max_iters=5000).u_next
        rate = (v.values - u.values) / dt
        errors.append(l2_norm(GridFunction(grid_flow, rate + g.values)))
    assert errors[0] > errors[1] > errors[2]
    ratio = errors[1] / errors[0]
    assert 0.02 <= ratio <= 0.5, f"expected first-order shrinkage, got {ratio}"


def test_proximal_rejects_bad_dt(grid_flow):
    u = bump_profile(grid_flow)
    with pytest.raises(ValueError):
        step_proximal(u, 0.0)


# ---------------------------------------------------------------------------
# explicit step


def test_explicit_zero_state_stays_zero(grid_flow):
    z = GridFunction(grid_flow, np.zeros(grid_flow.n))
    result = step_explicit(z, 0.01)
    assert np.all(result.u_next.values == 0.0)
    assert result.error == 0.0


def test_explicit_propagates_euler_exactly(grid_flow):
    rng = np.random.default_rng(229)
    u = random_state(grid_flow, rng, smooth=True)
    dt = 1e-3
    result = step_explicit(u, dt)
    euler = u.values - dt * full_gradient(u).values
    assert np.array_equal(result.u_next.values, euler)


def test_explicit_rejects_when_error_large(grid_flow):
    rng = np.random.default_rng(233)
    u = random_state(grid_flow, rng, scale=5.0)
    result = step_explicit(u, 1.0, tol=1e-14)
    assert not result.accepted
    assert result.dt_next < 1.0


def test_integrators_agree_in_smooth_regime():
    # p = 2, small amplitude: both first-order methods land on the same l2
    # (the horizon stops before the relative decay floor is reached)
    grid = build_grid(ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=16))
    u0 = bump_profile(grid).scaled(0.01)
    prox = run_flow(u0, FlowConfig(dt0=2e-4, t_end=0.5, inner_tol=1e-10,
                                   inner_max_iters=2000))
    expl = run_flow(u0, FlowConfig(dt0=2e-4, t_end=0.5, inner_tol=1e-10,
                                   integrator=EXPLICIT))
    assert prox.verdict == expl.verdict == Verdict.REACHED_HORIZON
    l2_prox = prox.rows[-1].report.l2
    l2_expl = expl.rows[-1].report.l2
    assert l2_prox < 0.5 * prox.rows[0].report.l2
    assert abs(l2_prox - l2_expl) <= 1e-4


# ---------------------------------------------------------------------------
# run_flow


def test_zero_initial_state_rejected(grid_flow):
    z = GridFunction(grid_flow, np.zeros(grid_flow.n))
    with pytest.raises(NotInX0):
        run_flow(z, FlowConfig())


def test_nonfinite_initial_state_rejected(grid_flow):
    vals = np.ones(grid_flow.n)
    vals[0] = np.nan
    with pytest.raises(NumericalFailure):
        run_flow(GridFunction(grid_flow, vals), FlowConfig())


def test_run_reaches_horizon_with_monotone_energy(grid_flow):
    u0 = bump_profile(grid_flow).scaled(0.5)
    trace = run_flow(u0, FlowConfig(dt0=0.01, t_end=1.0))
    assert trace.verdict == Verdict.REACHED_HORIZON
    t = trace.column("t")
    assert np.all(np.diff(t) > 0.0)
    assert np.all(np.diff(trace.column("dissipation")) >= 0.0)
    assert np.all(np.diff(trace.column("energy")) <= 0.0)
    assert trace.rows[0].dt == 0.0 and trace.rows[0].dissipation == 0.0


def test_run_decays_to_zero():
    # p = 2 decay is near-exponential, so the floor is reached quickly
    grid = build_grid(ModelParams(s=0.3, p=2.0, a=0.0, b=1.0, n=16))
    u0 = bump_profile(grid).scaled(0.3)
    trace = run_flow(u0, FlowConfig(dt0=0.05, t_end=500.0))
    assert trace.verdict == Verdict.DECAYED_TO_ZERO
    assert trace.rows[-1].report.l2 <= 1e-10 * trace.rows[0].report.l2
    assert trace.t_event < 500.0


def test_run_flow_streams_rows(grid_flow):
    seen = []
    u0 = bump_profile(grid_flow).scaled(0.5)
    trace = run_flow(u0, FlowConfig(dt0=0.02, t_end=0.2), on_row=seen.append)
    assert len(seen) == len(trace.rows)
    assert seen[0].t == 0.0


def test_step_collapse_raises_without_blowup_evidence():
    grid = build_grid(ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=16))
    u0 = bump_profile(grid).scaled(0.5)
    cfg = FlowConfig(dt0=1e-3, dt_min=9e-4, t_end=1.0, inner_tol=1e-14,
                     integrator=EXPLICIT)
    with pytest.raises(StepCollapse):
        run_flow(u0, cfg)


@pytest.fixture(scope="module")
def blowup_trace():
    # nonpositive initial energy requires amplitudes past the Nehari scale
    grid = build_grid(ModelParams(s=0.5, p=3.0, a=0.0, b=1.0, n=24))
    u0 = bump_profile(grid).scaled(4e9)
    assert energy(u0) <= 0.0
    cfg = FlowConfig(dt0=1e-10, t_end=1e-5, dt_min=1e-22,
                     blowup_threshold=1e12, inner_tol=1e-8)
    return run_flow(u0, cfg)


def test_blowup_detected(blowup_trace):
    assert blowup_trace.verdict == Verdict.BLOW_UP
    assert blowup_trace.t_event > 0.0


def test_blowup_l2_eventually_increasing(blowup_trace):
    l2 = blowup_trace.column("l2")
    tail = l2[-6:]
    assert np.all(np.diff(tail) > 0.0)
    assert l2[-1] >= 1e12


def test_blowup_nehari_negative_throughout(blowup_trace):
    assert np.all(blowup_trace.column("nehari") < 0.0)


def test_blowup_energy_monotone(blowup_trace):
    energies = blowup_trace.column("energy")
    assert np.all(np.diff(energies) <= 0.0)
    assert energies[0] <= 0.0


# ---------------------------------------------------------------------------
# carried evaluations


def _same_evaluation(a, b):
    return (a.report() == b.report() and a.energy == b.energy
            and np.array_equal(a.gradient(), b.gradient()))


def test_proximal_step_carries_evaluation_of_u_next(grid_p3):
    from fracflow.functionals import _Evaluation

    rng = np.random.default_rng(223)
    u = random_state(grid_p3, rng, smooth=True)
    step = step_proximal(u, 0.05)
    assert step.ok
    assert _same_evaluation(step.evaluation, _Evaluation(grid_p3, step.u_next.values))
    # a carried start evaluation gives the same step as a fresh one
    again = step_proximal(step.u_next, 0.05, _start=step.evaluation)
    fresh = step_proximal(step.u_next, 0.05)
    assert np.array_equal(again.u_next.values, fresh.u_next.values)
    assert (again.iterations, again.converged, again.ok) == (
        fresh.iterations, fresh.converged, fresh.ok)


def test_run_flow_last_row_reports_final_state(grid_p3):
    from fracflow import report

    u0 = bump_profile(grid_p3).scaled(0.5)
    trace = run_flow(u0, FlowConfig(dt0=0.01, t_end=0.2))
    assert len(trace.rows) > 2
    assert trace.rows[-1].report == report(trace.u_final)
    assert trace.rows[0].report == report(u0)
