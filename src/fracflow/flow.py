"""Time integration of the semidiscrete flow u_t = -full_gradient(u).

The default integrator advances by a proximal implicit Euler step: the new
state minimizes

    J(v) = ||v - u||_2^2 / (2 dt) + E(v)

so every accepted step satisfies the one-step energy inequality

    ||v - u||_2^2 / (2 dt) + E(v) <= E(u)

unconditionally, which is the discrete counterpart of the dissipation the
continuum flow enjoys.  The inner minimization is damped gradient descent
with Barzilai-Borwein step guesses and Armijo backtracking; the energy is
nonconvex, but only decrease is needed.

An embedded explicit pair (forward Euler propagated, Heun for the error
estimate) is available for cross-validation and for tracing blow-up
asymptotics cheaply.  It does not guarantee energy decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotInX0, NumericalFailure, StepCollapse
from .functionals import (
    EnergyReport,
    GridFunction,
    _Evaluation,
    energy_values,  # noqa: F401 -- unused here, kept importable (perfbench tests read it)
    gradient_values,
    report,
)

PROXIMAL = "proximal-implicit"
EXPLICIT = "explicit-adaptive"

# decay verdict threshold relative to the initial l2 norm
_DECAY_FRACTION = 1e-10
# inner iteration count the step controller steers towards
_TARGET_ITERS = 25
# consecutive l2 increases required as blow-up evidence
_TREND_STEPS = 5
# trust region: a step may at most double the l2 norm, else it is rejected
# (energy decrease alone does not rule out a jump far past the flow)
_MAX_GROWTH = 2.0
# overwhelming threshold excess ends the run without waiting for a trend
_HARD_EXCESS = 100.0


class Verdict(Enum):
    REACHED_HORIZON = "ReachedHorizon"
    BLOW_UP = "BlowUp"
    DECAYED_TO_ZERO = "DecayedToZero"


@dataclass(frozen=True)
class FlowConfig:
    """Integration controls.

    ``inner_tol`` is the relative gradient tolerance of the proximal inner
    solver; the explicit integrator reuses it as the local error tolerance
    per step.
    """

    dt0: float = 1e-2
    t_end: float = 1.0
    dt_min: float = 1e-12
    blowup_threshold: float = 1e6
    inner_tol: float = 1e-8
    inner_max_iters: int = 500
    integrator: str = PROXIMAL

    def __post_init__(self):
        if not self.dt0 > self.dt_min > 0.0:
            raise ValueError("need dt0 > dt_min > 0")
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.inner_tol < math.inf:
            raise ValueError("inner_tol must be positive and finite")
        if self.inner_max_iters < 1:
            raise ValueError("inner_max_iters must be >= 1")
        if self.integrator not in (PROXIMAL, EXPLICIT):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass(frozen=True)
class TraceRow:
    """One accepted state: time, step that produced it, diagnostics, and the
    cumulative dissipation sum(||du||_2^2 / dt) up to this time."""

    t: float
    dt: float
    report: EnergyReport
    dissipation: float


@dataclass
class FlowTrace:
    rows: list[TraceRow]
    verdict: Verdict
    t_event: float
    u_final: GridFunction

    def column(self, name: str) -> np.ndarray:
        if name in ("t", "dt", "dissipation"):
            return np.array([getattr(r, name) for r in self.rows])
        return np.array([getattr(r.report, name) for r in self.rows])


class ProximalStep(NamedTuple):
    u_next: GridFunction
    iterations: int
    converged: bool
    ok: bool
    # energy terms of u_next, carried so the next step starts from them
    evaluation: _Evaluation | None = None


class ExplicitStep(NamedTuple):
    u_next: GridFunction
    dt_next: float
    error: float
    accepted: bool


def step_proximal(u: GridFunction, dt: float,
                  inner_tol: float = FlowConfig.inner_tol,
                  inner_max_iters: int = FlowConfig.inner_max_iters, *,
                  _start: _Evaluation | None = None) -> ProximalStep:
    """One proximal implicit Euler step.

    The inner solver is warm-started at ``u`` and terminates when the
    J-gradient norm drops below ``inner_tol`` times its starting value, at
    the iteration cap, or when backtracking stalls.  ``ok`` is False when
    non-finite values appear or the energy failed to be non-increasing;
    callers should then reject the step and shrink dt.  ``_start`` is the
    evaluation of ``u`` carried from the step that produced it.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        start = _Evaluation(u.grid, u.values) if _start is None else _start
        return _step_proximal_impl(u, start, dt, inner_tol, inner_max_iters)


def _step_proximal_impl(u, start, dt, inner_tol, inner_max_iters):
    # transient overflow in trial states is expected near blow-up; every
    # non-finite value is caught explicitly
    grid = u.grid
    h = grid.h
    u0 = u.values
    e_u = start.energy
    if not np.isfinite(e_u):
        return ProximalStep(u, 0, False, False, start)

    v = u0.copy()
    jv = e_u
    ev = start
    g = start.gradient()
    if not np.all(np.isfinite(g)):
        return ProximalStep(u, 0, False, False, start)
    gn0 = math.sqrt(h * float(np.dot(g, g)))
    stop = inner_tol * gn0
    converged = gn0 == 0.0
    prev_v = None
    prev_g = None
    eta_last = dt
    stalls = 0
    iterations = 0
    while not converged and iterations < inner_max_iters:
        iterations += 1
        gn2 = h * float(np.dot(g, g))
        eta = min(eta_last * 16.0, dt)
        if prev_v is not None:
            dv = v - prev_v
            dg = g - prev_g
            denom = float(np.dot(dg, dg))
            num = float(np.dot(dv, dg))
            if denom > 0.0 and num > 0.0:
                # Barzilai-Borwein guess, kept within a window of the last
                # accepted step so a wild guess cannot stall the search
                eta = min(num / denom, eta_last * 16.0)
        moved = False
        for _ in range(60):
            trial = v - eta * g
            ev_trial = _Evaluation(grid, trial)
            diff = trial - u0
            jt = ev_trial.energy + 0.5 * h * float(np.dot(diff, diff)) / dt
            if np.isfinite(jt) and jt <= jv - 1e-4 * eta * gn2:
                prev_v, prev_g = v, g
                decrease = jv - jt
                v, jv, ev = trial, jt, ev_trial
                eta_last = eta
                moved = True
                break
            # drop the rejected trial's pair array before the next is built
            ev_trial = None
            eta *= 0.5
        if not moved:
            break
        if decrease <= 4.0 * np.finfo(float).eps * (1.0 + abs(jv)):
            stalls += 1
            if stalls >= 3:
                break
        else:
            stalls = 0
        g = (v - u0) / dt + ev.gradient()
        if not np.all(np.isfinite(g)):
            return ProximalStep(u, iterations, False, False, start)
        if math.sqrt(h * float(np.dot(g, g))) <= stop:
            converged = True

    e_v = ev.energy
    ok = bool(np.all(np.isfinite(v)) and np.isfinite(e_v) and e_v <= e_u)
    return ProximalStep(GridFunction(grid, v), iterations, converged, ok, ev)


def step_explicit(u: GridFunction, dt: float, safety: float = 0.9,
                  tol: float = 1e-6) -> ExplicitStep:
    """One embedded explicit step: forward Euler propagated, Heun-style
    second stage for the local error estimate.

    The propagated state is exactly ``u - dt * full_gradient(u)``; the
    estimate ``||dt (k2 - k1) / 2||_2`` is compared with
    ``tol * (1 + ||u||_2)`` and the suggested next step follows the usual
    order-1 controller with bounded growth and shrink factors.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = u.grid
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_explicit_impl(u, grid, dt, safety, tol)


def _step_explicit_impl(u, grid, dt, safety, tol):
    k1 = -gradient_values(grid, u.values)
    euler = u.values + dt * k1
    if not np.all(np.isfinite(euler)):
        return ExplicitStep(u, dt / 2.0, math.inf, False)
    k2 = -gradient_values(grid, euler)
    if not np.all(np.isfinite(k2)):
        return ExplicitStep(u, dt / 2.0, math.inf, False)
    diff = 0.5 * dt * (k2 - k1)
    err = math.sqrt(grid.h * float(np.dot(diff, diff)))
    scale = tol * (1.0 + math.sqrt(grid.h * float(np.dot(u.values, u.values))))
    accepted = err <= scale
    if err == 0.0:
        factor = 5.0
    else:
        factor = min(5.0, max(0.2, safety * math.sqrt(scale / err)))
    return ExplicitStep(GridFunction(grid, euler), dt * factor, err, accepted)


def _l2_trend_up(rows: list[TraceRow]) -> bool:
    if len(rows) < _TREND_STEPS + 1:
        return False
    tail = [r.report.l2 for r in rows[-(_TREND_STEPS + 1):]]
    return all(b > a for a, b in zip(tail, tail[1:]))


def run_flow(u0: GridFunction, config: FlowConfig,
             on_row: Callable[[TraceRow], None] | None = None) -> FlowTrace:
    """Integrate from ``u0`` until the horizon, decay to zero, or blow-up.

    Steps adapt by halving and doubling within ``[dt_min, 10 * dt0]``; once
    the l2 norm exceeds 1 the step is additionally capped by
    ``0.1 / ||u||_2^(p-2)`` to resolve a developing singularity.  A blow-up
    verdict requires the threshold crossing (or step collapse) together
    with l2 growth over the last few accepted steps, which separates
    genuine blow-up from stiffness failure.
    """
    grid = u0.grid
    p = grid.params.p
    if not np.all(np.isfinite(u0.values)):
        raise NumericalFailure("initial state contains non-finite values", 0)
    explicit = config.integrator == EXPLICIT
    # the evaluation of the current state: a proximal step starts from it
    # (building it when None) and hands back the evaluation it accepts
    current = None
    rep0 = report(u0)
    if rep0.l2 == 0.0:
        raise NotInX0("initial state must be nonzero")

    rows = [TraceRow(t=0.0, dt=0.0, report=rep0, dissipation=0.0)]
    if on_row is not None:
        on_row(rows[0])

    t = 0.0
    dt = config.dt0
    dt_cap = 10.0 * config.dt0
    u = u0
    dissipation = 0.0
    l2_floor = _DECAY_FRACTION * rep0.l2

    while True:
        if t >= config.t_end * (1.0 - 1e-14):
            return FlowTrace(rows, Verdict.REACHED_HORIZON, t, u)

        dt_eff = min(dt, config.t_end - t)
        l2_now = rows[-1].report.l2
        if l2_now > 1.0:
            dt_eff = min(dt_eff, max(0.1 / l2_now ** (p - 2.0), config.dt_min))

        if explicit:
            result = step_explicit(u, dt_eff, tol=config.inner_tol)
            accepted = result.accepted
            dt_suggest = result.dt_next
        else:
            result = step_proximal(u, dt_eff, config.inner_tol, config.inner_max_iters,
                                   _start=current)
            accepted = result.ok
            # steer the inner iteration count towards the target; sqrt damps
            # the feedback so dt does not oscillate
            factor = math.sqrt(_TARGET_ITERS / max(result.iterations, 1))
            dt_suggest = dt_eff * min(2.0, max(0.25, factor))

        rep = None
        if accepted:
            if not np.all(np.isfinite(result.u_next.values)):
                raise NumericalFailure("non-finite state", len(rows))
            with np.errstate(over="ignore", invalid="ignore"):
                rep = report(result.u_next) if explicit else result.evaluation.report()
            if not np.isfinite(rep.l2):
                raise NumericalFailure("non-finite diagnostics", len(rows))
            if rep.l2 > _MAX_GROWTH * max(l2_now, 1e-300):
                accepted = False

        if not accepted:
            dt = 0.5 * dt_eff
            if explicit:
                dt = min(dt, dt_suggest)
            if dt < config.dt_min:
                if _l2_trend_up(rows):
                    return FlowTrace(rows, Verdict.BLOW_UP, t, u)
                raise StepCollapse(
                    "time step underflowed without blow-up evidence"
                    + ("; consider the proximal integrator" if explicit else ""),
                    t,
                )
            continue

        u_next = result.u_next
        diff = u_next.values - u.values
        dissipation += grid.h * float(np.dot(diff, diff)) / dt_eff
        t += dt_eff
        u = u_next
        if not explicit:
            current = result.evaluation
        row = TraceRow(t=t, dt=dt_eff, report=rep, dissipation=dissipation)
        rows.append(row)
        if on_row is not None:
            on_row(row)

        if rep.l2 <= l2_floor:
            return FlowTrace(rows, Verdict.DECAYED_TO_ZERO, t, u)
        if rep.l2 >= config.blowup_threshold:
            if _l2_trend_up(rows) or rep.l2 >= _HARD_EXCESS * config.blowup_threshold:
                return FlowTrace(rows, Verdict.BLOW_UP, t, u)

        dt = min(max(dt_suggest, config.dt_min), dt_cap)
