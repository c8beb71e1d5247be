"""Executable checks of the flow's qualitative guarantees over traces.

Each check is a pure function of a trace and the model parameters and
returns a verdict object; ``report_lines`` renders any verdict as
machine-readable key=value lines for the command-line harness.

The polynomial-decay and blow-up bounds both degenerate at p = 2 (their
exponents contain 1/(p-2) and the blow-up constant vanishes), so those two
checks refuse p = 2 instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import HypothesisNotMet, UnsupportedRegime
from .flow import FlowTrace, Verdict
from .grid import ModelParams
from .variational import WellClassification

# default tolerances; discretization error in the observed blow-up time and
# envelope motivates the 10% slack, the slope window the 0.15
BLOWUP_TIME_TOL = 0.10
ENVELOPE_TOL = 0.10
SLOPE_TOL = 0.15
# the envelope is only tested away from its singular endpoint
_ENVELOPE_CUTOFF = 0.95


@dataclass(frozen=True)
class EnergyCheck:
    """Result of the prefix energy inequality; falsy when violated."""

    passed: bool
    first_violation: int | None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class DecayVerdict:
    """Fitted polynomial decay of the l2 norm.

    ``passed`` holds exactly when the fitted log-log slope sits within
    ``slope_tol`` of -1/(p-2) and the largest admissible decay constant
    ``kappa_fit`` is positive.  ``integral_ok`` reports the discrete tail
    inequality sum(l2^p dt) <= l2(t)^2 / (2 kappa_fit) at sampled times.
    """

    slope_fit: float
    kappa_fit: float
    window: tuple[float, float]
    passed: bool
    integral_ok: bool


@dataclass(frozen=True)
class BlowupVerdict:
    """Observed blow-up time against the closed-form upper bound."""

    C_const: float
    T_bound: float
    t_obs: float
    lower_envelope_ok: bool
    passed: bool


def check_energy_inequality(trace: FlowTrace, tol: float = 1e-10) -> EnergyCheck:
    """Every prefix must satisfy D/2 + E(end) <= E(start) + slack.

    Returns the first violating row index when the inequality fails; the
    check is monotone, so passing a trace implies passing every prefix.
    """
    if not trace.rows:
        raise ValueError("empty trace")
    e0 = trace.rows[0].report.energy
    slack = tol * (1.0 + abs(e0))
    for k, row in enumerate(trace.rows):
        if 0.5 * row.dissipation + row.report.energy > e0 + slack:
            return EnergyCheck(False, k)
    return EnergyCheck(True, None)


def martinez_bound(f0: float, sigma: float, omega: float, t: float) -> float:
    """Decay bound for a nonincreasing f with tail integrals controlled by
    (1/omega) f(0)^sigma f(t): exponential when sigma = 0, polynomial of
    order 1/sigma otherwise."""
    if f0 < 0.0 or sigma < 0.0 or t < 0.0:
        raise ValueError("need f0 >= 0, sigma >= 0, t >= 0")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if sigma == 0.0:
        return f0 * math.exp(1.0 - omega * t)
    return f0 * ((1.0 + sigma) / (1.0 + omega * sigma * t)) ** (1.0 / sigma)


def check_decay(trace: FlowTrace, params: ModelParams,
                slope_tol: float = SLOPE_TOL) -> DecayVerdict:
    """Fit the decay rate of the l2 norm and the largest admissible kappa.

    The slope is a least-squares fit of log l2 against log t over the last
    time decade of the trace.  ``kappa_fit`` is the smallest row-wise kappa
    solving the decay bound

        l2(t) = l2(0) * (p / (2 (1 + kappa (p-2) l2(0)^(p-2) t)))^(1/(p-2))

    with equality, hence the largest constant for which the bound holds on
    every row.
    """
    p = params.p
    if p == 2.0:
        raise UnsupportedRegime("decay rate check requires p > 2")
    if trace.verdict not in (Verdict.REACHED_HORIZON, Verdict.DECAYED_TO_ZERO):
        raise ValueError(f"decay check needs a surviving trace, got {trace.verdict.value}")

    t = trace.column("t")
    l2 = trace.column("l2")
    r0 = l2[0]
    positive = t > 0.0
    t_hi = t[-1]
    t_lo = t_hi / 10.0
    window = positive & (t >= t_lo) & (l2 > 0.0)
    if np.count_nonzero(window) < 2:
        raise ValueError("not enough rows in the fit window")
    slope = float(np.polyfit(np.log(t[window]), np.log(l2[window]), 1)[0])

    rho = (l2[positive] / r0) ** (p - 2.0)
    kappas = (p / (2.0 * rho) - 1.0) / ((p - 2.0) * r0 ** (p - 2.0) * t[positive])
    kappa_fit = float(np.min(kappas))

    # tail inequality with the hypothesis-side constant min I / l2^p (the
    # bound-inverted kappa_fit carries an inherent p/2 slack that would fail
    # the tail sums even on exact-rate traces)
    integral_ok = False
    nehari_col = trace.column("nehari")
    good = l2 > 0.0
    if kappa_fit > 0.0 and np.all(nehari_col[good] > 0.0):
        kappa_phys = float(np.min(nehari_col[good] / l2[good] ** p))
        integral_ok = kappa_phys > 0.0
        steps = np.diff(t)
        sample_idx = np.unique(np.linspace(0, len(t) - 2, 5).astype(int))
        for i in sample_idx:
            if not integral_ok:
                break
            tail = float(np.sum(l2[i + 1:] ** p * steps[i:]))
            if tail > l2[i] ** 2 / (2.0 * kappa_phys) * (1.0 + 1e-9):
                integral_ok = False
        if integral_ok:
            sigma = (p - 2.0) / 2.0
            omega = 2.0 * kappa_fit * r0 ** (p - 2.0)
            bounds = np.array([martinez_bound(r0 * r0, sigma, omega, ti) for ti in t])
            integral_ok = bool(np.all(l2**2 <= bounds * (1.0 + 1e-9)))

    passed = abs(slope + 1.0 / (p - 2.0)) <= slope_tol and kappa_fit > 0.0
    return DecayVerdict(
        slope_fit=slope,
        kappa_fit=kappa_fit,
        window=(float(t_lo), float(t_hi)),
        passed=passed,
        integral_ok=integral_ok,
    )


def blowup_constant(params: ModelParams) -> float:
    """Closed-form constant of the blow-up time bound (vanishes at p = 2)."""
    p = params.p
    return params.measure ** (p - 2.0) * (p - 2.0) / p


def check_blowup(trace: FlowTrace, params: ModelParams,
                 tol: float = BLOWUP_TIME_TOL,
                 env_tol: float = ENVELOPE_TOL) -> BlowupVerdict:
    """Compare the observed blow-up time with the bound l2(0)^(2-p) / C and
    test the lower envelope l2(t)^2 >= (l2(0)^(2-p) - C t)^(-2/(p-2)).

    Requires nonpositive initial energy (the hypothesis under which the
    bound is derived) and a trace that actually blew up.
    """
    p = params.p
    if p == 2.0:
        raise UnsupportedRegime("blow-up bound check requires p > 2")
    if trace.verdict != Verdict.BLOW_UP:
        raise ValueError(f"blow-up check needs a BlowUp trace, got {trace.verdict.value}")
    e0 = trace.rows[0].report.energy
    if e0 > 0.0:
        raise HypothesisNotMet(f"initial energy must be <= 0, got {e0}")

    r0 = trace.rows[0].report.l2
    c_const = blowup_constant(params)
    t_bound = r0 ** (2.0 - p) / c_const
    t_obs = trace.t_event

    envelope_ok = True
    for row in trace.rows:
        if row.t >= _ENVELOPE_CUTOFF * t_bound:
            break
        base = r0 ** (2.0 - p) - c_const * row.t
        envelope = base ** (-2.0 / (p - 2.0))
        if row.report.l2 ** 2 < envelope * (1.0 - env_tol):
            envelope_ok = False
            break

    passed = t_obs <= t_bound * (1.0 + tol) and envelope_ok
    return BlowupVerdict(
        C_const=c_const,
        T_bound=t_bound,
        t_obs=t_obs,
        lower_envelope_ok=envelope_ok,
        passed=passed,
    )


def check_well_invariance(trace: FlowTrace, classification: WellClassification,
                          d_hat: float | None = None) -> bool:
    """Sign invariance of the Nehari functional along the flow.

    Inside the well the functional must stay positive on every row (and the
    energy must stay below ``d_hat`` when given).  For exterior data with
    nonpositive initial energy it must stay negative until the verdict.  A
    failure here means either a bug or a misestimated well depth.
    """
    if classification not in (WellClassification.INSIDE_WELL, WellClassification.EXTERIOR):
        raise ValueError(f"invariance check undefined for {classification.value}")
    nehari = trace.column("nehari")
    if classification == WellClassification.INSIDE_WELL:
        if not np.all(nehari > 0.0):
            return False
        if d_hat is not None and not np.all(trace.column("energy") < d_hat):
            return False
        return True
    if trace.rows[0].report.energy <= 0.0:
        return bool(np.all(nehari < 0.0))
    return True


def fmt(value) -> str:
    """Render one report value: booleans as ``true``/``false``, floats with
    17 significant digits (so they read back exactly), the rest via str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def field_lines(prefix: str, obj) -> list[str]:
    """One ``prefix.field=value`` line per dataclass field, in declaration
    order, skipping fields that are None."""
    return [f"{prefix}.{f.name}={fmt(value)}" for f in fields(obj)
            if (value := getattr(obj, f.name)) is not None]


def report_lines(name: str, verdict) -> list[str]:
    """Render a verdict as key=value lines under the prefix ``check.<name>``."""
    prefix = f"check.{name}"
    if isinstance(verdict, bool):
        return [f"{prefix}.passed={fmt(verdict)}"]
    if isinstance(verdict, DecayVerdict):
        return [
            f"{prefix}.slope_fit={fmt(verdict.slope_fit)}",
            f"{prefix}.kappa_fit={fmt(verdict.kappa_fit)}",
            f"{prefix}.window_lo={fmt(verdict.window[0])}",
            f"{prefix}.window_hi={fmt(verdict.window[1])}",
            f"{prefix}.integral_ok={fmt(verdict.integral_ok)}",
            f"{prefix}.passed={fmt(verdict.passed)}",
        ]
    if isinstance(verdict, (EnergyCheck, BlowupVerdict)):
        return field_lines(prefix, verdict)
    raise TypeError(f"no report format for {type(verdict).__name__}")
