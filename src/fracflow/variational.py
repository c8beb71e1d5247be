"""Stationary potential-well machinery: fibering maps, Nehari projection,
well-depth estimation, and classification of initial data.

Scaling a state ``u`` along the ray ``lam * u`` changes the energy through
closed forms of three scalars (seminorm power S, p-norm power P, log
integral L):

    j(lam)      = lam^p / p * (S + P - L) - lam^p * log(lam) / p * P
                  + lam^p / p^2 * P
    I(lam * u)  = lam^p * (S + P - L - log(lam) * P)

so the unique Nehari crossing of the ray is ``lam_star = exp((S+P-L)/P)``.
The well depth is estimated from above by projecting a diverse family of
trial shapes onto the Nehari set and refining the best rays by projected
gradient descent; the constraint manifold is radially parameterized, so a
descent step is a plain gradient step followed by re-projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInX0, SamplerFailure
from .functionals import (
    EnergyReport,
    GridFunction,
    energy_values,
    gradient_values,
    lp_norm_p,
    report,
)
from .grid import Grid
from .rng import SplitMix64

# rays whose Nehari exponent exceeds this cannot be represented in floats
# and can never carry the minimum; the sampler skips them
_MAX_LOG_LAMBDA = 80.0
# default trial shapes and projected-descent iterations of one estimate
SAMPLES = 200
DESCENT_ITERS = 300


class WellClassification(Enum):
    INSIDE_WELL = "InsideWell"
    EXTERIOR = "Exterior"
    ON_NEHARI = "OnNehari"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class FiberingProfile:
    """Sampled ray energies j(lam) = energy(lam * u) with the critical scale."""

    lambdas: np.ndarray
    j_values: np.ndarray
    i_values: np.ndarray
    lambda_star: float


@dataclass(frozen=True)
class WellDepthEstimate:
    """Upper estimate of the well depth with the best Nehari point found."""

    d_hat: float
    minimizer: GridFunction
    residual_I: float
    sampler_seed: int


def _require_in_x0(u: GridFunction):
    """Raise ``NotInX0`` for a state that vanishes identically; the Nehari
    set and every ray exclude it."""
    if lp_norm_p(u, u.grid.params.p) == 0.0:
        raise NotInX0("state vanishes identically")


def _report_in_x0(u: GridFunction) -> EnergyReport:
    _require_in_x0(u)
    return report(u)


def _ray_scalars(u: GridFunction) -> tuple[float, float, float]:
    r = _report_in_x0(u)
    return r.seminorm_p, r.lp_p, r.log_int


def _j_closed(s: float, pp: float, li: float, p: float, lam: np.ndarray) -> np.ndarray:
    lam_p = lam**p
    return lam_p / p * (s + pp - li) - lam_p * np.log(lam) / p * pp + lam_p / (p * p) * pp


def _i_closed(s: float, pp: float, li: float, p: float, lam: np.ndarray) -> np.ndarray:
    return lam**p * (s + pp - li - np.log(lam) * pp)


def _critical_scale(s: float, pp: float, li: float) -> float:
    return math.exp((s + pp - li) / pp)


def lambda_star(u: GridFunction) -> float:
    """Unique ray scale with I(lambda_star * u) = 0.

    Covariant under rescaling: ``lambda_star(c * u) == lambda_star(u) / c``.
    """
    return _critical_scale(*_ray_scalars(u))


def _sample_ray(ray: tuple[float, float, float], p: float, lam_min: float,
                lam_max: float, count: int) -> FiberingProfile:
    """``fibering_profile`` from the ray scalars ``(S, P, L)`` of a state."""
    if not 0.0 < lam_min < lam_max:
        raise ValueError("need 0 < lam_min < lam_max")
    if count < 16:
        raise ValueError("need at least 16 sample points")
    lams = np.geomspace(lam_min, lam_max, count)
    return FiberingProfile(
        lambdas=lams,
        j_values=_j_closed(*ray, p, lams),
        i_values=_i_closed(*ray, p, lams),
        lambda_star=_critical_scale(*ray),
    )


def fibering_profile(u: GridFunction, lam_min: float, lam_max: float,
                     count: int) -> FiberingProfile:
    """Sample the ray energy on a log-spaced grid of scales.

    The grid must be increasing; pick a range containing ``lambda_star(u)``
    to see the single peak and the sign change of I.
    """
    return _sample_ray(_ray_scalars(u), u.grid.params.p, lam_min, lam_max, count)


def project_nehari(u: GridFunction) -> GridFunction:
    """Scale ``u`` onto the Nehari set along its ray."""
    return u.scaled(lambda_star(u))


def classify(u0: GridFunction, d_hat: float, i_tol: float | None = None,
             margin: float | None = None) -> WellClassification:
    """Place initial data relative to the potential well.

    ``d_hat`` is only an upper estimate of the well depth, so energies
    within ``margin`` of it (default 5%) are reported as indeterminate
    rather than trusted to a side.  The zero state is in no class: it
    raises ``NotInX0``.
    """
    r = _report_in_x0(u0)
    if i_tol is None:
        i_tol = 1e-8 * (1.0 + r.seminorm_p)
    if margin is None:
        margin = 0.05 * d_hat
    if abs(r.nehari) <= i_tol:
        return WellClassification.ON_NEHARI
    if r.energy >= d_hat - margin:
        return WellClassification.INDETERMINATE
    if r.nehari > 0.0:
        return WellClassification.INSIDE_WELL
    return WellClassification.EXTERIOR


def bump_profile(grid: Grid, center: float = 0.5, width: float = 0.5) -> GridFunction:
    """Smooth compactly supported bump exp(-1/(1-xi^2)) on a subinterval.

    ``center`` and ``width`` are relative to the domain length; the default
    spans the whole domain.
    """
    prm = grid.params
    c = prm.a + center * prm.measure
    w = width * prm.measure
    xi = (grid.centers - c) / w
    vals = np.zeros(grid.n)
    m = np.abs(xi) < 1.0
    vals[m] = np.exp(-1.0 / (1.0 - xi[m] ** 2))
    return GridFunction(grid, vals)


def sine_profile(grid: Grid, mode: int = 1) -> GridFunction:
    prm = grid.params
    phase = (grid.centers - prm.a) / prm.measure
    return GridFunction(grid, np.sin(mode * np.pi * phase))


def random_profile(grid: Grid, seed: int) -> GridFunction:
    """Seeded random field smoothed by 3-point averaging (zero padded)."""
    raw = SplitMix64(seed).symmetric_array(grid.n)
    padded = np.concatenate(([0.0], raw, [0.0]))
    vals = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    return GridFunction(grid, vals)


_BUMP_SPECS = (
    (0.5, 0.5),
    (0.35, 0.3),
    (0.65, 0.3),
    (0.5, 0.25),
    (0.3, 0.18),
    (0.7, 0.18),
)


def trial_functions(grid: Grid, count: int, seed: int) -> Iterable[GridFunction]:
    """Diverse trial shapes: bumps, low sine modes, seeded random fields.

    Only the shape of a trial matters for the well-depth estimate (the
    Nehari projection is ray invariant), so no amplitudes are varied.
    """
    if count < 1:
        raise SamplerFailure("sampler count must be >= 1")
    produced = 0
    for center, width in _BUMP_SPECS:
        if produced >= count:
            return
        yield bump_profile(grid, center, width)
        produced += 1
    for mode in range(1, 9):
        if produced >= count:
            return
        yield sine_profile(grid, mode)
        produced += 1
    k = 0
    while produced < count:
        yield random_profile(grid, seed + 7919 * k)
        produced += 1
        k += 1


def _project_values(grid: Grid, vals: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Project raw values onto the Nehari set; None when the ray is unusable."""
    u = GridFunction(grid, vals)
    r = report(u)
    if r.lp_p == 0.0 or not np.isfinite(r.nehari):
        return None
    x = r.nehari / r.lp_p
    if not np.isfinite(x) or abs(x) > _MAX_LOG_LAMBDA:
        return None
    w = math.exp(x) * vals
    return w, energy_values(grid, w)


def _descend_on_nehari(grid: Grid, w: np.ndarray, e_w: float, max_iters: int,
                       grad_tol: float) -> tuple[np.ndarray, float]:
    """Minimize the energy along the Nehari set by projected descent.

    On the manifold the radial derivative of the energy vanishes, so the
    gradient of the projected energy equals the plain energy gradient; a
    descent step is gradient step plus re-projection.  Steps start from a
    Barzilai-Borwein guess and backtrack until the energy decreases.
    """
    h = grid.h
    prev_w = None
    prev_g = None
    for _ in range(max_iters):
        g = gradient_values(grid, w)
        gn2 = h * float(np.dot(g, g))
        if not np.isfinite(gn2):
            break
        if math.sqrt(gn2) <= grad_tol * (1.0 + abs(e_w)):
            break
        eta = 1.0 / (1.0 + math.sqrt(gn2))
        if prev_w is not None:
            dw = w - prev_w
            dg = g - prev_g
            denom = float(np.dot(dg, dg))
            num = float(np.dot(dw, dg))
            if denom > 0.0 and num > 0.0:
                eta = num / denom
        moved = False
        for _ in range(60):
            result = _project_values(grid, w - eta * g)
            if result is not None:
                cand, e_c = result
                if np.isfinite(e_c) and e_c <= e_w - 1e-4 * eta * gn2:
                    prev_w, prev_g = w, g
                    w, e_w = cand, e_c
                    moved = True
                    break
            eta *= 0.5
        if not moved:
            break
    return w, e_w


def estimate_well_depth(grid: Grid, count: int = SAMPLES, seed: int = 0,
                        descent_starts: int = 12, descent_iters: int = DESCENT_ITERS,
                        grad_tol: float = 1e-9,
                        trials: Sequence[GridFunction] | None = None) -> WellDepthEstimate:
    """Upper estimate of the well depth over projected trial rays.

    Every trial is projected onto the Nehari set; the lowest rays are then
    refined by constrained descent, which never increases the estimate.
    The reported ``d_hat`` equals the energy of the returned minimizer and
    bounds every explored Nehari point from below.
    """
    if trials is None:
        trials = trial_functions(grid, count, seed)
    projected: list[tuple[float, np.ndarray]] = []
    for u in trials:
        if not np.all(np.isfinite(u.values)):
            continue
        result = _project_values(grid, u.values)
        if result is None:
            continue
        w, e_w = result
        if np.isfinite(e_w):
            projected.append((e_w, w))
    if not projected:
        raise SamplerFailure("no usable trial functions")

    projected.sort(key=lambda item: item[0])
    best_e, best_w = projected[0]
    for e_w, w in projected[:descent_starts]:
        if descent_iters > 0:
            w, e_w = _descend_on_nehari(grid, w, e_w, descent_iters, grad_tol)
        if e_w < best_e:
            best_e, best_w = e_w, w

    minimizer = project_nehari(GridFunction(grid, best_w))
    final = report(minimizer)
    return WellDepthEstimate(
        d_hat=final.energy,
        minimizer=minimizer,
        residual_I=abs(final.nehari),
        sampler_seed=seed,
    )


def growth_exponent_gamma(params) -> tuple[float, float, float]:
    """Metadata triple (gamma, rho, theta) of the log-interpolation bound.

    These exponents only enter non-computable estimates; they are reported
    for reference and never used numerically.
    """
    p = params.p
    rho = min(0.5 * params.s * p * p, 0.5)
    theta = params.s * rho / (p * (p + rho))
    gamma = (1.0 - theta) * (p + rho) / (p - theta * (p + rho))
    return gamma, rho, theta
