"""Functionals of grid states: seminorm, K-form, norms, energy, Nehari.

Two layers live here.  The array functions (``seminorm_values`` and
friends) work on raw value vectors and carry the numerical load; the
``GridFunction`` wrappers implement the public operation surface.  All
integrals use the cell measure ``h``, and gradients are taken in the
h-weighted l2 pairing, so the semidiscrete flow ``u_t = -full_gradient(u)``
is exactly the collocated evolution system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceMismatch
from .grid import Grid


def _abs_pow(x: np.ndarray, q: float) -> np.ndarray:
    """|x|**q with cheap paths for the common small exponents."""
    if q == 1.0:
        return np.abs(x)
    if q == 2.0:
        return x * x
    if q == 3.0:
        return np.abs(x) * x * x
    if q == 4.0:
        sq = x * x
        return sq * sq
    return np.abs(x) ** q


def _sign_pow(x: np.ndarray, q: float) -> np.ndarray:
    """sign(x) * |x|**q, the odd power that drives the p-Laplacian.

    ``q = 1`` (the p = 2 case) short-circuits to the identity so that no
    ``0**0`` is ever formed.
    """
    if q == 1.0:
        return x
    if q == 2.0:
        return np.abs(x) * x
    if q == 3.0:
        return x * x * x
    return np.sign(x) * np.abs(x) ** q


def _log_abs(x: np.ndarray) -> np.ndarray:
    """log|x| with the convention 0 at x = 0 (values are always multiplied
    by a power of |x| that vanishes there)."""
    out = np.zeros_like(x)
    m = x != 0.0
    out[m] = np.log(np.abs(x[m]))
    return out


# ---------------------------------------------------------------------------
# array layer
#
# Every pair kernel starts from the difference matrix d = v_i - v_j.  The
# private helpers below take d or a power of it and consume it in place, so
# the public functions and the one-pass evaluator share each formula and
# its floating-point order.


def _differences(v: np.ndarray) -> np.ndarray:
    return v[:, None] - v[None, :]


def _pair_powers(d: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray | None]:
    """|d|**p and sign(d)|d|**(p-1) where the same products give it
    (p = 2, 3; otherwise None).

    Bitwise equal to ``_abs_pow(d, p)`` and ``_sign_pow(d, p - 1)``: for
    p = 3, ``a = |d| * d`` is the odd power and ``a * d`` the even one.
    At p = 2 the odd power is ``d`` itself.
    """
    if p == 2.0:
        return d * d, d
    if p == 3.0:
        a = np.abs(d)
        a *= d
        return a * d, a
    return _abs_pow(d, p), None


def _seminorm(grid: Grid, even: np.ndarray, vp: np.ndarray) -> float:
    """S from the even pair power (consumed) and |v|**p."""
    even *= grid.W
    return float(np.sum(even) + np.sum(grid.T * vp))


def _terms(grid: Grid, v: np.ndarray,
           even: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """Seminorm power S, p-norm power P, log integral L and log|v| of a
    state, from its even pair power (consumed)."""
    vp = _abs_pow(v, grid.params.p)
    logv = _log_abs(v)
    return (_seminorm(grid, even, vp), float(grid.h * np.sum(vp)),
            float(grid.h * np.sum(vp * logv)), logv)


def _fpl(grid: Grid, odd: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Fractional p-Laplacian from the odd pair power (consumed) and
    phi = sign(v)|v|**(p-1)."""
    odd *= grid.W
    return (2.0 * np.sum(odd, axis=1) + grid.T * phi) / grid.h


def _gradient(grid: Grid, v: np.ndarray, odd: np.ndarray,
              logv: np.ndarray) -> np.ndarray:
    """Energy gradient from the odd pair power (consumed) and log|v|."""
    phi = _sign_pow(v, grid.params.p - 1.0)
    return _fpl(grid, odd, phi) + phi * (1.0 - logv)


def seminorm_values(grid: Grid, v: np.ndarray) -> float:
    p = grid.params.p
    return _seminorm(grid, _abs_pow(_differences(v), p), _abs_pow(v, p))


def kform_values(grid: Grid, uv: np.ndarray, vv: np.ndarray) -> float:
    q = grid.params.p - 1.0
    du = uv[:, None] - uv[None, :]
    dv = vv[:, None] - vv[None, :]
    pair = np.sum(grid.W * _sign_pow(du, q) * dv)
    tail = np.sum(grid.T * _sign_pow(uv, q) * vv)
    return float(pair + tail)


def fpl_values(grid: Grid, v: np.ndarray) -> np.ndarray:
    q = grid.params.p - 1.0
    return _fpl(grid, _sign_pow(_differences(v), q), _sign_pow(v, q))


def lpq_values(grid: Grid, v: np.ndarray, q: float) -> float:
    return float(grid.h * np.sum(_abs_pow(v, q)))


def l2_values(grid: Grid, v: np.ndarray) -> float:
    return float(np.sqrt(grid.h * np.dot(v, v)))


def logint_values(grid: Grid, v: np.ndarray) -> float:
    p = grid.params.p
    return float(grid.h * np.sum(_abs_pow(v, p) * _log_abs(v)))


def _ray_terms(grid: Grid, v: np.ndarray) -> tuple[float, float, float]:
    """Seminorm power S, p-norm power P and log integral L of a state."""
    even = _abs_pow(_differences(v), grid.params.p)
    return _terms(grid, v, even)[:3]


def _energy(s: float, pp: float, li: float, p: float) -> float:
    """E = S/p + P/p - L/p + P/p^2; the Nehari functional is I = S + P - L."""
    return s / p + pp / p - li / p + pp / (p * p)


def energy_values(grid: Grid, v: np.ndarray) -> float:
    return _energy(*_ray_terms(grid, v), grid.params.p)


def gradient_values(grid: Grid, v: np.ndarray) -> np.ndarray:
    q = grid.params.p - 1.0
    return _gradient(grid, v, _sign_pow(_differences(v), q), _log_abs(v))


def inner_values(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    return float(grid.h * np.dot(u, v))


class _Evaluation:
    """One state evaluated from one difference matrix.

    S, P, L and the energy are computed on construction.  The energy
    gradient is finished from the kept odd pair power (or from ``d`` where
    no product is shared) only when ``gradient()`` is first called, and the
    n x n array is dropped then.  A proximal trial that is rejected never
    pays for its gradient.  Every value is bitwise equal to the public
    functions on the same values.
    """

    __slots__ = ("grid", "values", "seminorm_p", "lp_p", "log_int", "energy",
                 "_odd", "_d", "_logv", "_grad")

    def __init__(self, grid: Grid, v: np.ndarray):
        p = grid.params.p
        d = _differences(v)
        even, odd = _pair_powers(d, p)
        s, pp, li, logv = _terms(grid, v, even)
        self.grid = grid
        self.values = v
        self.seminorm_p, self.lp_p, self.log_int = s, pp, li
        self.energy = _energy(s, pp, li, p)
        self._odd = odd
        self._d = d if odd is None else None
        self._logv = logv
        self._grad = None

    def gradient(self) -> np.ndarray:
        """Energy gradient of the state; computed once."""
        if self._grad is None:
            odd = self._odd
            if odd is None:
                odd = _sign_pow(self._d, self.grid.params.p - 1.0)
            self._grad = _gradient(self.grid, self.values, odd, self._logv)
            self._odd = self._d = None
        return self._grad

    def report(self) -> "EnergyReport":
        return _report(self.grid, self.values, self.seminorm_p, self.lp_p,
                       self.log_int)


# ---------------------------------------------------------------------------
# grid-function layer


@dataclass(frozen=True)
class GridFunction:
    """Cell values of a state on a grid, implicitly zero outside the domain."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise InstanceMismatch(
                f"expected {self.grid.n} cell values, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.grid.n

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)


@dataclass(frozen=True)
class EnergyReport:
    """All scalar diagnostics of a state.

    ``energy = nehari / p + lp_p / p**2`` holds to rounding, and
    ``nehari = seminorm_p + lp_p - log_int`` by construction.
    """

    seminorm_p: float
    lp_p: float
    log_int: float
    energy: float
    nehari: float
    l2: float


def _require_same_grid(u: GridFunction, v: GridFunction):
    if u.grid is v.grid:
        return
    if u.grid.params != v.grid.params:
        raise InstanceMismatch("grid functions live on different instances")


def seminorm_p(u: GridFunction) -> float:
    """Discrete Gagliardo p-seminorm, zero-extension tail included."""
    return seminorm_values(u.grid, u.values)


def k_form(u: GridFunction, v: GridFunction) -> float:
    """Variational pairing of the fractional p-Laplacian of ``u`` with ``v``.

    Satisfies ``k_form(u, u) == seminorm_p(u)`` and the Hoelder bound
    ``|K(u, v)| <= seminorm_p(u)^((p-1)/p) * seminorm_p(v)^(1/p)``.
    """
    _require_same_grid(u, v)
    return kform_values(u.grid, u.values, v.values)


def frac_p_laplacian(u: GridFunction) -> GridFunction:
    """Gradient of the seminorm potential ``seminorm_p(u)/p`` in the
    h-weighted pairing: ``h * sum(g_i v_i) == k_form(u, v)`` for all v."""
    return GridFunction(u.grid, fpl_values(u.grid, u.values))


def lp_norm_p(u: GridFunction, q: float) -> float:
    """The integral of |u|**q over the domain (exact for cell states)."""
    if q < 1.0:
        raise ValueError(f"exponent must be >= 1, got {q}")
    return lpq_values(u.grid, u.values, q)


def l2_norm(u: GridFunction) -> float:
    return l2_values(u.grid, u.values)


def log_integral(u: GridFunction) -> float:
    """Integral of |u|**p * log|u|, with integrand 0 where u vanishes."""
    return logint_values(u.grid, u.values)


def _report(grid: Grid, v: np.ndarray, s: float, pp: float, li: float) -> EnergyReport:
    return EnergyReport(
        seminorm_p=s,
        lp_p=pp,
        log_int=li,
        energy=_energy(s, pp, li, grid.params.p),
        nehari=s + pp - li,
        l2=l2_values(grid, v),
    )


def report(u: GridFunction) -> EnergyReport:
    """Bundle every scalar diagnostic of a state."""
    return _report(u.grid, u.values, *_ray_terms(u.grid, u.values))


def energy(u: GridFunction) -> float:
    return energy_values(u.grid, u.values)


def nehari(u: GridFunction) -> float:
    s, pp, li = _ray_terms(u.grid, u.values)
    return s + pp - li


def full_gradient(u: GridFunction) -> GridFunction:
    """h-weighted l2 gradient of the energy; the flow is u_t = -full_gradient(u)."""
    return GridFunction(u.grid, gradient_values(u.grid, u.values))


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    _require_same_grid(u, v)
    return inner_values(u.grid, u.values, v.values)
