"""Functionals of grid states: seminorm, K-form, norms, energy, Nehari.

At p = 2 the pair term is a quadratic form: with ``D = 2 W 1 + T``
(``Grid.D``) the seminorm power is ``S = v.(D v - 2 W v)`` and the
fractional Laplacian is ``(D v - 2 W v) / h``, one matrix-vector product.
Every other pair functional, and ``k_form`` and ``frac_p_laplacian`` at
every p, starts from the difference matrix d = v_i - v_j.
``_Evaluation`` forms the seminorm power S, the p-norm power P and the log
integral L of a state in one pass, and the energy, the Nehari functional
and ``report`` from those three; the public energy functionals read it.
All integrals use the cell measure ``h``, and gradients are taken in the
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


def _differences(v: np.ndarray) -> np.ndarray:
    return v[:, None] - v[None, :]


def _pair_powers(d: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray | None]:
    """|d|**p and sign(d)|d|**(p-1) where the same products give it
    (p = 3; otherwise None).

    Bitwise equal to ``_abs_pow(d, p)`` and ``_sign_pow(d, p - 1)``: for
    p = 3, ``a = |d| * d`` is the odd power and ``a * d`` the even one.
    """
    if p == 3.0:
        a = np.abs(d)
        a *= d
        return a * d, a
    return _abs_pow(d, p), None


def _linear_pair(grid: Grid, v: np.ndarray) -> np.ndarray:
    """y = D v - 2 W v, h times the fractional Laplacian at p = 2."""
    return grid.D * v - 2.0 * (grid.W @ v)


def _fpl(grid: Grid, odd: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Fractional p-Laplacian from the odd pair power (consumed) and
    phi = sign(v)|v|**(p-1)."""
    odd *= grid.W
    return (2.0 * np.sum(odd, axis=1) + grid.T * phi) / grid.h


def _gradient(grid: Grid, v: np.ndarray, pair: np.ndarray,
              logv: np.ndarray) -> np.ndarray:
    """Energy gradient from log|v| and the pair term: ``_linear_pair`` at
    p = 2, else the odd pair power (consumed)."""
    if grid.params.p == 2.0:
        return pair / grid.h + v * (1.0 - logv)
    phi = _sign_pow(v, grid.params.p - 1.0)
    return _fpl(grid, pair, phi) + phi * (1.0 - logv)


def energy_values(grid: Grid, v: np.ndarray) -> float:
    return _Evaluation(grid, v).energy


def gradient_values(grid: Grid, v: np.ndarray) -> np.ndarray:
    p = grid.params.p
    if p == 2.0:
        pair = _linear_pair(grid, v)
    else:
        pair = _sign_pow(_differences(v), p - 1.0)
    return _gradient(grid, v, pair, _log_abs(v))


class _Evaluation:
    """One state evaluated in one pass over its pairs.

    S, P, L, the energy E = S/p + P/p - L/p + P/p^2 and the Nehari
    functional I = S + P - L are computed on construction.  At p = 2 the
    pass is one matrix-vector product: S = v.y with y = D v - 2 W v, and
    only the length-n y is kept.  Otherwise S comes from the difference
    matrix, and its odd pair power (or ``d`` itself where no product is
    shared) is kept.  The energy gradient is finished from the kept pair
    term only when ``gradient()`` is first called, and the pair term is
    dropped then, so a proximal trial that is rejected never pays for its
    gradient.  The gradient is bitwise equal to ``gradient_values`` on the
    same values.
    """

    __slots__ = ("grid", "values", "seminorm_p", "lp_p", "log_int", "energy",
                 "nehari", "_pair", "_d", "_logv", "_grad")

    def __init__(self, grid: Grid, v: np.ndarray):
        p = grid.params.p
        vp = _abs_pow(v, p)
        logv = _log_abs(v)
        d = None
        if p == 2.0:
            pair = _linear_pair(grid, v)
            s = float(np.dot(v, pair))
        else:
            d = _differences(v)
            even, pair = _pair_powers(d, p)
            even *= grid.W
            s = float(np.sum(even) + np.sum(grid.T * vp))
        pp = float(grid.h * np.sum(vp))
        li = float(grid.h * np.sum(vp * logv))
        self.grid = grid
        self.values = v
        self.seminorm_p, self.lp_p, self.log_int = s, pp, li
        self.energy = s / p + pp / p - li / p + pp / (p * p)
        self.nehari = s + pp - li
        self._pair = pair
        self._d = d if pair is None else None
        self._logv = logv
        self._grad = None

    def gradient(self) -> np.ndarray:
        """Energy gradient of the state; computed once."""
        if self._grad is None:
            pair = self._pair
            if pair is None:
                pair = _sign_pow(self._d, self.grid.params.p - 1.0)
            self._grad = _gradient(self.grid, self.values, pair, self._logv)
            self._pair = self._d = None
        return self._grad

    def report(self) -> "EnergyReport":
        return EnergyReport(
            seminorm_p=self.seminorm_p,
            lp_p=self.lp_p,
            log_int=self.log_int,
            energy=self.energy,
            nehari=self.nehari,
            l2=l2_norm(GridFunction(self.grid, self.values)),
        )


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
    return _Evaluation(u.grid, u.values).seminorm_p


def k_form(u: GridFunction, v: GridFunction) -> float:
    """Variational pairing of the fractional p-Laplacian of ``u`` with ``v``.

    Satisfies ``k_form(u, u) == seminorm_p(u)`` and the Hoelder bound
    ``|K(u, v)| <= seminorm_p(u)^((p-1)/p) * seminorm_p(v)^(1/p)``.
    """
    _require_same_grid(u, v)
    grid, q = u.grid, u.grid.params.p - 1.0
    pair = np.sum(grid.W * _sign_pow(_differences(u.values), q) * _differences(v.values))
    tail = np.sum(grid.T * _sign_pow(u.values, q) * v.values)
    return float(pair + tail)


def frac_p_laplacian(u: GridFunction) -> GridFunction:
    """Gradient of the seminorm potential ``seminorm_p(u)/p`` in the
    h-weighted pairing: ``h * sum(g_i v_i) == k_form(u, v)`` for all v."""
    q = u.grid.params.p - 1.0
    odd = _sign_pow(_differences(u.values), q)
    return GridFunction(u.grid, _fpl(u.grid, odd, _sign_pow(u.values, q)))


def lp_norm_p(u: GridFunction, q: float) -> float:
    """The integral of |u|**q over the domain (exact for cell states)."""
    if q < 1.0:
        raise ValueError(f"exponent must be >= 1, got {q}")
    return float(u.grid.h * np.sum(_abs_pow(u.values, q)))


def l2_norm(u: GridFunction) -> float:
    return float(np.sqrt(l2_inner(u, u)))


def log_integral(u: GridFunction) -> float:
    """Integral of |u|**p * log|u|, with integrand 0 where u vanishes."""
    v = u.values
    return float(u.grid.h * np.sum(_abs_pow(v, u.grid.params.p) * _log_abs(v)))


def report(u: GridFunction) -> EnergyReport:
    """Bundle every scalar diagnostic of a state."""
    return _Evaluation(u.grid, u.values).report()


def energy(u: GridFunction) -> float:
    return energy_values(u.grid, u.values)


def nehari(u: GridFunction) -> float:
    return _Evaluation(u.grid, u.values).nehari


def full_gradient(u: GridFunction) -> GridFunction:
    """h-weighted l2 gradient of the energy; the flow is u_t = -full_gradient(u)."""
    return GridFunction(u.grid, gradient_values(u.grid, u.values))


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    _require_same_grid(u, v)
    return float(u.grid.h * np.dot(u.values, v.values))
