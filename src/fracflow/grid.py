"""Uniform cell grid and quadrature weights for a singular nonlocal kernel.

States are piecewise constant on ``n`` cells of the interval ``(a, b)`` and
extend by zero to the rest of the real line.  The grid precomputes every
weight needed to evaluate the kernel ``|x - y|^(-(1 + s*p))`` against such
states:

* ``W[i, j]`` is the pair weight for cells ``i`` and ``j``.  Away from the
  diagonal (``|i - j| >= 2``) the kernel is smooth over the cell pair and the
  midpoint rule ``h^2 / |x_i - x_j|^(1+sp)`` is second-order accurate.  For
  adjacent cells the double integral is done in closed form.  The same-cell
  weight is zero: the difference ``|u(x) - u(y)|`` of a cellwise-constant
  state vanishes there identically.
* ``T[i]`` is the total tail weight of cell ``i`` against the exterior of
  ``(a, b)``, counting both orderings of the pair ``(x, y)``.  The exterior
  integral has the closed-form inner antiderivative
  ``((x - a)^(-sp) + (b - x)^(-sp)) / sp`` and is integrated over the cell
  exactly.
* ``D[i] = 2 * sum_j W[i, j] + T[i]`` is the diagonal of the p = 2 pair
  operator: there the seminorm power is ``v.(D v - 2 W v)``.

For ``s*p >= 1`` the exact adjacent and boundary-tail integrals diverge on
piecewise-constant states (such states fall outside the continuum energy
space), so the builder substitutes finite midpoint-rule weights.  The
discrete model stays well defined there, but no continuum convergence is
claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstance


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: fractional order, exponent, interval, resolution.

    Parameters
    ----------
    s : float
        Fractional differentiation order, ``0 < s < 1``.
    p : float
        Integrability exponent, ``p >= 2``.
    a, b : float
        Domain endpoints, ``a < b``.  Lengths are treated as dimensionless.
    n : int
        Number of interior cells, ``n >= 2``.
    """

    s: float
    p: float
    a: float
    b: float
    n: int

    def __post_init__(self):
        for name in ("s", "p", "a", "b"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInstance(f"{name} must be finite")
        if not 0.0 < self.s < 1.0:
            raise InvalidInstance(f"s must lie in (0, 1), got {self.s}")
        if self.p < 2.0:
            raise InvalidInstance(f"p must be >= 2, got {self.p}")
        if not self.a < self.b:
            raise InvalidInstance(f"need a < b, got a={self.a}, b={self.b}")
        if int(self.n) != self.n or self.n < 2:
            raise InvalidInstance(f"n must be an integer >= 2, got {self.n}")

    @property
    def sp(self) -> float:
        return self.s * self.p

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def measure(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Grid:
    """Immutable midpoint grid with precomputed kernel weights.

    Attributes
    ----------
    params : ModelParams
    h : float
        Cell width.
    centers : ndarray, shape (n,)
        Cell midpoints.
    W : ndarray, shape (n, n)
        Symmetric pair weights, zero diagonal, nonnegative entries.
    T : ndarray, shape (n,)
        Strictly positive tail weights (the zero extension always
        contributes).
    D : ndarray, shape (n,)
        ``2 * W.sum(axis=1) + T``, the diagonal of the p = 2 pair operator.
    """

    params: ModelParams
    h: float
    centers: np.ndarray
    W: np.ndarray
    T: np.ndarray
    D: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n


def _exact_tails(params: ModelParams) -> np.ndarray:
    # integral over cell i of the inner antiderivative, both exterior sides,
    # then doubled for the two orderings of (x, y)
    n, h, sp = params.n, params.h, params.sp
    e = 1.0 - sp
    edges = np.arange(n + 1) * h
    left = edges[1:] ** e - edges[:-1] ** e
    right = left[::-1]
    return 2.0 * (left + right) / (sp * e)


def _midpoint_tails(params: ModelParams) -> np.ndarray:
    n, h, sp = params.n, params.h, params.sp
    centers = params.a + (np.arange(n) + 0.5) * h
    inner = (centers - params.a) ** (-sp) + (params.b - centers) ** (-sp)
    return 2.0 * h * inner / sp


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def build_grid(params: ModelParams) -> Grid:
    """Assemble pair and tail weights for a problem instance.

    Parameters
    ----------
    params : ModelParams
        Validated instance description.

    Returns
    -------
    Grid
        Grid with ``W``, ``T`` and ``D`` populated as described in the module
        docstring.

    Raises
    ------
    InvalidInstance
        If a weight is not a finite float (large ``s*p`` on a fine grid).
    """
    if not isinstance(params, ModelParams):
        params = ModelParams(*params)
    n, h, sp = params.n, params.h, params.sp

    centers = params.a + (np.arange(n) + 0.5) * h
    gap = np.abs(centers[:, None] - centers[None, :])
    np.fill_diagonal(gap, np.inf)
    W = h * h / gap ** (1.0 + sp)

    if sp < 1.0:
        w_adj = (2.0 * h**(1.0 - sp) - (2.0 * h) ** (1.0 - sp)) / (sp * (1.0 - sp))
        T = _exact_tails(params)
    else:
        try:
            w_adj = h ** (1.0 - sp)
        except OverflowError:
            w_adj = math.inf
        T = _midpoint_tails(params)
    idx = np.arange(n - 1)
    W[idx, idx + 1] = w_adj
    W[idx + 1, idx] = w_adj
    D = 2.0 * W.sum(axis=1) + T
    if not (np.isfinite(W).all() and np.isfinite(T).all() and np.isfinite(D).all()):
        raise InvalidInstance(
            f"pair or tail weights overflow at s*p = {sp:g}, h = {h:g}; "
            "lower p or use a coarser grid"
        )

    for arr in (centers, W, T, D):
        arr.setflags(write=False)
    return Grid(params=params, h=h, centers=centers, W=W, T=T, D=D)
