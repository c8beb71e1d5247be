"""Independent reference for the ``flow-large`` workload (p = 2).

At p = 2 the discrete flow is ``u' = -(L u + u (1 - log|u|))`` with the
linear pair operator ``L = (2 (diag(W 1) - W) + diag(T)) / h``.  The oracle
builds ``L`` from the grid's weights, replays the program's accepted steps
(the ``dt`` column of ``trace.csv``) with implicit Euler, solving each step
to round-off by a chord iteration, and evaluates the energy
``E = (h/2) u.L u + (3h/4) |u|^2 - (h/2) sum(u^2 log|u|)`` directly.

The proximal step minimizes ``|v - u|^2 / (2 dt) + E(v)``, whose stationary
point is exactly this implicit Euler step, so a correct inner solver agrees
with the oracle to its own tolerance while a mis-scaled kernel does not.
Only the grid weights are shared with the program; the kernel, the solver
and the energy are the oracle's own.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def _log_abs(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    nz = v != 0.0
    out[nz] = np.log(np.abs(v[nz]))
    return out


class P2Oracle:
    def __init__(self, W: np.ndarray, T: np.ndarray, h: float):
        W = np.asarray(W)
        self.h = h
        self.L = (2.0 * (np.diag(W.sum(axis=1)) - W) + np.diag(T)) / h

    def energy(self, v: np.ndarray) -> float:
        h = self.h
        return float(0.5 * h * v @ (self.L @ v) + 0.75 * h * v @ v
                     - 0.5 * h * np.sum(v * v * _log_abs(v)))

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Implicit Euler: solve v - u + dt (L v + v (1 - log|v|)) = 0.

        Chord iteration: the Jacobian ``I + dt (L - diag(log|u|))`` is
        factored once per step, at the start state.
        """
        jac = dt * self.L
        jac[np.diag_indices_from(jac)] += 1.0 - dt * _log_abs(u)
        factor = cho_factor(jac)
        v = u.copy()
        scale = np.sqrt(u @ u)
        for _ in range(100):
            residual = v - u + dt * (self.L @ v + v * (1.0 - _log_abs(v)))
            if np.sqrt(residual @ residual) <= 1e-14 * scale:
                return v
            v = v - cho_solve(factor, residual)
        raise RuntimeError("oracle iteration did not converge")

    def replay(self, u0: np.ndarray, dts: list[float]) -> np.ndarray:
        u = np.asarray(u0, dtype=float)
        for dt in dts:
            u = self.step(u, dt)
        return u
