"""Cauchy problems for the half-line Schrodinger reductions.

Solves -psi'' + (theta*V - gamma*z)*psi = 0 on [0, M] with adaptive
high-order Runge-Kutta stepping (DOP853), restarting at every breakpoint of V
so that coefficient discontinuities never sit inside a step.  ``march`` is
the one such integrator: shooting, the interior basis (u, v), the stacked
coupling scan and the variational system differ only in the right-hand side
and initial state they hand it.  Small-range solves at scale eps are always
routed through the rescaling u(x) = eps * psi_{eps^2*lambda, eps^2}(x / eps),
which keeps the integrated problem O(1) in the regime |lambda| = O(eps^-2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonConvergence
from .potential import Potential

__all__ = [
    "CauchyState",
    "Trajectory",
    "ScaledTrajectory",
    "march",
    "solve_psi",
    "solve_u",
    "solve_uv",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CauchyState:
    """Solution value and derivative at a point."""

    x: float
    value: complex
    derivative: complex


class Trajectory:
    """Dense solution of a second-order Cauchy problem on [0, x_end]: rows
    (row, row + 1) of the marched state, read as (value, derivative)."""

    def __init__(self, segments, y_end, row: int = 0):
        self._segments = segments          # list of (t0, t1, OdeSolution)
        self._edges = np.array([s[0] for s in segments] + [segments[-1][1]])
        self._rows = slice(row, row + 2)
        self._y_end = y_end[self._rows]    # (value, derivative) at x_end

    @property
    def x_end(self) -> float:
        return float(self._edges[-1])

    @property
    def endpoint(self) -> CauchyState:
        return CauchyState(self.x_end, self._y_end[0], self._y_end[1])

    def __call__(self, x):
        """Return (value, derivative) at x (scalar or array) via the
        integrator's dense interpolant."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((2, xs.size), dtype=self._y_end.dtype)
        idx = np.clip(np.searchsorted(self._edges, xs, side="right") - 1,
                      0, len(self._segments) - 1)
        for i in range(len(self._segments)):
            sel = idx == i
            if np.any(sel):
                out[:, sel] = self._segments[i][2](xs[sel])[self._rows]
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return out[0, 0], out[1, 0]
        return out[0], out[1]


class ScaledTrajectory:
    """View of a [0, M] trajectory rescaled to [0, eps*M]: value
    factor*base(x/eps), derivative base'(x/eps)/divisor.  The interior
    solution u takes (factor, divisor) = (eps, 1), its companion v takes
    (1, eps)."""

    def __init__(self, base: Trajectory, eps: float, factor: float,
                 divisor: float):
        self.base = base
        self.eps = float(eps)
        self.factor = float(factor)
        self.divisor = float(divisor)

    @property
    def x_end(self) -> float:
        return self.eps * self.base.x_end

    @property
    def endpoint(self) -> CauchyState:
        end = self.base.endpoint
        return CauchyState(self.x_end, self.factor * end.value,
                           end.derivative / self.divisor)

    def __call__(self, x):
        v, d = self.base(np.asarray(x) / self.eps)
        return self.factor * v, d / self.divisor


def march(V: Potential, rhs, y0, tol: float, dense: bool = False):
    """Integrate y' = rhs(x, y) from 0 to the support edge of V, restarting
    at every breakpoint.  Returns the pieces (lo, hi, OdeSolution or None)
    and the state at the edge."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    cuts = V.breakpoints
    segments = []
    y = np.asarray(y0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853",
                        rtol=tol, atol=tol * 1e-3, dense_output=dense)
        if not sol.success or not np.all(np.isfinite(sol.y)):
            raise NonConvergence(f"integration failed on [{lo}, {hi}]: {sol.message}")
        segments.append((lo, hi, sol.sol))
        y = sol.y[:, -1]
    return segments, y


def _energy_and_state(gamma, z, y0):
    """gamma*z and the initial state, both complex only for a nonreal
    energy, so that real problems integrate in real arithmetic."""
    gz = gamma * z
    if np.iscomplexobj(np.asarray(gz)) and np.imag(gz) != 0.0:
        return complex(gz), np.asarray(y0, dtype=complex)
    return float(np.real(gz)), np.asarray(y0, dtype=float)


def solve_psi(V: Potential, theta: float, gamma: float = 0.0, z=0.0,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Solution of -psi'' + (theta*V - gamma*z)*psi = 0, psi(0)=0, psi'(0)=1."""
    gz, y0 = _energy_and_state(gamma, z, (0.0, 1.0))

    def rhs(x, y):
        return [y[1], (theta * V(x) - gz) * y[0]]

    return Trajectory(*march(V, rhs, y0, tol, dense=True))


def solve_u(V: Potential, lam: float, eps: float, z,
            tol: float = DEFAULT_TOL) -> ScaledTrajectory:
    """Interior solution u on [0, eps*M] with u(0)=0, u'(0)=1, computed on the
    fixed domain [0, M] via the rescaling identity."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = solve_psi(V, eps * eps * lam, eps * eps, z, tol)
    return ScaledTrajectory(base, eps, eps, 1.0)


def solve_uv(V: Potential, lam: float, eps: float, z,
             tol: float = DEFAULT_TOL):
    """Interior basis (u, v) on [0, eps*M]: u(0)=0, u'(0)=1 as in solve_u and
    v(0)=1, v'(0)=0, so W(u, v) = -1.

    Both come from one march of (psi, psi', psi~, psi~') at theta =
    eps^2*lam, gamma = eps^2, and read its segments as two rescaled views:
    u(x) = eps*psi(x/eps) and v(x) = psi~(x/eps), whose slope is divided by
    eps instead.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = eps * eps * lam
    gz, y0 = _energy_and_state(eps * eps, z, (0.0, 1.0, 1.0, 0.0))

    def rhs(x, y):
        q = theta * V(x) - gz
        return [y[1], q * y[0], y[3], q * y[2]]

    segments, y_end = march(V, rhs, y0, tol, dense=True)
    return (ScaledTrajectory(Trajectory(segments, y_end, 0), eps, eps, 1.0),
            ScaledTrajectory(Trajectory(segments, y_end, 2), eps, 1.0, eps))
