"""Cauchy problems for the half-line Schrodinger reductions.

Solves -psi'' + (theta*V - gamma*z)*psi = 0 on [0, M] with adaptive
high-order Runge-Kutta stepping (DOP853), restarting at every breakpoint of V
so that coefficient discontinuities never sit inside a step.  ``march`` is
the one such integrator: shooting, the stacked coupling scan and the
variational system differ only in the right-hand side they hand it.
Small-range solves at scale eps are always routed through the rescaling
u(x) = eps * psi_{eps^2*lambda, eps^2}(x / eps), which keeps the integrated
problem O(1) in the regime |lambda| = O(eps^-2).
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
    "solve_psi_tilde",
    "solve_u",
    "solve_u_tilde",
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
    """Dense solution of a second-order Cauchy problem on [0, x_end]."""

    def __init__(self, segments, y_end):
        self._segments = segments          # list of (t0, t1, OdeSolution)
        self._edges = np.array([s[0] for s in segments] + [segments[-1][1]])
        self._y_end = y_end                # (value, derivative) at x_end

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
                out[:, sel] = self._segments[i][2](xs[sel])
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


def _solve_second_order(V, theta, gamma, z, tol, y0):
    gz = gamma * z
    if np.iscomplexobj(np.asarray(gz)) and np.imag(gz) != 0.0:
        y0 = np.asarray(y0, dtype=complex)
        gz = complex(gz)
    else:
        y0 = np.asarray(y0, dtype=float)
        gz = float(np.real(gz))

    def rhs(x, y):
        return [y[1], (theta * V(x) - gz) * y[0]]

    return Trajectory(*march(V, rhs, y0, tol, dense=True))


def solve_psi(V: Potential, theta: float, gamma: float = 0.0, z=0.0,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Solution of -psi'' + (theta*V - gamma*z)*psi = 0, psi(0)=0, psi'(0)=1."""
    return _solve_second_order(V, theta, gamma, z, tol, (0.0, 1.0))


def solve_psi_tilde(V: Potential, theta: float, gamma: float = 0.0, z=0.0,
                    tol: float = DEFAULT_TOL) -> Trajectory:
    """Companion solution with psi(0)=1, psi'(0)=0 (spans the solution space
    together with solve_psi; their Wronskian is -1)."""
    return _solve_second_order(V, theta, gamma, z, tol, (1.0, 0.0))


def solve_u(V: Potential, lam: float, eps: float, z,
            tol: float = DEFAULT_TOL) -> ScaledTrajectory:
    """Interior solution u on [0, eps*M] with u(0)=0, u'(0)=1, computed on the
    fixed domain [0, M] via the rescaling identity."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = solve_psi(V, eps * eps * lam, eps * eps, z, tol)
    return ScaledTrajectory(base, eps, eps, 1.0)


def solve_u_tilde(V: Potential, lam: float, eps: float, z,
                  tol: float = DEFAULT_TOL) -> ScaledTrajectory:
    """Second interior solution v with v(0)=1, v'(0)=0 on [0, eps*M].

    v(x) = psi_tilde_{eps^2*lam, eps^2}(x/eps) solves the same scaled equation;
    no eps prefactor is needed for the Wronskian with u to stay nonzero.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = solve_psi_tilde(V, eps * eps * lam, eps * eps, z, tol)
    return ScaledTrajectory(base, eps, 1.0, eps)
