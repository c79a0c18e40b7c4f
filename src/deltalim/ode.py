"""Cauchy problems for the half-line Schrodinger reductions.

Solves -psi'' + (theta*V - gamma*z)*psi = 0 on [0, M] with adaptive
high-order Runge-Kutta stepping (DOP853), restarting at every breakpoint of V
so that coefficient discontinuities never sit inside a step.  ``march`` is
the one such integrator: shooting, the interior basis (u, v) and the
stacked endpoint shots differ only in the right-hand side and initial state
they hand it.  Small-range solves at scale eps are always
routed through the rescaling u(x) = eps * psi_{eps^2*lambda, eps^2}(x / eps),
which keeps the integrated problem O(1) in the regime |lambda| = O(eps^-2).
Along a critical schedule eps^2*lambda(eps) = theta + omega*eps, so the
bases of a whole eps sequence are marched together, on one set of steps.
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
        y = sol.y[:, -1].copy()
    return segments, y


def _energy_and_state(gamma, z, y0):
    """gamma*z (scalar or per coupling) and the initial state, both complex
    only for a nonreal energy, so that real problems integrate in real
    arithmetic.  A scalar gamma*z is a Python number: scalar right-hand
    sides are faster without numpy scalars."""
    gz = np.multiply(gamma, z)
    if not np.any(np.imag(gz)):
        gz = np.real(gz)
    return (gz.item() if gz.ndim == 0 else gz), np.asarray(y0, dtype=gz.dtype)


def solve_psi(V: Potential, theta: float, gamma: float = 0.0, z=0.0,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Solution of -psi'' + (theta*V - gamma*z)*psi = 0, psi(0)=0, psi'(0)=1."""
    gz, y0 = _energy_and_state(gamma, z, (0.0, 1.0))

    def rhs(x, y):
        return [y[1], (theta * V(x) - gz) * y[0]]

    return Trajectory(*march(V, rhs, y0, tol, dense=True))


def solve_uv(V: Potential, lam, eps, z, tol: float = DEFAULT_TOL):
    """Interior basis (u, v) on [0, eps*M]: u(0)=0, u'(0)=1 and v(0)=1,
    v'(0)=0, so W(u, v) = -1.

    Both come from a march of (psi, psi', psi~, psi~') at theta =
    eps^2*lam, gamma = eps^2, and read its segments as two rescaled views:
    u(x) = eps*psi(x/eps) and v(x) = psi~(x/eps), whose slope is divided by
    eps instead.  For sequences lam and eps, every pair (lam_k, eps_k) is
    one block of four rows of a single stacked march, and the result is the
    list of their (u, v); each view reads its own rows of the shared
    segments.  The pairs share adaptive steps, so the error control is over
    all of them together.
    """
    lams, epss = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(eps, dtype=float))
    if np.any(epss <= 0):
        raise ValueError("eps must be positive")
    epss = np.atleast_1d(epss)
    theta = np.repeat(epss * epss * np.atleast_1d(lams), 2)   # per (value, slope) pair
    gz, y0 = _energy_and_state(np.repeat(epss * epss, 2), z,
                               np.tile((0.0, 1.0, 1.0, 0.0), epss.size))

    def rhs(x, y):
        dy = np.empty_like(y)
        dy[0::2] = y[1::2]
        dy[1::2] = (theta * V(x) - gz) * y[0::2]
        return dy

    segments, y_end = march(V, rhs, y0, tol, dense=True)
    bases = [(ScaledTrajectory(Trajectory(segments, y_end, 4 * k), e, e, 1.0),
              ScaledTrajectory(Trajectory(segments, y_end, 4 * k + 2), e, 1.0, e))
             for k, e in enumerate(epss.tolist())]
    return bases[0] if lams.ndim == 0 else bases
