"""Resonant couplings of the zero-energy shooting problem and the Robin
parameter they induce under the critical scaling.

A coupling theta is resonant when the shooting solution psi (psi(0)=0,
psi'(0)=1) of -psi'' + theta*V*psi = 0 has psi'(M) = 0 at the edge of the
support.  At such couplings the critical schedule lambda(eps) = theta/eps^2
+ omega/eps drives the scaled operators to the Robin Laplacian with
alpha = omega * int_0^M V psi^2 / psi(M)^2; every other schedule yields the
Dirichlet Laplacian.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import quadrature
from .errors import BracketScanTooCoarse, DegenerateProfile
from .ode import DEFAULT_TOL, Trajectory, march, solve_psi
from .potential import Potential

__all__ = [
    "ResonanceHit",
    "ScalingLaw",
    "LimitDescriptor",
    "shoot_residual",
    "find_resonances",
    "dG_dtheta_variational",
    "robin_alpha",
    "classify_scaling",
    "resonance_membership",
]

GRID_CELLS = 400
QUAD_NODES = 20
QUAD_MAX_PANEL = 0.5


@dataclass(frozen=True)
class ResonanceHit:
    """A certified resonant coupling with its profile data."""

    theta: float
    residual: float                 # |psi'(M)| after refinement
    bracket: tuple[float, float]
    psi_at_M: float
    integral_I: float               # int_0^M V psi^2
    dpsi_sq_integral: float         # int_0^M (psi')^2
    dG_dtheta: float                # sensitivity of psi'(M) to theta
    trajectory: Trajectory = field(repr=False, compare=False)


@dataclass(frozen=True)
class ScalingLaw:
    """Coupling schedule lambda(eps) = theta/eps^2 + omega/eps, or with a
    sub-critical remainder lambda(eps) = theta/eps^2 + omega*eps^-gamma_r."""

    theta: float
    omega: float
    remainder_exponent: float | None = None

    def __post_init__(self):
        g = self.remainder_exponent
        if g is not None and not 1.0 < g < 2.0:
            raise ValueError("remainder exponent must lie in (1, 2)")

    def coupling(self, eps: float) -> float:
        if self.remainder_exponent is None:
            return self.theta / eps ** 2 + self.omega / eps
        return self.theta / eps ** 2 + self.omega * eps ** (-self.remainder_exponent)


@dataclass(frozen=True)
class LimitDescriptor:
    kind: str                      # "robin" | "dirichlet"
    alpha: float | None = None


def shoot_residual(V: Potential, theta: float, tol: float = DEFAULT_TOL):
    """Endpoint data (psi(M), psi'(M)) of the zero-energy shooting solution."""
    end = solve_psi(V, theta, 0.0, 0.0, tol).endpoint
    return float(np.real(end.value)), float(np.real(end.derivative))


def _scan_slopes(V: Potential, thetas: np.ndarray, tol: float) -> np.ndarray:
    """psi'(M) for a whole grid of couplings in one stacked integration.

    The scan only needs signs, so the couplings share adaptive steps; each
    bracket is re-solved at full accuracy during certification."""
    n = thetas.size

    def rhs(x, y):
        v = V(x)
        return np.concatenate([y[n:], (thetas * v) * y[:n]])

    y0 = np.concatenate([np.zeros(n), np.ones(n)])
    return march(V, rhs, y0, tol)[1][n:]


def _profile_integrals(V: Potential, traj: Trajectory):
    """int_0^M V psi^2 and int_0^M (psi')^2 on one set of panel nodes."""
    nodes, weights = quadrature.panel_nodes(
        0.0, V.support_end, V.breakpoints, QUAD_NODES, QUAD_MAX_PANEL)
    val, der = traj(nodes)
    integral = np.sum(weights * (V(nodes) * np.real(val) ** 2))
    slope = np.sum(weights * np.real(der) ** 2)
    return float(integral), float(slope)


def _certify(V: Potential, a: float, b: float, root_tol: float,
             tol: float, known=None) -> ResonanceHit:
    """Refine a sign-change bracket by Brent's method to width
    root_tol*(1+|theta|)/4 and assemble the certified hit.  ``known`` maps
    couplings already shot at ``tol`` to their psi'(M), so the bracket ends
    are not shot again."""
    known = known or {}

    def slope(t):
        return known[t] if t in known else shoot_residual(V, t, tol)[1]

    theta = brentq(slope, a, b,
                   xtol=0.25 * root_tol,
                   rtol=max(0.25 * root_tol, 4 * np.finfo(float).eps))
    traj = solve_psi(V, theta, 0.0, 0.0, tol)
    psi_m = float(np.real(traj.endpoint.value))
    residual = abs(float(np.real(traj.endpoint.derivative)))
    if abs(psi_m) <= 1e-8 * (1.0 + abs(theta)):
        raise DegenerateProfile(
            f"profile vanishes at the support edge for theta={theta}")
    integral, slope_sq = _profile_integrals(V, traj)
    dG = integral / psi_m
    threshold = root_tol * abs(dG) * (1.0 + abs(theta))
    if residual > threshold:
        raise BracketScanTooCoarse(
            f"bracket {(a, b)} refined to theta={theta} but residual "
            f"{residual:.3e} exceeds root_tol*|dG/dtheta|*(1+|theta|) = "
            f"{threshold:.3e}; suspect several roots or a tangency in one cell")
    return ResonanceHit(
        theta=theta,
        residual=residual,
        bracket=(a, b),
        psi_at_M=psi_m,
        integral_I=integral,
        dpsi_sq_integral=slope_sq,
        dG_dtheta=dG,
        trajectory=traj,
    )


def find_resonances(V: Potential, theta_range, max_hits: int | None = None,
                    root_tol: float = 1e-10, tol: float = 1e-12,
                    grid_cells: int = GRID_CELLS) -> list[ResonanceHit]:
    """All sign-change roots of theta -> psi'(M) in theta_range.

    Grid scan with ``grid_cells`` cells, then Brent's method on each
    sign-change bracket; hits are returned ordered by |theta| (the
    physically first resonances come first for a negative range).  With
    ``max_hits``, brackets are certified nearest |theta| first, and only
    until no bracket left can hold a root nearer than the max_hits-th."""
    lo, hi = map(float, theta_range)
    if not lo < hi:
        raise ValueError("empty theta range")
    grid = np.linspace(lo, hi, grid_cells + 1)
    vals = _scan_slopes(V, grid, max(tol, 1e-9))

    def nearest(bracket):
        a, b = bracket
        return 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))

    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    keep = cells.size if max_hits is None else max_hits
    hits = []
    for bracket in sorted(zip(grid[cells], grid[cells + 1]), key=nearest):
        if len(hits) >= keep and (
                not hits or nearest(bracket) >= abs(hits[keep - 1].theta)):
            break
        hits.append(_certify(V, *bracket, root_tol, tol))
        hits.sort(key=lambda h: abs(h.theta))
    return hits[:keep]


def dG_dtheta_variational(V: Potential, theta: float,
                          tol: float = 1e-12) -> float:
    """Independent route to ResonanceHit.dG_dtheta: solve the variational
    system for g = d(psi)/d(theta) alongside psi and return g'(M)."""

    def rhs(x, y):
        v = V(x)
        return [y[1], theta * v * y[0], y[3], theta * v * y[2] + v * y[0]]

    return float(march(V, rhs, np.array([0.0, 1.0, 0.0, 0.0]), tol)[1][3])


def robin_alpha(V: Potential, hit: ResonanceHit, omega: float) -> float:
    """Robin parameter selected by the critical schedule with slope omega."""
    if abs(hit.psi_at_M) <= 1e-8 * (1.0 + abs(hit.theta)):
        raise DegenerateProfile("psi(M) vanishes; hit cannot be resonant")
    return omega * hit.integral_I / hit.psi_at_M ** 2


def resonance_membership(V: Potential, theta: float, tol: float = 1e-6,
                         ode_tol: float = 1e-12) -> ResonanceHit | None:
    """Certified hit within tol*(1+|theta|) of theta, or None.

    Looks for a sign change of psi'(M) in a sequence of growing brackets
    around theta (the resonant set is discrete, so a tight local bracket
    decides membership)."""
    half = tol * (1.0 + abs(theta))
    for widen in (1.0, 4.0, 16.0):
        a, b = theta - widen * half, theta + widen * half
        fa = shoot_residual(V, a, ode_tol)[1]
        fb = shoot_residual(V, b, ode_tol)[1]
        if fa == 0.0 or fb == 0.0 or fa * fb < 0.0:
            hit = _certify(V, a, b, max(1e-10, tol * 1e-2), ode_tol,
                           {a: fa, b: fb})
            if abs(hit.theta - theta) <= tol * (1.0 + abs(theta)):
                return hit
            return None
    return None


def classify_scaling(V: Potential, law: ScalingLaw,
                     tol: float = 1e-6) -> LimitDescriptor:
    """Limit operator selected by a coupling schedule.

    Robin(alpha) only for a resonant theta with the critical omega/eps term;
    a non-resonant theta, or any sub-critical remainder exponent in (1, 2),
    gives the Dirichlet Laplacian."""
    hit = resonance_membership(V, law.theta, tol)
    if hit is None or law.remainder_exponent is not None:
        return LimitDescriptor(kind="dirichlet")
    return LimitDescriptor(kind="robin", alpha=robin_alpha(V, hit, law.omega))
