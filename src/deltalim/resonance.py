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

from .errors import BracketScanTooCoarse, DegenerateProfile
from .ode import (DEFAULT_TOL, Trajectory, _psi_trajectory, march, solve_psi,
                  taylor_endpoints)
from .potential import Potential

__all__ = [
    "ResonanceHit",
    "ScalingLaw",
    "LimitDescriptor",
    "shoot_residual",
    "find_resonances",
    "robin_alpha",
    "classify_scaling",
    "resonance_membership",
]

GRID_CELLS = 400
CHEB_NODES = 12          # Chebyshev points per certified bracket
CERTIFY_ROUNDS = 4      # node transfers per root before a bracket is too coarse
_EPS = 4 * np.finfo(float).eps     # brentq's smallest rtol


@dataclass(frozen=True)
class ResonanceHit:
    """A certified resonant coupling with its profile data."""

    theta: float
    residual: float                 # |psi'(M)| after refinement
    bracket: tuple[float, float]    # the interval the root was certified in
    psi_at_M: float
    integral_I: float               # int_0^M V psi^2
    dpsi_sq_integral: float         # int_0^M (psi')^2
    dG_dtheta: float                # sensitivity of psi'(M) to theta
    trajectory: Trajectory = field(repr=False, compare=False)  # made on read


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


def _nodes(a: float, b: float) -> np.ndarray:
    """The CHEB_NODES first-kind Chebyshev points of (a, b), ascending."""
    x = np.polynomial.chebyshev.chebpts1(CHEB_NODES)
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def _shoot_profile(V: Potential, theta: float, tol: float):
    """Zero-energy DOP853 shot at theta that also marches I' = V psi^2 and
    J' = (psi')^2 from 0, under the same error control as psi.  Returns the
    end state [psi(M), psi'(M), I, J]."""

    def rhs(x, y):
        psi, dpsi, _, _ = y.tolist()
        v = V(x)
        return [dpsi, theta * v * psi, v * psi * psi, dpsi * dpsi]

    return march(V, rhs, np.array([0.0, 1.0, 0.0, 0.0]), tol).tolist()


def _certify(V: Potential, a: float, b: float, root_tol: float,
             tol: float, known=None) -> list[ResonanceHit]:
    """Certify every root of psi'(M) that the Chebyshev points of (a, b)
    separate, and return their hits.

    A round shoots the CHEB_NODES Chebyshev points of its bracket, and the
    bracket ends, in one stacked Taylor transfer at ``tol``; ``known`` maps
    couplings already evaluated to their psi'(M), and those are not shot
    again.  In each sub-interval between adjacent points whose values change
    sign, Brent's method finds the root of the Chebyshev interpolant, and one
    scalar endpoint shot there, which also marches the profile integrals
    (and so dG/dtheta = I/psi(M)), is gated on |psi'(M)| <= root_tol*
    |dG/dtheta|*(1+|theta|).  A hit keeps psi as a ``Trajectory`` whose
    Taylor series is made on its first read.  If the gate fails, the shot's
    sign picks the half of the sub-interval that holds the root, and the
    next round shoots that half; after CERTIFY_ROUNDS rounds the bracket is
    reported as too coarse."""
    known = dict(known or {})
    hits = []
    rounds = [(a, b, 1)]
    while rounds:
        lo, hi, k = rounds.pop()
        nodes = _nodes(lo, hi)
        t = [lo, *nodes.tolist(), hi]
        todo = [x for x in t if x not in known]
        if todo:
            slopes = taylor_endpoints(V, np.array(todo), tol)[1]
            known.update(zip(todo, slopes.tolist()))
        g = np.array([known[x] for x in t])
        cheb = np.polynomial.Chebyshev.fit(nodes, g[1:-1], CHEB_NODES - 1,
                                           domain=[lo, hi])
        sign = np.sign(g)
        cross = sign[:-1] * sign[1:] <= 0.0
        cross[1:] &= g[1:-1] != 0.0     # a zero point closes one sub-interval
        for j in np.flatnonzero(cross).tolist():
            # the shot values stand at the ends, whose signs bracket the
            # root even where the interpolant is poor (a bracket end is no
            # Chebyshev point); a polynomial costs nothing to refine fully
            ends = {t[j]: g[j], t[j + 1]: g[j + 1]}
            theta = brentq(lambda x: ends[x] if x in ends else cheb(x),
                           t[j], t[j + 1], rtol=_EPS,
                           xtol=_EPS * (abs(t[j]) + abs(t[j + 1])))
            psi_m, slope, integral, slope_sq = _shoot_profile(V, theta, tol)
            if abs(psi_m) <= 1e-8 * (1.0 + abs(theta)):
                raise DegenerateProfile(
                    f"profile vanishes at the support edge for theta={theta}")
            dG = integral / psi_m
            threshold = root_tol * abs(dG) * (1.0 + abs(theta))
            if abs(slope) <= threshold:
                hits.append(ResonanceHit(
                    theta=theta,
                    residual=abs(slope),
                    bracket=(t[j], t[j + 1]),
                    psi_at_M=psi_m,
                    integral_I=integral,
                    dpsi_sq_integral=slope_sq,
                    dG_dtheta=dG,
                    trajectory=_psi_trajectory(V, theta, 0.0, (psi_m, slope),
                                               tol),
                ))
            elif k < CERTIFY_ROUNDS:
                known[theta] = slope
                below = sign[j] * np.sign(slope) < 0.0
                half = (t[j], theta) if below else (theta, t[j + 1])
                rounds.append((*half, k + 1))
            else:
                raise BracketScanTooCoarse(
                    f"bracket {(a, b)} refined to theta={theta} but residual "
                    f"{abs(slope):.3e} exceeds root_tol*|dG/dtheta|*(1+|theta|) "
                    f"= {threshold:.3e}; suspect several roots or a tangency "
                    "in one cell")
    return hits


def find_resonances(V: Potential, theta_range, max_hits: int | None = None,
                    root_tol: float = 1e-10, tol: float = 1e-12,
                    grid_cells: int = GRID_CELLS) -> list[ResonanceHit]:
    """All sign-change roots of theta -> psi'(M) in theta_range.

    A stacked grid scan with ``grid_cells`` cells finds the cells where
    psi'(M) changes sign.  Each such cell is certified by ``_certify``: one
    stacked Taylor transfer of its Chebyshev points, Brent's method on their
    interpolant and one scalar endpoint shot per root, so a cell that holds an
    odd number of roots gives all of them (an even number shows no sign
    change and is not seen).  Hits are returned ordered by |theta| (the
    physically first resonances come first for a negative range).  With
    ``max_hits``, cells are certified nearest |theta| first, and only until
    no cell left can hold a root nearer than the max_hits-th."""
    grid = scan_grid(theta_range, grid_cells, root_tol, max_hits)
    vals = taylor_endpoints(V, grid, max(tol, 1e-9))[1]

    def certify(i):
        a, b = grid[i], grid[i + 1]
        return _certify(V, a, b, root_tol, tol, {a: vals[i], b: vals[i + 1]})

    return refine_nearest_first(grid, vals, certify, [], max_hits,
                                key=lambda h: abs(h.theta))


def scan_grid(theta_range, grid_cells: int, root_tol: float,
              max_hits: int | None) -> np.ndarray:
    """The grid_cells + 1 couplings of a checked root scan of theta_range."""
    lo, hi = map(float, theta_range)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"theta_range must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError("empty theta range")
    if grid_cells < 1:
        raise ValueError(f"grid_cells must be at least 1, got {grid_cells}")
    if not 0.0 < root_tol < np.inf:
        raise ValueError(f"root_tol must be positive and finite, got {root_tol}")
    if max_hits is not None and max_hits < 0:
        raise ValueError(f"max_hits must not be negative, got {max_hits}")
    return np.linspace(lo, hi, grid_cells + 1)


def refine_nearest_first(grid, vals, refine, found, max_hits, key=abs):
    """Roots from the sign-change cells of vals on grid, ordered by key
    (|theta|).  refine(i) returns the roots of cell (grid[i], grid[i+1]);
    cells are refined nearest |theta| first and added to ``found`` (roots
    known already).  With ``max_hits``, refinement stops once no cell left
    can hold a root nearer than the max_hits-th, and the first max_hits
    roots are returned: those of refining every cell."""

    def nearest(i):
        a, b = grid[i], grid[i + 1]
        return 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))

    found = sorted(found, key=key)
    sign = np.sign(vals)
    for i in sorted(np.flatnonzero(sign[:-1] * sign[1:] < 0.0), key=nearest):
        if max_hits is not None and len(found) >= max_hits and (
                max_hits == 0 or nearest(i) >= key(found[max_hits - 1])):
            break
        found.extend(refine(i))
        found.sort(key=key)
    return found[:max_hits]


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
    decides membership).  The ends of all the brackets and the Chebyshev
    points of the innermost one are shot in one stacked Taylor transfer at
    ``ode_tol``, and ``_certify`` reads them from there: a resonance in the
    innermost bracket costs that transfer and one scalar endpoint shot."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    half = tol * (1.0 + abs(theta))
    brackets = [(theta - w * half, theta + w * half) for w in (1.0, 4.0, 16.0)]
    thetas = np.concatenate([np.ravel(brackets), _nodes(*brackets[0])])
    slopes = taylor_endpoints(V, thetas, ode_tol)[1]
    known = dict(zip(thetas.tolist(), slopes.tolist()))
    for a, b in brackets:
        fa, fb = known[a], known[b]
        if np.sign(fa) * np.sign(fb) <= 0.0:
            hits = _certify(V, a, b, max(1e-10, tol * 1e-2), ode_tol, known)
            hit = min(hits, key=lambda h: abs(h.theta - theta))
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
    if law.remainder_exponent is not None:
        return LimitDescriptor(kind="dirichlet")
    hit = resonance_membership(V, law.theta, tol)
    if hit is None:
        return LimitDescriptor(kind="dirichlet")
    return LimitDescriptor(kind="robin", alpha=robin_alpha(V, hit, law.omega))
