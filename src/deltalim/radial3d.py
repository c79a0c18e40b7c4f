"""Radial 3D reduction: zero-energy resonances of -Delta + theta*W for a
radial W and the point-interaction parameter of the scaled limit.

In the spherically symmetric sector the 3D problem reduces to the half-line
problem for psi(r) = r * Psi(r): theta is resonant exactly when psi'_theta(M)
vanishes, and then the limit operator is the 3D point interaction with
alpha = (omega / psi(M)^2) * int_0^M V psi^2 -- the same alpha as the 1D
Robin limit, computed through the same code path.  Non-resonant couplings
give the free Laplacian (alpha = infinity marker).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotResonant
from .potential import Potential
from .resonance import ResonanceHit, resonance_membership, robin_alpha

__all__ = ["RadialCase", "classify_3d", "resonance_profile", "tail_mass"]

PROFILE_POINTS = 200
R_MAX_FACTOR = 10.0


@dataclass(frozen=True)
class RadialCase:
    """Outcome of the 3D classification for one (V, theta) pair."""

    V: Potential
    theta: float
    omega: float
    verdict: str                        # "resonant" | "nonresonant"
    alpha_per_omega: float              # math.inf marks the free Laplacian
    alpha: float                        # robin_alpha output, bit-exact
    profile_r: tuple[float, ...]        # log-spaced radii, empty if nonresonant
    profile_Psi: tuple[float, ...]
    hit: ResonanceHit | None = field(default=None, repr=False, compare=False)


def _psi_over_r(hit: ResonanceHit, M: float, r: np.ndarray) -> np.ndarray:
    """Psi(r) = psi(r)/r, with the flat continuation psi(M) beyond M."""
    out = np.empty(r.shape)
    inside = r <= M
    if np.any(inside):
        out[inside] = np.real(hit.trajectory(r[inside])[0]) / r[inside]
    out[~inside] = hit.psi_at_M / r[~inside]
    return out


def classify_3d(V: Potential, theta: float, omega: float,
                tol: float = 1e-6) -> RadialCase:
    """Decide the limit of the scaled 3D operators for coupling theta.

    Resonant iff theta lies in Upsilon(V) within tol; the reported alpha is
    robin_alpha on the certified hit (identical to the 1D path).
    """
    hit = resonance_membership(V, theta, tol)
    if hit is None:
        return RadialCase(V=V, theta=float(theta), omega=float(omega),
                          verdict="nonresonant", alpha_per_omega=math.inf,
                          alpha=math.inf, profile_r=(), profile_Psi=())
    alpha = robin_alpha(V, hit, omega)
    M = V.support_end
    r = np.geomspace(M * 1e-3, R_MAX_FACTOR * M, PROFILE_POINTS)
    psi = _psi_over_r(hit, M, r)
    return RadialCase(V=V, theta=hit.theta, omega=float(omega),
                      verdict="resonant",
                      alpha_per_omega=robin_alpha(V, hit, 1.0), alpha=alpha,
                      profile_r=tuple(r), profile_Psi=tuple(psi), hit=hit)


def resonance_profile(case: RadialCase, r_points) -> np.ndarray:
    """Samples of the resonance function Psi_theta(r) = psi_theta(r)/r.

    For r >= M this is psi_theta(M)/r: square-integrable against
    <x>^{-1-delta} dx but not in L^2(R^3).
    """
    if case.verdict != "resonant":
        raise NotResonant("no resonance profile for a nonresonant coupling")
    r = np.atleast_1d(np.asarray(r_points, dtype=float))
    if not np.all(r > 0):                    # NaN fails the comparison
        raise ValueError(f"radii must be positive, got {r[~(r > 0)][0]}")
    out = _psi_over_r(case.hit, case.V.support_end, r)
    if np.isscalar(r_points) or np.asarray(r_points).ndim == 0:
        return float(out[0])
    return out


def tail_mass(case: RadialCase, R: float) -> float:
    """Diagnostic: int_M^R Psi(r)^2 r^2 dr = psi(M)^2 (R - M).

    Grows without bound in R -- the numerical witness that Psi is not in
    L^2(R^3) (the divergence itself cannot be certified at finite R).
    """
    if case.verdict != "resonant":
        raise NotResonant("tail diagnostic needs a resonant case")
    M = case.V.support_end
    if not R > M:                            # NaN fails the comparison
        raise ValueError(f"R must exceed the support edge {M}, got {R}")
    return case.hit.psi_at_M ** 2 * (R - M)
