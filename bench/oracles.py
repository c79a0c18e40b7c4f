"""Independent references the benchmark checks deltalim's outputs against.

Nothing here imports deltalim: potentials are evaluated from their
coefficients, Airy functions come from scipy.special, and ODEs are solved
through this module's own binding of scipy's solve_ivp, so the tracer (which
patches scipy.integrate.solve_ivp) never sees oracle work.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import airy


# ---------------------------------------------------------------------------
# potentials as plain data: (breakpoints, coeffs) with coeffs[i] = (c0..c3)
# ---------------------------------------------------------------------------

def poly_value(breakpoints, coeffs, x):
    """V(x) for x in [0, M] (array), Horner per piece."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(breakpoints, x, side="right") - 1,
                  0, len(coeffs) - 1)
    c = np.asarray(coeffs, dtype=float)[idx]
    return c[..., 0] + x * (c[..., 1] + x * (c[..., 2] + x * c[..., 3]))


def wkb_action(breakpoints, coeffs, samples: int = 400) -> float:
    """S = int_0^M sqrt(max(V, 0)) dx; resonances of a positive V sit near
    sqrt(|theta|) * S = pi * (k + 1/2)."""
    total = 0.0
    for i, (lo, hi) in enumerate(zip(breakpoints[:-1], breakpoints[1:])):
        x = np.linspace(lo, hi, samples)
        v = poly_value(breakpoints[i:i + 2], [coeffs[i]], x)
        total += np.trapezoid(np.sqrt(np.maximum(v, 0.0)), x)
    return float(total)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def square_roots(lo: float, hi: float) -> list[float]:
    """Resonant couplings -(pi (k + 1/2))^2 of the unit square well in
    [lo, hi], ascending."""
    out = []
    k = 0
    while True:
        theta = -(math.pi * (k + 0.5)) ** 2
        if theta < lo:
            return sorted(out)
        if theta <= hi:
            out.append(theta)
        k += 1


def linear_residual(xi: float, theta):
    """Ai(s) Bi'(s(1-xi)) - Bi(s) Ai'(s(1-xi)), s = cbrt(theta/xi^2): a
    positive multiple of psi'(1) for V = (1 - xi x) on [0, 1]."""
    s = np.cbrt(np.asarray(theta, dtype=float) / (xi * xi))
    ai_s, _, bi_s, _ = airy(s)
    _, dai_w, _, dbi_w = airy(s * (1.0 - xi))
    return ai_s * dbi_w - bi_s * dai_w


def linear_roots(xi: float, lo: float, hi: float) -> list[float]:
    """Roots of linear_residual in [lo, hi] (lo < hi < 0), ascending.

    The grid keeps about 64 samples per root spacing, which for
    sqrt(|theta|) is at least pi / sqrt(1 + xi)."""
    a, b = math.sqrt(-hi), math.sqrt(-lo)
    n = max(64, int(64 * (b - a) * math.sqrt(1.0 + abs(xi)) / math.pi) + 1)
    grid = -np.linspace(b, a, n + 1) ** 2
    vals = linear_residual(xi, grid)
    roots = []
    for t0, t1, f0, f1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if f0 == 0.0:
            roots.append(float(t0))
        elif f0 * f1 < 0.0:
            roots.append(brentq(lambda t: float(linear_residual(xi, t)),
                                t0, t1, xtol=1e-14, rtol=1e-15))
    return roots


def linear_alpha(xi: float, theta: float, omega: float) -> float:
    """Robin parameter of V_xi at a resonance, from scipy's Airy functions:
    -(omega / (3 xi s)) [(Ai'(s(1-xi)) / Ai(s))^2 + s (1-xi)^2]."""
    s = float(np.cbrt(theta / (xi * xi)))
    ai_s = airy(s)[0]
    dai_w = airy(s * (1.0 - xi))[1]
    return -(omega / (3.0 * xi * s)) * ((dai_w / ai_s) ** 2 + s * (1.0 - xi) ** 2)


# ---------------------------------------------------------------------------
# Pruefer phase: exact resonance counts for a positive V
# ---------------------------------------------------------------------------

def prufer_phase(breakpoints, coeffs, theta: float) -> float:
    """Scaled Pruefer angle phi(M) of the zero-energy shooting solution for
    theta < 0 and V > 0.

    With psi = r sin(phi) / sqrt(S), psi' = r sqrt(S) cos(phi) and a constant
    scale S per piece, phi' = S cos^2 phi + (|theta| V / S) sin^2 phi stays
    smooth, and psi'(M) = 0 exactly when phi(M) = pi/2 (mod pi).  Rescaling
    at a breakpoint keeps phi in its branch between multiples of pi/2."""
    q = -float(theta)
    phi = 0.0
    scale_prev = None
    for i, (lo, hi) in enumerate(zip(breakpoints[:-1], breakpoints[1:])):
        row = coeffs[i]
        mid = 0.5 * (lo + hi)
        scale = math.sqrt(q * float(poly_value((lo, hi), [row], mid)))
        if scale_prev is not None:
            m = math.floor(phi / math.pi + 0.5)
            beta = phi - m * math.pi
            phi = m * math.pi + math.atan(scale / scale_prev * math.tan(beta))
        c0, c1, c2, c3 = row

        def rhs(x, y, scale=scale, c0=c0, c1=c1, c2=c2, c3=c3):
            v = c0 + x * (c1 + x * (c2 + x * c3))
            s = math.sin(y[0])
            c = math.cos(y[0])
            return [scale * c * c + (q * v / scale) * s * s]

        sol = solve_ivp(rhs, (lo, hi), [phi], method="DOP853",
                        rtol=1e-11, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"Pruefer phase failed: {sol.message}")
        phi = float(sol.y[0, -1])
        scale_prev = scale
    return phi


def prufer_count(breakpoints, coeffs, lo: float, hi: float) -> int:
    """Number of resonant couplings in [lo, hi] (lo < hi < 0) of a positive
    V: phi(M; theta) is increasing in |theta|, so it is the number of
    pi/2 + k pi levels between the phases at the two window ends."""
    def level(phi):
        return math.floor((phi - 0.5 * math.pi) / math.pi)

    return (level(prufer_phase(breakpoints, coeffs, lo))
            - level(prufer_phase(breakpoints, coeffs, hi)))


def prufer_offset(breakpoints, coeffs, theta: float) -> float:
    """Distance of phi(M; theta) from the nearest pi/2 + k pi level: zero
    at a resonance."""
    phi = prufer_phase(breakpoints, coeffs, theta)
    return abs(math.remainder(phi - 0.5 * math.pi, math.pi))
