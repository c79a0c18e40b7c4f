"""Exact resolvent kernels of the scaled operators and their limits.

The operator H = -d^2/dx^2 + lam*V(x/eps) on the half-line with a Dirichlet
condition at 0 has, for z off the spectrum, the Green kernel

    G_z(x, y) = phi1(x ^ y) * phi2(x v y) / (2*a*kappa),

where phi1 matches the interior Cauchy solution u (u(0)=0, u'(0)=1) to the
exterior combination a*e^{kappa*x} + b*e^{-kappa*x}, phi2 is the decaying
exterior solution e^{-kappa*x} continued into [0, eps*M] by C^1 matching,
and kappa = sqrt(-z) on the branch with Re kappa > 0.  The normalization is
pinned by the jump condition d/dx G(y+, y) - d/dx G(y-, y) = -1 and by the
requirement that V = 0 reproduces the standard Dirichlet kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import SingularWronskian
from .ode import DEFAULT_TOL, solve_u, solve_uv
from .potential import Potential
from .resonance import ScalingLaw, classify_scaling

__all__ = [
    "KernelEval",
    "AlphaEstimate",
    "ConvergenceRow",
    "decay_rate",
    "kernel_scaled",
    "kernel_reference",
    "apply_resolvent",
    "estimate_alpha",
    "convergence_study",
]

WRONSKIAN_FLOOR = 1e-14
QUAD_NODES = 20
QUAD_MAX_PANEL = 0.5
DEFAULT_Y_MAX = 50.0


def decay_rate(z) -> complex:
    """kappa = sqrt(-z) with Re kappa > 0, so that e^{-kappa*x} is the
    decaying solution of -f'' - z f = 0."""
    kappa = complex(np.sqrt(complex(-np.real(z), -np.imag(z))))
    if kappa.real <= 0.0:
        raise ValueError("z must lie off [0, inf); no decaying branch")
    return kappa


@dataclass(frozen=True)
class KernelEval:
    """Pointwise-evaluable resolvent kernel G_z(x, y).

    ``kind`` is one of "scaled", "robin", "dirichlet".  The exterior part of
    phi1 is a*e^{kappa*x} + b*e^{-kappa*x} in every case (x_m = 0 for the
    reference kernels); phi2 is e^{-kappa*x} outside and c*v + d*u inside.
    """

    kind: str
    z: complex
    kappa: complex
    a: complex
    b: complex
    c: complex = 0j
    d: complex = 0j
    K: complex = 0j                   # Wronskian W(phi1, phi2) = -2*a*kappa
    x_m: float = 0.0                  # eps * M, edge of the shrunk support
    alpha: float | None = None
    lam: float | None = None
    eps: float | None = None
    u: object = field(default=None, repr=False, compare=False)
    v: object = field(default=None, repr=False, compare=False)

    def __call__(self, x, y):
        xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(y, dtype=float))
        if np.any(xs < 0) or np.any(ys < 0):
            raise ValueError("kernel arguments must be nonnegative")
        s = np.minimum(xs, ys).ravel()
        t = np.maximum(xs, ys).ravel()
        k = self.kappa
        out = np.empty(s.shape, dtype=complex)
        ext = s >= self.x_m
        if np.any(ext):
            # e^{-kappa*x} kept outermost so nothing overflows for large x
            se, te = s[ext], t[ext]
            out[ext] = (np.exp(-k * (te - se))
                        + (self.b / self.a) * np.exp(-k * (te + se))) / (2.0 * k)
        inn = ~ext
        if np.any(inn):
            si, ti = s[inn], t[inn]
            phi1 = self.u(si)[0]
            # the trajectories are read only where t sits inside [0, x_m]
            phi2 = np.exp(-k * ti)
            mid = ti <= self.x_m
            if np.any(mid):
                tm = ti[mid]
                phi2[mid] = self.c * self.v(tm)[0] + self.d * self.u(tm)[0]
            out[inn] = phi1 * phi2 / (2.0 * self.a * k)
        out = out.reshape(xs.shape)
        if np.isscalar(x) and np.isscalar(y):
            return complex(out.reshape(())[()])
        return out


def kernel_scaled(V: Potential, lam: float, eps: float, z,
                  tol: float = DEFAULT_TOL) -> KernelEval:
    """Assembled kernel of -d^2 + lam*V(./eps) - z on the half-line."""
    kappa = decay_rate(z)
    u, v = solve_uv(V, lam, eps, z, tol)
    x_m = u.x_end
    ue, ve = u.endpoint, v.endpoint
    decay = np.exp(-kappa * x_m)
    # C^1 matching of phi1 = u to a*e^{kappa*x} + b*e^{-kappa*x} at x_m
    a = 0.5 * decay * (ue.value + ue.derivative / kappa)
    b = 0.5 * np.exp(kappa * x_m) * (ue.value - ue.derivative / kappa)
    K = -2.0 * a * kappa
    if abs(K) < WRONSKIAN_FLOOR:
        raise SingularWronskian(
            f"Wronskian |K| = {abs(K):.2e} below floor; z too close to the "
            f"spectrum at working precision")
    # C^1 matching of phi2 = c*v + d*u to e^{-kappa*x} at x_m, by Cramer's
    # rule; det = -W(u, v) is 1 up to the integration error (Liouville)
    det = ve.value * ue.derivative - ue.value * ve.derivative
    c = decay * (ue.derivative + kappa * ue.value) / det
    d = -decay * (ve.derivative + kappa * ve.value) / det
    return KernelEval(kind="scaled", z=complex(z), kappa=kappa,
                      a=complex(a), b=complex(b), c=complex(c), d=complex(d),
                      K=complex(K), x_m=x_m, lam=float(lam), eps=float(eps),
                      u=u, v=v)


def kernel_reference(kind: str, z, alpha: float | None = None) -> KernelEval:
    """Closed-form kernels of the limit operators.

    Dirichlet: G = (e^{-kappa|x-y|} - e^{-kappa(x+y)})/(2 kappa).
    Robin(alpha): G = u1(min) e^{-kappa*max}/(kappa + alpha) with
    u1 = cosh(kappa x) + (alpha/kappa) sinh(kappa x); alpha f(0) = f'(0).
    """
    kappa = decay_rate(z)
    if kind == "dirichlet":
        a, b = 1.0 / (2.0 * kappa), -1.0 / (2.0 * kappa)
        return KernelEval(kind="dirichlet", z=complex(z), kappa=kappa,
                          a=complex(a), b=complex(b), K=complex(-2 * a * kappa))
    if kind == "robin":
        if alpha is None:
            raise ValueError("robin kernel needs alpha")
        if abs(kappa + alpha) < WRONSKIAN_FLOOR:
            raise SingularWronskian("kappa + alpha vanishes")
        a = (kappa + alpha) / (2.0 * kappa)
        b = (kappa - alpha) / (2.0 * kappa)
        return KernelEval(kind="robin", z=complex(z), kappa=kappa,
                          a=complex(a), b=complex(b),
                          K=complex(-2 * a * kappa), alpha=float(alpha))
    raise ValueError(f"unknown reference kind: {kind!r}")


def apply_resolvent(k: KernelEval, f, x_points, f_breakpoints=(),
                    y_max: float = DEFAULT_Y_MAX, n: int = QUAD_NODES,
                    max_panel: float = QUAD_MAX_PANEL,
                    panel_budget: int = 100_000):
    """(R_z f)(x) = int_0^inf G_z(x, y) f(y) dy at each x in x_points.

    The quadrature splits at y = x (diagonal kink of G), at y = x_m, and at
    f's breakpoints; f must be negligible beyond y_max.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    out = np.empty(xs.shape, dtype=complex)
    base_cuts = (k.x_m, *f_breakpoints)
    for i, x in enumerate(xs):
        nodes, weights = quadrature.panel_nodes(
            0.0, y_max, (*base_cuts, x), n, max_panel, panel_budget)
        fy = np.asarray(f(nodes), dtype=complex)
        out[i] = np.sum(weights * k(x, nodes) * fy)
    if np.isscalar(x_points) or np.asarray(x_points).ndim == 0:
        return complex(out[0])
    return out


@dataclass(frozen=True)
class AlphaEstimate:
    """Finite-eps Robin-parameter estimates and their extrapolation."""

    epsilons: tuple[float, ...]
    estimates: tuple[float, ...]     # u'(x_m)/u(x_m) per eps, zero energy
    extrapolated: float
    order: float                     # empirical leading order in eps


def _neville_at_zero(xs: np.ndarray, ys: np.ndarray) -> float:
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    p = ys.astype(float).copy()
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            p[i] = (xs[i + level] * p[i] - xs[i] * p[i + 1]) \
                / (xs[i + level] - xs[i])
    return float(p[0])


def estimate_alpha(V: Potential, theta: float, omega: float, eps_list,
                   tol: float = 1e-12) -> AlphaEstimate:
    """Robin parameter along the critical schedule, by extrapolating the
    boundary ratio alpha_eps = u'(x_m)/u(x_m) at zero energy to eps -> 0.

    The ratio has an O(eps) leading error (whence Richardson/Neville in eps);
    theta must sit on a certified resonance for the sequence to converge.
    The default tol is tighter than elsewhere because extrapolation amplifies
    integration noise at the smallest eps.
    """
    eps = np.asarray([float(e) for e in eps_list])
    if eps.size < 3:
        raise ValueError("need at least three eps values to extrapolate")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ValueError("eps_list must be positive and strictly decreasing")
    law = ScalingLaw(theta=theta, omega=omega)
    vals = []
    for e in eps:
        end = solve_u(V, law.coupling(e), e, 0.0, tol).endpoint
        vals.append(float(np.real(end.derivative / end.value)))
    vals = np.asarray(vals)
    extrap = _neville_at_zero(eps, vals)
    gaps = np.abs(vals - extrap)
    mask = gaps > 1e-14
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(np.log(eps[mask]), np.log(gaps[mask]), 1)[0]
        order = float(slope)
    else:
        order = float("nan")
    return AlphaEstimate(epsilons=tuple(eps), estimates=tuple(vals),
                         extrapolated=extrap, order=order)


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    lam: float
    error_L2: float
    alpha_estimate: float
    reference_kind: str


def convergence_study(V: Potential, law: ScalingLaw, z, f, eps_list, x_grid,
                      f_breakpoints=(), tol: float = DEFAULT_TOL,
                      y_max: float = DEFAULT_Y_MAX) -> list[ConvergenceRow]:
    """Discrete L^2 error of the scaled resolvent against the limit selected
    by classify_scaling, for each eps in eps_list."""
    xs = np.asarray(x_grid, dtype=float)
    limit = classify_scaling(V, law)
    if limit.kind == "robin":
        ref = kernel_reference("robin", z, alpha=limit.alpha)
    else:
        ref = kernel_reference("dirichlet", z)
    ref_vals = apply_resolvent(ref, f, xs, f_breakpoints, y_max=y_max)
    rows = []
    for e in eps_list:
        lam = law.coupling(e)
        kern = kernel_scaled(V, lam, e, z, tol)
        vals = apply_resolvent(kern, f, xs, f_breakpoints, y_max=y_max)
        err = float(np.sqrt(np.trapezoid(np.abs(vals - ref_vals) ** 2, xs)))
        end = kern.u.endpoint
        alpha_e = float(np.real(end.derivative / end.value))
        rows.append(ConvergenceRow(epsilon=float(e), lam=float(lam),
                                   error_L2=err, alpha_estimate=alpha_e,
                                   reference_kind=ref.kind))
    return rows
