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
from .ode import DEFAULT_TOL, solve_uv, taylor_endpoints
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
DECAY_PANEL = 50.0        # widest panel in units of 1/Re kappa
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
    # eps * the inner step starts of the basis: V's inner breakpoints, where
    # G'' jumps, and the cuts that keep each panel inside one Taylor step
    # (about half a local wavelength)
    kinks: tuple[float, ...] = ()
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
        g1, g2 = _scaled_basis(self, s, t)
        out = (g1 * g2 * np.exp(-self.kappa * (t - s))
               / (2.0 * self.a * self.kappa)).reshape(xs.shape)
        if np.isscalar(x) and np.isscalar(y):
            return complex(out.reshape(())[()])
        return out


def _scaled_basis(k: KernelEval, s: np.ndarray, t: np.ndarray):
    """Bounded kernel factors g1(s) = phi1(s)*e^{-kappa*s} and
    g2(t) = phi2(t)*e^{kappa*t}, so that for s <= t

        G_z(s, t) = g1(s) * g2(t) * e^{-kappa*(t - s)} / (2*a*kappa).

    Outside, g1 = a + b*e^{-2*kappa*y} and g2 = 1; inside [0, x_m),
    g1 = u*e^{-kappa*y} and g2 = (c*v + d*u)*e^{kappa*y}.  u is read once,
    on the inner s and t (s alone if s is t), and v once, on the inner t.
    """
    kappa = k.kappa
    g1 = k.a + k.b * np.exp(-2.0 * kappa * s)
    g2 = np.ones(t.shape, dtype=complex)
    s_in, t_in = s < k.x_m, t < k.x_m
    if np.any(s_in) or np.any(t_in):
        si, ti = s[s_in], t[t_in]
        u = k.u(si if s is t else np.concatenate((si, ti)))[0]
        g1[s_in] = u[:si.size] * np.exp(-kappa * si)
        if ti.size:
            g2[t_in] = (k.c * k.v(ti)[0] + k.d * u[-ti.size:]) \
                * np.exp(kappa * ti)
    return g1, g2


def kernel_scaled(V: Potential, lam: float, eps: float, z,
                  tol: float = DEFAULT_TOL) -> KernelEval:
    """Assembled kernel of -d^2 + lam*V(./eps) - z on the half-line."""
    kappa = decay_rate(z)
    return _matched_kernel(V, lam, eps, z, kappa, *solve_uv(V, lam, eps, z, tol))


def _matched_kernel(V: Potential, lam: float, eps: float, z, kappa: complex,
                    u, v) -> KernelEval:
    """The scaled kernel of an interior basis (u, v) on [0, eps*M]."""
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
                      K=complex(K), x_m=x_m,
                      kinks=tuple((eps * u.base.starts[1:]).tolist()),
                      lam=float(lam), eps=float(eps), u=u, v=v)


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

    G_z is separable, phi1(x ^ y) * phi2(x v y) / (2*a*kappa), so

        (R_z f)(x) = [phi2(x) int_0^x phi1 f + phi1(x) int_x^y_max phi2 f]
                     / (2*a*kappa),

    and both integrals are cumulative sums over one set of Gauss-Legendre
    panels with edges at 0, the kernel's kinks (eps times the step starts of
    its basis), x_m, f's breakpoints, every x in [0, y_max] and y_max, no
    panel wider than max_panel or
    DECAY_PANEL/Re kappa: O(N_x + N_y) work.  f is called once, on that
    whole node set, and ``panel_budget`` bounds the one shared set; f must
    be negligible beyond y_max.  The sums carry the bounded factors of
    ``_scaled_basis`` and a decay e^{-kappa*h} per panel of width h, so
    nothing grows like e^{kappa*y}.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if np.any(xs < 0):
        raise ValueError("x_points must be nonnegative")
    kappa = k.kappa
    edges = quadrature.panel_edges(
        0.0, y_max, np.concatenate((k.kinks, [k.x_m], f_breakpoints, xs)),
        min(max_panel, DECAY_PANEL / kappa.real))
    nodes, weights = quadrature.gauss_nodes(edges, n, panel_budget)
    g1, g2 = _scaled_basis(k, nodes, nodes)
    wf = weights * np.asarray(f(nodes), dtype=complex)
    y = nodes.reshape(-1, n)
    # panel j = [e_j, e_j+1] adds e^{-kappa*e_j+1} int phi1 f to the forward
    # sum and e^{kappa*e_j} int phi2 f to the backward one
    fwd = np.sum((wf * g1).reshape(-1, n)
                 * np.exp(-kappa * (edges[1:, None] - y)), axis=1).tolist()
    bwd = np.sum((wf * g2).reshape(-1, n)
                 * np.exp(-kappa * (y - edges[:-1, None])), axis=1).tolist()
    decay = np.exp(-kappa * np.diff(edges)).tolist()
    # s1[j] = e^{-kappa*e_j} int_0^e_j phi1 f and
    # s2[j] = e^{kappa*e_j} int_e_j^y_max phi2 f
    s1, s2 = [0j], [0j]
    for r, p in zip(decay, fwd):
        s1.append(r * s1[-1] + p)
    for r, p in zip(decay[::-1], bwd[::-1]):
        s2.append(r * s2[-1] + p)
    s1, s2 = np.array(s1), np.array(s2[::-1])
    # every x up to y_max is an edge; beyond it only the forward sum decays on
    xc = np.minimum(xs, y_max)
    j = np.searchsorted(edges, xc)
    gx1, gx2 = _scaled_basis(k, xs, xs)
    out = (gx2 * s1[j] * np.exp(-kappa * (xs - xc)) + gx1 * s2[j]) \
        / (2.0 * k.a * kappa)
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

    At zero energy u(x) = eps*psi(x/eps) with psi the shooting solution at
    the coupling eps^2*lambda(eps) = theta + omega*eps, so alpha_eps =
    psi'(M)/(eps*psi(M)); every eps is one coupling of a single stacked
    Taylor transfer.  The ratio has an O(eps) leading error (whence
    Richardson/Neville in eps); theta must sit on a certified resonance for
    the sequence to converge.  The default tol is tighter than elsewhere
    because extrapolation amplifies integration noise at the smallest eps.
    """
    eps = np.asarray([float(e) for e in eps_list])
    if eps.size < 3:
        raise ValueError("need at least three eps values to extrapolate")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ValueError("eps_list must be positive and strictly decreasing")
    law = ScalingLaw(theta=theta, omega=omega)
    thetas = np.array([e * e * law.coupling(e) for e in eps])
    psi_m, dpsi_m = taylor_endpoints(V, thetas, tol)
    vals = dpsi_m / (eps * psi_m)
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
    by classify_scaling, for each eps in eps_list.

    The interior bases of every eps come from one dense Taylor transfer
    (``solve_uv``), whose fixed steps are counted from the largest scaled
    coupling eps^2*lambda(eps); each eps then matches its own kernel to the
    exterior.  Raises ValueError, before any shot, unless x_grid is 1-d,
    strictly increasing and has at least 2 points, and eps_list is not empty
    and holds only finite, positive eps."""
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0.0):
        raise ValueError("x_grid must be 1-d, strictly increasing and have "
                         "at least 2 points")
    eps = list(eps_list)
    if not eps:
        raise ValueError("eps_list must not be empty")
    for e in eps:
        if not 0.0 < e < np.inf:
            raise ValueError(
                f"eps_list must hold finite, positive eps, not {e}")
    limit = classify_scaling(V, law)
    if limit.kind == "robin":
        ref = kernel_reference("robin", z, alpha=limit.alpha)
    else:
        ref = kernel_reference("dirichlet", z)
    ref_vals = apply_resolvent(ref, f, xs, f_breakpoints, y_max=y_max)
    lams = [law.coupling(e) for e in eps]
    bases = solve_uv(V, lams, eps, z, tol)
    rows = []
    for e, lam, (u, v) in zip(eps, lams, bases):
        kern = _matched_kernel(V, lam, e, z, ref.kappa, u, v)
        vals = apply_resolvent(kern, f, xs, f_breakpoints, y_max=y_max)
        err = float(np.sqrt(np.trapezoid(np.abs(vals - ref_vals) ** 2, xs)))
        end = u.endpoint
        alpha_e = float(np.real(end.derivative / end.value))
        rows.append(ConvergenceRow(epsilon=float(e), lam=float(lam),
                                   error_L2=err, alpha_estimate=alpha_e,
                                   reference_kind=ref.kind))
    return rows
