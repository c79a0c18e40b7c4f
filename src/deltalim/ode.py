"""Cauchy problems for the half-line Schrodinger reductions.

Solves -psi'' + (theta*V - gamma*z)*psi = 0 on [0, M] with adaptive
high-order Runge-Kutta stepping (DOP853), restarting at every breakpoint of V
so that coefficient discontinuities never sit inside a step.  ``march`` is
the one such integrator: shooting, the interior basis (u, v) and the
profile integrals differ only in the right-hand side and initial state they
hand it.  ``taylor_endpoints`` is the one exception: it needs only the real
zero-energy endpoint (psi(M), psi'(M)) of a stack of couplings, and since V
is a cubic on each piece it steps with an exact-order Taylor series, fixed
in advance, instead.  Small-range solves at scale eps are always
routed through the rescaling u(x) = eps * psi_{eps^2*lambda, eps^2}(x / eps),
which keeps the integrated problem O(1) in the regime |lambda| = O(eps^-2).
Along a critical schedule eps^2*lambda(eps) = theta + omega*eps, so the
bases of a whole eps sequence are marched together, on one set of steps.

A dense march keeps no per-step scipy objects: it stacks the attributes
``t_old``, ``h``, ``y_old`` and ``F`` of every step's ``Dop853DenseOutput``
into arrays once, and ``Trajectory`` reads any set of points from them in a
fixed number of numpy operations.  These are scipy internals;
tests/test_ode.py pins them and checks every read against scipy's own.
"""
from __future__ import annotations

import math
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
    "taylor_endpoints",
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


@dataclass(frozen=True)
class _DenseSteps:
    """The DOP853 interpolants of every step of a dense march, stacked once.

    Step i starts at t_old[i], has length h[i], state y_old[i] and the
    interpolant coefficients F[i] (shape (7, rows)): the attributes
    ``t_old``, ``h``, ``y_old`` and ``F`` of scipy's ``Dop853DenseOutput``,
    which tests/test_ode.py pins.  Piece p of V, from cuts[p] to
    cuts[p + 1], starts at step first[p]."""

    cuts: np.ndarray
    first: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    @classmethod
    def stack(cls, cuts, pieces) -> _DenseSteps:
        """Stack the steps of each piece, given as lists of
        ``Dop853DenseOutput``."""
        steps = [step for piece in pieces for step in piece]
        return cls(np.asarray(cuts, dtype=float),
                   np.cumsum([0, *map(len, pieces[:-1])]),
                   np.array([step.t_old for step in steps]),
                   np.array([step.h for step in steps]),
                   np.array([step.y_old for step in steps]),
                   np.array([step.F for step in steps]))


class Trajectory:
    """Dense solution of a second-order Cauchy problem on [0, x_end]: rows
    (row, row + 1) of the marched state, read as (value, derivative).

    ``steps`` is the stacked interpolant data of a dense ``march``.  A read
    picks each point's piece of V with side="right" (a breakpoint belongs to
    the piece it starts) and its step inside the piece with side="left", as
    scipy's ``OdeSolution`` does.  It then evaluates the Horner sequence of
    ``Dop853DenseOutput._call_impl`` in the same order, on its own two rows
    only, so it is bit-identical to a read through scipy; tests/test_ode.py
    keeps that read as the oracle."""

    def __init__(self, steps: _DenseSteps, y_end, row: int = 0):
        self._steps = steps
        self._rows = slice(row, row + 2)
        self._y_end = y_end[self._rows]    # (value, derivative) at x_end

    @property
    def x_end(self) -> float:
        return float(self._steps.cuts[-1])

    @property
    def endpoint(self) -> CauchyState:
        return CauchyState(self.x_end, self._y_end[0], self._y_end[1])

    def __call__(self, x):
        """Return (value, derivative) at x (scalar or array) via the
        integrator's dense interpolant."""
        s = self._steps
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        piece = np.clip(np.searchsorted(s.cuts, xs, side="right") - 1,
                        0, s.cuts.size - 2)
        # steps are ascending across pieces, so only a point on a breakpoint
        # (or below 0) needs lifting into its piece's first step
        i = np.maximum(np.searchsorted(s.t_old, xs, side="left") - 1,
                       s.first[piece])
        u = ((xs - s.t_old[i]) / s.h[i])[:, None]
        coeffs = s.F[i, ::-1, self._rows]
        y = np.zeros((xs.size, 2), dtype=s.y_old.dtype)
        for k in range(coeffs.shape[1]):
            y += coeffs[:, k]
            if k % 2 == 0:
                y *= u
            else:
                y *= 1 - u
        y += s.y_old[i, self._rows]
        out = y.T.copy()
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
    at every breakpoint.  Returns the stacked ``_DenseSteps`` (None unless
    ``dense``) and the state at the edge."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    cuts = V.breakpoints
    pieces = []
    y = np.asarray(y0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853",
                        rtol=tol, atol=tol * 1e-3, dense_output=dense)
        if not sol.success or not np.all(np.isfinite(sol.y)):
            raise NonConvergence(f"integration failed on [{lo}, {hi}]: {sol.message}")
        if dense:
            pieces.append(sol.sol.interpolants)
        y = sol.y[:, -1].copy()
    return (_DenseSteps.stack(cuts, pieces) if dense else None), y


_TAYLOR_RHO = 3.0        # kappa*h of a Taylor step: about half a local wavelength
_TAYLOR_BLOCK = 1 << 15  # (step, coupling) pairs whose transfers are built at once


def _local_coeffs(c, x0):
    """(d0, d1, d2, d3) with V(x0 + t) = sum d_j t^j, for the cubic of global
    coefficients c and each start x0 of an array: V(x0), V'(x0), V''(x0)/2
    and c3.  d0 is Potential.__call__'s Horner sum."""
    c0, c1, c2, c3 = c
    return np.array([c0 + x0 * (c1 + x0 * (c2 + x0 * c3)),
                     c1 + x0 * (2.0 * c2 + 3.0 * c3 * x0),
                     c2 + 3.0 * c3 * x0,
                     np.full_like(x0, c3)])


def _taylor_order(tol: float) -> int:
    """The smallest order p with rho^p/p! <= 1e-3*tol: the size, relative to
    the state, of the first term a step drops."""
    p, term = 1, _TAYLOR_RHO
    while term > 1e-3 * tol:
        p += 1
        term *= _TAYLOR_RHO / p
    return p


def _taylor_steps(c, lo: float, hi: float, big: float) -> int:
    """Steps across the piece [lo, hi] of the cubic c for couplings up to
    |theta| = big: the fewest n with h*sqrt(big*B(h)) <= rho, h = (hi-lo)/n.

    B(h) = sum_j |e_j| (L/2 + h)^j, with e the cubic about the midpoint,
    bounds sum_j |d_j| h^j at every step start, so the terms b_k of every
    step fall like rho^k/k!.  B(0) is max|V| for a constant or linear piece,
    and then the count is the plain ceil(sqrt(big*max|V|)*L/rho)."""
    half = 0.5 * (hi - lo)
    e = np.abs(_local_coeffs(c, np.array(lo + half)))

    def count(h):
        bound = big * float(e @ (half + h) ** np.arange(4))
        return max(1, math.ceil(2.0 * half * math.sqrt(bound) / _TAYLOR_RHO))

    # B grows with h, so the count at the first guess's h is large enough
    return count(2.0 * half / count(0.0))


def _taylor_transfers(theta, d, h: float, p: int):
    """Order-p Taylor transfers of steps of length h from starts whose local
    coefficients are the columns of d, for every coupling.

    Returns (val, der), each of shape (2, steps, couplings): column 0 starts
    from (b0, b1) = (1, 0) and column 1 from (0, 1), and a step maps the
    state (psi, h*psi') at its start to
    (val[0]*psi + val[1]*h*psi', der[0]*psi + der[1]*h*psi').  Terms follow
    b_{k+2} = theta*h^2*(d0 b_k + d1 h b_{k-1} + d2 h^2 b_{k-2} + d3 h^3
    b_{k-3}) / ((k+1)(k+2)); a coefficient that is zero on every step is
    left out."""
    w = [(j, theta * (dj * h ** (j + 2))[:, None])
         for j, dj in enumerate(d) if np.any(dj)]
    b = np.zeros((2, 2, d.shape[1], theta.size))
    b[0, 0] = b[1, 1] = 1.0
    terms = list(b)         # the last five terms; terms[-1] is b_{k+1}
    val, der = b[0] + b[1], b[1].copy()
    for k in range(p - 1):
        nxt = sum(wj * terms[-2 - j] for j, wj in w if j <= k)
        nxt = nxt / ((k + 1) * (k + 2))
        terms = terms[-4:] + [nxt]
        val += nxt
        der += (k + 2) * nxt
    return val, der


def taylor_endpoints(V: Potential, thetas, tol: float = DEFAULT_TOL):
    """Endpoint data (psi(M), psi'(M)) of the zero-energy shooting solution
    (psi(0)=0, psi'(0)=1 of psi'' = theta*V*psi) for an array of couplings.

    Each piece of V is crossed in n equal steps, each an order-p Taylor
    series whose terms come from the recurrence of ``_taylor_transfers``.
    Both are fixed in advance, from the largest |theta| of the stack and from
    tol (``_taylor_steps`` and ``_taylor_order``), so nothing is adaptive:
    every coupling gets the same near machine-precision value it gets
    alone, and a lone theta = 0 takes one exact step per piece.  The transfers of all steps and couplings
    of a piece are built in a few array operations; only their product is a
    loop over steps.  A state that overflows raises NonConvergence naming
    its piece."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    theta = np.asarray(thetas, dtype=float)
    big = float(np.max(np.abs(theta), initial=0.0))
    if not math.isfinite(big):
        raise ValueError("couplings must be finite")
    p = _taylor_order(tol)
    psi, dpsi = np.zeros_like(theta), np.ones_like(theta)
    cuts = V.breakpoints
    block = max(1, _TAYLOR_BLOCK // max(theta.size, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, c in zip(cuts[:-1], cuts[1:], V.coeffs):
            n = _taylor_steps(c, lo, hi, big)
            h = (hi - lo) / n
            # a constant piece has one transfer, taken n times
            repeat = 1 if any(c[1:]) else n
            starts = lo + h * np.arange(n // repeat)
            q = h * dpsi
            for first in range(0, starts.size, block):
                val, der = _taylor_transfers(
                    theta, _local_coeffs(c, starts[first:first + block]), h, p)
                for i in range(val.shape[1]):
                    for _ in range(repeat):
                        psi, q = (val[0, i] * psi + val[1, i] * q,
                                  der[0, i] * psi + der[1, i] * q)
            dpsi = q / h
            if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))):
                raise NonConvergence(
                    f"Taylor transfer overflowed on [{lo}, {hi}]")
    return psi, dpsi


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
    eps^2*lam, gamma = eps^2, and read its steps as two rescaled views:
    u(x) = eps*psi(x/eps) and v(x) = psi~(x/eps), whose slope is divided by
    eps instead.  For sequences lam and eps, every pair (lam_k, eps_k) is
    one block of four rows of a single stacked march, and the result is the
    list of their (u, v); each view reads its own rows of the shared
    steps.  The pairs share adaptive steps, so the error control is over
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

    steps, y_end = march(V, rhs, y0, tol, dense=True)
    bases = [(ScaledTrajectory(Trajectory(steps, y_end, 4 * k), e, e, 1.0),
              ScaledTrajectory(Trajectory(steps, y_end, 4 * k + 2), e, 1.0, e))
             for k, e in enumerate(epss.tolist())]
    return bases[0] if lams.ndim == 0 else bases
