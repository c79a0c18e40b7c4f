"""Cauchy problems for the half-line Schrodinger reductions.

Solves -psi'' + (theta*V - gamma*z)*psi = 0 on [0, M].  V is a cubic on
each piece, so the stacked solves are one Taylor march whose steps and
order are fixed in advance: ``taylor_endpoints`` gives the real
zero-energy endpoint (psi(M), psi'(M)) of a stack of couplings.  Every
dense solution is a ``Trajectory``, a reader of the march's kept step
series: the interior basis (u, v) of every resolvent kernel
(``solve_uv``), and psi alone, made on its first read, for the profile of
a certified hit and the reads of ``solve_psi``.  ``march`` is the one
adaptive integrator: DOP853, endpoint only, restarting at every breakpoint
of V so that coefficient discontinuities never sit inside a step, and
reading each inner piece's right-hand side just below its upper end.  It
runs the certifying gate shot and the endpoint shot of ``solve_psi``.
Small-range solves at scale eps are always routed through the rescaling
u(x) = eps * psi_{eps^2*lambda, eps^2}(x / eps), which keeps the integrated
problem O(1) in the regime |lambda| = O(eps^-2).  Along a critical schedule
eps^2*lambda(eps) = theta + omega*eps, so the bases of a whole eps sequence
are one transfer, on one set of steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


class Trajectory:
    """Dense solution of a second-order Cauchy problem on [0, x_end], with
    its endpoint y_end = (value, derivative): a Taylor step series.

    ``make()`` returns the step starts, the step lengths and the
    coefficients, shape (steps, 2, p+1), of (value, slope) on each step; it
    runs on the first read or ``starts`` access, and its result is kept.  A
    read picks each point's step with side="right" (a step start, and so a
    breakpoint, belongs to the step it starts) and sums that step's series
    at s = (x - x_i)/h."""

    def __init__(self, make, y_end, x_end: float):
        self._make = make
        self.x_end = float(x_end)
        self.endpoint = CauchyState(self.x_end, y_end[0], y_end[1])

    @cached_property
    def _series(self):
        return self._make()

    @property
    def starts(self):
        return self._series[0]

    def __call__(self, x):
        """Return (value, derivative) at x (scalar or array)."""
        starts, lengths, coeffs = self._series
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        i = np.maximum(np.searchsorted(starts, xs, side="right") - 1, 0)
        s = (xs - starts[i]) / lengths[i]
        out = np.einsum("nrk,nk->rn", coeffs[i],
                        np.vander(s, coeffs.shape[2], increasing=True))
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return out[0, 0], out[1, 0]
        return out[0], out[1]


class ScaledTrajectory:
    """View of a [0, M] ``Trajectory`` rescaled to [0, eps*M]: value
    factor*base(x/eps), derivative base'(x/eps)/divisor.  The interior
    solution u takes (factor, divisor) = (eps, 1), its companion v takes
    (1, eps)."""

    def __init__(self, base, eps: float, factor: float, divisor: float):
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


def march(V: Potential, rhs, y0, tol: float):
    """Integrate y' = rhs(x, y) with DOP853 from 0 to the support edge of V,
    restarting at every breakpoint, and return the state at the edge.

    DOP853's last stage of a piece's last step sits at its upper end hi,
    which V gives to the next piece; an inner piece reads rhs at the float
    just below hi instead, so that a jump of V does not make the error
    control reject and shrink the steps before it."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    cuts = V.breakpoints
    y = y0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        f = rhs
        if hi < cuts[-1]:
            def f(x, y, top=math.nextafter(hi, lo)):
                return rhs(min(x, top), y)
        sol = solve_ivp(f, (lo, hi), y, method="DOP853",
                        rtol=tol, atol=tol * 1e-3)
        if not sol.success or not np.all(np.isfinite(sol.y)):
            raise NonConvergence(f"integration failed on [{lo}, {hi}]: {sol.message}")
        y = sol.y[:, -1].copy()
    return y


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
    """The smallest order p with rho^p/p! <= 1e-3*tol.

    That is the first term a step drops, relative to the state, only where
    the terms fall like rho^k/k!, as on a constant piece.  The d1-d3 terms
    of a linear or cubic piece crossed in one or two steps make them fall
    like (k!)^(-2/3), as Airy functions do, and the first dropped term is
    then up to about 20 times larger (b_26 = 1.2e-13 against
    3^26/26! = 6.3e-15 on linear(0.7) at theta = 4, tol = 1e-10); the
    factor 1e-3 keeps it inside tol."""
    p, term = 1, _TAYLOR_RHO
    while term > 1e-3 * tol:
        p += 1
        term *= _TAYLOR_RHO / p
    return p


def _taylor_steps(c, lo: float, hi: float, big: float,
                  shift: float = 0.0) -> int:
    """Steps across the piece [lo, hi] of the cubic c for couplings up to
    |theta| = big and energy shifts up to |gamma*z| = shift: the fewest n
    with h*sqrt(big*B(h) + shift) <= rho, h = (hi-lo)/n.

    B(h) = sum_j |e_j| (L/2 + h)^j, with e the cubic about the midpoint,
    bounds sum_j |d_j| h^j at every step start, so the local wavenumber
    times h is at most rho.  The terms b_k fall like rho^k/k! on a constant
    piece; with d1-d3, on a piece crossed in one or two steps, they fall
    like (k!)^(-2/3) and stay larger (see ``_taylor_order``).  B(0) is
    max|V| for a constant or linear piece, and then the count is the plain
    ceil(sqrt(big*max|V| + shift)*L/rho)."""
    half = 0.5 * (hi - lo)
    e = np.abs(_local_coeffs(c, np.array(lo + half)))

    def count(h):
        bound = big * float(e @ (half + h) ** np.arange(4)) + shift
        return max(1, math.ceil(2.0 * half * math.sqrt(bound) / _TAYLOR_RHO))

    # B grows with h, so the count at the first guess's h is large enough
    return count(2.0 * half / count(0.0))


def _taylor_terms(theta, d, h: float, p: int, gz=None):
    """Yield the terms b_0, ..., b_p of order-p Taylor steps of length h
    from starts whose local coefficients are the columns of d, for every
    coupling: psi(x_i + s*h) = sum_k b_k s^k.

    Each term has shape (2, steps, couplings): column 0 starts from
    (b0, b1) = (1, 0) and column 1 from (0, 1), i.e. from (psi, h*psi') at
    the step start.  Terms follow b_{k+2} = h^2*(theta*(d0 b_k + d1 h b_{k-1}
    + d2 h^2 b_{k-2} + d3 h^3 b_{k-3}) - gz b_k) / ((k+1)(k+2)), the
    recurrence of psi'' = (theta*V - gz)*psi; a coefficient of V that is
    zero on every step is left out, and so is gz when it is None."""
    w = [(j, theta * (dj * h ** (j + 2))[:, None])
         for j, dj in enumerate(d) if np.any(dj)]
    if gz is not None:
        w.append((0, -gz * (h * h)))
    b = np.zeros((2, 2, d.shape[1], theta.size),
                 dtype=np.result_type(theta, 0.0 if gz is None else gz))
    b[0, 0] = b[1, 1] = 1.0
    terms = list(b)         # the last five terms; terms[-1] is b_{k+1}
    yield from terms
    for k in range(p - 1):
        nxt = sum(wj * terms[-2 - j] for j, wj in w if j <= k)
        nxt = nxt / ((k + 1) * (k + 2))
        terms = terms[-4:] + [nxt]
        yield nxt


def _taylor_march(V: Potential, theta, y, tol: float, gz=None,
                  dense: bool = False):
    """Taylor transfer of psi'' = (theta_k*V - gz_k)*psi (gz = 0 if None)
    from the state y at 0, shape (2, ..., couplings): (value, slope).

    Each piece of V is crossed in n equal steps of order p, both fixed in
    advance from the largest |theta| and |gz| and from tol (``_taylor_steps``,
    ``_taylor_order``), so every coupling gets the near machine-precision
    value it gets alone.  The terms of ``_taylor_terms`` are summed, a block
    of steps at a time, into step transfers (val, der) of shape
    (2, steps, couplings): a step maps (psi, h*psi') at its start to
    (val[0]*psi + val[1]*h*psi', der[0]*psi + der[1]*h*psi').  A constant
    piece has one transfer, taken n times; only their product loops over
    steps.  With ``dense``, y has shape (2, solutions, couplings), and the
    kept terms b_m and each step's start state give that step's series
    psi(x_i + s*h) = sum_m a_m s^m, a_m = psi_i*b_m(col 0)
    + h*psi'_i*b_m(col 1).
    Returns (step starts, step lengths, a of shape (p+1, steps, solutions,
    couplings)) or None, and the state at M.  A state that overflows raises
    NonConvergence naming its piece."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    big = float(np.max(np.abs(theta), initial=0.0))
    shift = 0.0 if gz is None else float(np.max(np.abs(gz)))
    if not math.isfinite(big + shift):
        raise ValueError("couplings must be finite" if gz is None
                         else "couplings and energies must be finite")
    p = _taylor_order(tol)
    cuts = V.breakpoints
    block = max(1, _TAYLOR_BLOCK // max(theta.size, 1))
    starts, lengths, series = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, c in zip(cuts[:-1], cuts[1:], V.coeffs):
            n = _taylor_steps(c, lo, hi, big, shift)
            h = (hi - lo) / n
            x0 = lo + h * np.arange(n)
            # a constant piece has one transfer, taken n times
            repeat = 1 if any(c[1:]) else n
            tx = x0[:n // repeat]   # the starts of distinct transfers
            psi, q = y[0], h * y[1]
            for first in range(0, tx.size, block):
                d = _local_coeffs(c, tx[first:first + block])
                val = der = 0.0     # the step transfers, summed as terms come
                kept, at = [], []   # dense only: the terms, the start states
                for k, b in enumerate(_taylor_terms(theta, d, h, p, gz)):
                    val += b
                    der += k * b
                    if dense:
                        kept.append(b)
                for i in range(val.shape[1]):
                    for _ in range(repeat):
                        if dense:
                            at.append((psi, q))
                        psi, q = (val[0, i] * psi + val[1, i] * q,
                                  der[0, i] * psi + der[1, i] * q)
                if dense:   # a: (term, step, solution, coupling)
                    t, at = np.stack(kept)[..., None, :], np.array(at)
                    series.append(t[:, 0] * at[:, 0] + t[:, 1] * at[:, 1])
            y = np.array([psi, q / h])
            if not np.all(np.isfinite(y)):
                raise NonConvergence(
                    f"Taylor transfer overflowed on [{lo}, {hi}]")
            starts.append(x0)
            lengths.append(np.full(n, h))
    return ((np.concatenate(starts), np.concatenate(lengths),
             np.concatenate(series, axis=1)) if dense else None), y


def taylor_endpoints(V: Potential, thetas, tol: float = DEFAULT_TOL):
    """Endpoint data (psi(M), psi'(M)) of the zero-energy shooting solution
    (psi(0)=0, psi'(0)=1 of psi'' = theta*V*psi) for an array of couplings:
    one ``_taylor_march`` of the stack, whose steps are counted from its
    largest |theta|.  A lone theta = 0 takes one exact step per piece."""
    theta = np.asarray(thetas, dtype=float)
    y = _taylor_march(V, theta, np.array([np.zeros_like(theta),
                                          np.ones_like(theta)]), tol)[1]
    return y[0], y[1]


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
    """Solution of -psi'' + (theta*V - gamma*z)*psi = 0, psi(0)=0, psi'(0)=1.

    Its endpoint is one DOP853 ``march``; its dense reads are the Taylor
    series of psi alone (``_psi_trajectory``), made on the first read."""
    gz, y0 = _energy_and_state(gamma, z, (0.0, 1.0))

    def rhs(x, y):
        return [y[1], (theta * V(x) - gz) * y[0]]

    return _psi_trajectory(V, theta, gz, march(V, rhs, y0, tol), tol)


def _taylor_basis(V: Potential, theta, gz, y, tol: float):
    """Dense ``_taylor_march`` of psi'' = (theta_k*V - gz_k)*psi from the
    state y at 0, shape (2, solutions, couplings), on steps counted from the
    largest |theta| plus the largest |gz|.  Returns each solution's series
    as ``Trajectory`` reads it, coupling by coupling: (step starts, step
    lengths, coefficients of (value, slope), shape (steps, 2, p+1)); and the
    states at M, shape (couplings*solutions, 2)."""
    (starts, lengths, a), y = _taylor_march(V, theta, y, tol, gz, dense=True)
    slope = np.zeros_like(a)
    slope[:-1] = (np.arange(1, a.shape[0])[:, None, None, None] * a[1:]
                  / lengths[:, None, None])
    # (value/slope, term, step, solution, coupling) ->
    # (coupling, solution, step, value/slope, term), one block per solution
    table = np.stack([a, slope]).transpose(4, 3, 2, 0, 1)
    table = np.ascontiguousarray(table.reshape(-1, *table.shape[2:]))
    return ([(starts, lengths, c) for c in table],
            y.transpose(2, 1, 0).reshape(-1, 2))


def _psi_trajectory(V: Potential, theta: float, gz, y_end, tol: float):
    """psi of psi'' = (theta*V - gz)*psi, psi(0)=0, psi'(0)=1, with the
    endpoint y_end that the caller shot.  Its series is the one-coupling
    ``_taylor_basis`` of psi alone, made on the first read."""
    y = np.array([[[0.0]], [[1.0]]], dtype=np.result_type(gz, 0.0))
    return Trajectory(lambda: _taylor_basis(V, np.array([theta], dtype=float),
                                            gz, y, tol)[0][0],
                      y_end, V.support_end)


def solve_uv(V: Potential, lam, eps, z, tol: float = DEFAULT_TOL):
    """Interior basis (u, v) on [0, eps*M]: u(0)=0, u'(0)=1 and v(0)=1,
    v'(0)=0, so W(u, v) = -1.

    Both come from one dense Taylor transfer of psi'' = (theta*V - gamma*z)
    *psi at theta = eps^2*lam, gamma = eps^2, read as two rescaled views:
    u(x) = eps*psi(x/eps) with psi(0)=0, psi'(0)=1, and v(x) = psi~(x/eps)
    with psi~(0)=1, psi~'(0)=0, whose slope is divided by eps instead.  For
    sequences lam and eps, every pair (lam_k, eps_k) is one coupling of the
    same transfer, and the result is the list of their (u, v).  Its steps
    are fixed in advance from the largest coupling and tol, as in
    ``taylor_endpoints``, so each pair gets the near machine-precision basis
    it gets alone.
    """
    lams, epss = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(eps, dtype=float))
    epss = np.atleast_1d(epss)
    bad = ~((epss > 0) & (epss < np.inf))   # NaN fails both comparisons
    if np.any(bad):
        raise ValueError(f"eps must be positive and finite, got {epss[bad][0]}")
    gz, y0 = _energy_and_state(epss * epss, z, np.multiply.outer(
        [[0.0, 1.0], [1.0, 0.0]], np.ones(epss.size)))
    series, ends = _taylor_basis(V, epss * epss * np.atleast_1d(lams), gz,
                                 y0, tol)
    views = [Trajectory(lambda s=s: s, y, V.support_end)
             for s, y in zip(series, ends)]
    bases = [(ScaledTrajectory(views[2 * k], e, e, 1.0),
              ScaledTrajectory(views[2 * k + 1], e, 1.0, e))
             for k, e in enumerate(epss.tolist())]
    return bases[0] if lams.ndim == 0 else bases
