"""Self-contained real-argument Airy functions and the linear-potential
closed forms built on them.

Evaluation strategy: Maclaurin series about 0 for |x| <= X_SWITCH, summed in
compensated double-double arithmetic so the cancellation of the large series
terms does not destroy the small function values; full asymptotic expansions
(well beyond leading order) outside, each summed to its smallest term.  The
positive axis uses the exponential series of DLMF 9.7.5-9.7.8; the negative
axis uses the oscillatory Poincare series of DLMF 9.7.9-9.7.12, i.e.
cos/sin(zeta - pi/4) times the even and odd u_k (v_k for the derivatives)
sums P and Q.

The split point is 9.0: the oscillatory-side asymptotic error floor behaves
like exp(-4/3*|x|^(3/2)), which only drops well below 1e-13 for |x| >= 9,
while the double-double series stays near machine accuracy up to that point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import AiryRangeError, NotAResonance

__all__ = [
    "AiryQuad",
    "airy_quad",
    "airy_table",
    "sigma_parameter",
    "psi_linear_closed",
    "upsilon_linear_residual",
    "alpha_linear",
    "linear_weighted_square_integral",
    "find_linear_resonances",
    "XI_SQUARE_GUARD",
]

X_SWITCH = 9.0
X_MAX = 200.0
XI_SQUARE_GUARD = 1e-6   # |xi| below this routes to the square-well forms

# double-double constants: Ai(0), -Ai'(0), sqrt(3)
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_NEG_DAI0 = (0.2588194037928068, -2.522243111610832e-17)
_SQRT3 = (1.7320508075688772, 1.0035084221806903e-16)

_SPLITTER = 134217729.0  # 2^27 + 1


# ---------------------------------------------------------------------------
# minimal double-double arithmetic (hi, lo) -- only what the series needs
# ---------------------------------------------------------------------------

def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    hi, lo = _two_sum(s, e)
    return hi, lo


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    hi, lo = _two_sum(p, e)
    return hi, lo


def _dd_mul_d(x, d: float):
    p, e = _two_prod(x[0], d)
    e += x[1] * d
    hi, lo = _two_sum(p, e)
    return hi, lo


def _dd_div_d(x, d: float):
    q1 = x[0] / d
    p, e = _two_prod(q1, d)
    r = _dd_add(x, (-p, -e))
    q2 = (r[0] + r[1]) / d
    hi, lo = _two_sum(q1, q2)
    return hi, lo


def _dd_neg(x):
    return -x[0], -x[1]


# ---------------------------------------------------------------------------
# Maclaurin region
# ---------------------------------------------------------------------------

def _series(x: float):
    """The four auxiliary Maclaurin sums (f, g, f', g') for y'' = x*y,
    summed to stagnation in double-double arithmetic."""
    x2 = _two_prod(x, x)
    x3 = _dd_mul_d(x2, x)

    f = term_f = (1.0, 0.0)
    g = term_g = (x, 0.0)
    fp = term_fp = _dd_div_d(x2, 2.0)
    gp = term_gp = (1.0, 0.0)

    for k in range(1, 400):
        tk = 3.0 * k
        term_f = _dd_div_d(_dd_mul(term_f, x3), (tk - 1.0) * tk)
        term_g = _dd_div_d(_dd_mul(term_g, x3), tk * (tk + 1.0))
        term_gp = _dd_div_d(_dd_mul(term_gp, x3), (tk - 2.0) * tk)
        f = _dd_add(f, term_f)
        g = _dd_add(g, term_g)
        gp = _dd_add(gp, term_gp)
        if k >= 2:
            term_fp = _dd_div_d(_dd_mul_d(_dd_mul(term_fp, x3), float(k)),
                                (k - 1.0) * (tk - 1.0) * tk)
            fp = _dd_add(fp, term_fp)
        scale = abs(f[0]) + abs(g[0]) + 1.0
        if max(abs(term_f[0]), abs(term_g[0]), abs(term_fp[0]), abs(term_gp[0])) \
                < 1e-35 * scale:
            break
    return f, g, fp, gp


def _maclaurin(x: float):
    f, g, fp, gp = _series(x)
    af = _dd_mul(_AI0, f)
    bg = _dd_mul(_NEG_DAI0, g)
    afp = _dd_mul(_AI0, fp)
    bgp = _dd_mul(_NEG_DAI0, gp)
    ai = _dd_add(af, _dd_neg(bg))
    dai = _dd_add(afp, _dd_neg(bgp))
    bi = _dd_mul(_SQRT3, _dd_add(af, bg))
    dbi = _dd_mul(_SQRT3, _dd_add(afp, bgp))
    return (ai[0] + ai[1], dai[0] + dai[1], bi[0] + bi[1], dbi[0] + dbi[1])


# ---------------------------------------------------------------------------
# asymptotic region
# ---------------------------------------------------------------------------

_UK: list[float] = [1.0]
_VK: list[float] = [1.0]


def _coeffs(n: int):
    while len(_UK) <= n:
        k = len(_UK)
        u = _UK[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        _UK.append(u)
        _VK.append(u * (6 * k + 1) / (1 - 6 * k))
    return _UK, _VK


def _asym_sum(coeff, zeta: float, alternating: bool, parity: int | None = None):
    """Sum coeff[k]/zeta^k (optionally signed, optionally only even/odd k),
    truncating at the smallest term."""
    total = 0.0
    prev = np.inf
    ks = range(0, 40) if parity is None else range(parity, 80, 2)
    for i, k in enumerate(ks):
        _coeffs(k)
        term = coeff[k] / zeta ** k
        if abs(term) >= prev:
            break
        sign = (-1.0) ** (i if parity is not None else k) if alternating else 1.0
        total += sign * term
        prev = abs(term)
    return total


def _asym_positive(x: float):
    zeta = (2.0 / 3.0) * x ** 1.5
    root = x ** 0.25
    spi = np.sqrt(np.pi)
    su_alt = _asym_sum(_UK, zeta, True)
    sv_alt = _asym_sum(_VK, zeta, True)
    su = _asym_sum(_UK, zeta, False)
    sv = _asym_sum(_VK, zeta, False)
    with np.errstate(over="ignore"):
        em, ep = np.exp(-zeta), np.exp(zeta)
        ai = em / (2.0 * spi * root) * su_alt
        dai = -root * em / (2.0 * spi) * sv_alt
        bi = ep / (spi * root) * su
        dbi = root * ep / spi * sv
    return ai, dai, bi, dbi


def _asym_negative(x: float):
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    root = t ** 0.25
    spi = np.sqrt(np.pi)
    c, s = np.cos(zeta - np.pi / 4.0), np.sin(zeta - np.pi / 4.0)
    p = _asym_sum(_UK, zeta, True, parity=0)
    q = _asym_sum(_UK, zeta, True, parity=1)
    r = _asym_sum(_VK, zeta, True, parity=0)
    u = _asym_sum(_VK, zeta, True, parity=1)
    ai = (c * p + s * q) / (spi * root)
    bi = (-s * p + c * q) / (spi * root)
    dai = root * (s * r - c * u) / spi
    dbi = root * (c * r + s * u) / spi
    return ai, dai, bi, dbi


@dataclass(frozen=True)
class AiryQuad:
    """Ai, Ai', Bi, Bi' at a single real argument."""

    x: float
    ai: float
    dai: float
    bi: float
    dbi: float

    @property
    def wronskian(self) -> float:
        return self.ai * self.dbi - self.dai * self.bi


def airy_quad(x: float) -> AiryQuad:
    """Evaluate the Airy quartet at real x, |x| <= 200."""
    x = float(x)
    if not np.isfinite(x) or abs(x) > X_MAX:
        raise AiryRangeError(f"argument {x} outside guarded range |x| <= {X_MAX}")
    if abs(x) <= X_SWITCH:
        vals = _maclaurin(x)
    elif x > 0:
        vals = _asym_positive(x)
    else:
        vals = _asym_negative(x)
    return AiryQuad(x, *vals)


def airy_table(xs) -> np.ndarray:
    """Columns (Ai, Ai', Bi, Bi') for an array of arguments."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty((xs.size, 4))
    for i, x in enumerate(xs):
        q = airy_quad(x)
        out[i] = (q.ai, q.dai, q.bi, q.dbi)
    return out


# ---------------------------------------------------------------------------
# linear-potential closed forms: V_xi(x) = (1 - xi*x) on [0, 1]
# ---------------------------------------------------------------------------

def sigma_parameter(xi: float, theta: float) -> float:
    """Real cube root of theta / xi^2."""
    return float(np.cbrt(theta / (xi * xi)))


def _use_square(xi: float, theta: float) -> bool:
    """Route to the square-well forms when xi is tiny, either by the guard
    band or because sigma = cbrt(theta/xi^2) would leave the Airy range.
    The substitution error is O(xi), negligible whenever it triggers."""
    return abs(xi) < XI_SQUARE_GUARD or abs(theta) > X_MAX ** 3 * xi * xi


def _square_closed(theta: float, x: float):
    if theta < 0:
        s = np.sqrt(-theta)
        return np.sin(s * x) / s, np.cos(s * x)
    s = np.sqrt(theta)
    return np.sinh(s * x) / s, np.cosh(s * x)


def psi_linear_closed(xi: float, theta: float, x: float):
    """Zero-energy shooting solution for V_xi in Airy closed form.

    Returns (psi(x), psi'(x)) with psi(0)=0, psi'(0)=1.  For |xi| below the
    guard band the square-well trigonometric form is used instead, avoiding
    catastrophic cancellation in the 1/(xi*sigma) prefactor.
    """
    if theta == 0.0:
        raise ValueError("theta must be nonzero")
    if _use_square(xi, theta):
        return _square_closed(theta, x)
    s = sigma_parameter(xi, theta)
    w = s * (1.0 - xi * x)
    at_s = airy_quad(s)
    at_w = airy_quad(w)
    psi = (np.pi / (xi * s)) * (at_s.bi * at_w.ai - at_s.ai * at_w.bi)
    dpsi = np.pi * (at_s.ai * at_w.dbi - at_s.bi * at_w.dai)
    return psi, dpsi


def _linear_pair(xi: float, theta: float):
    """(s, Airy quartets at s and at s*(1 - xi)) with s = cbrt(theta/xi^2), or
    None where the square-well forms stand in (see _use_square)."""
    if theta == 0.0:
        raise ValueError("theta must be nonzero")
    if _use_square(xi, theta):
        return None
    s = sigma_parameter(xi, theta)
    return s, airy_quad(s), airy_quad(s * (1.0 - xi))


def upsilon_linear_residual(xi: float, theta: float) -> float:
    """Resonance residual for V_xi; its roots in theta form the resonant set.

    Proportional to psi'(1): Ai(s)Bi'(s(1-xi)) - Bi(s)Ai'(s(1-xi)) with
    s = cbrt(theta/xi^2)."""
    pair = _linear_pair(xi, theta)
    if pair is None:
        return _square_closed(theta, 1.0)[1]
    _, at_s, at_w = pair
    return at_s.ai * at_w.dbi - at_s.bi * at_w.dai


def _check_resonant(xi: float, theta: float, residual_tol: float, pair):
    if pair is None:
        res, scale = _square_closed(theta, 1.0)[1], 1.0
    else:
        _, at_s, at_w = pair
        res = at_s.ai * at_w.dbi - at_s.bi * at_w.dai
        scale = max(abs(at_s.ai * at_w.dbi), abs(at_s.bi * at_w.dai), 1e-300)
    if abs(res) > residual_tol * scale:
        raise NotAResonance(
            f"residual {res:.3e} above tolerance at (xi={xi}, theta={theta})")


def alpha_linear(xi: float, theta: float, omega: float,
                 residual_tol: float = 1e-7) -> float:
    """Robin parameter for V_xi at a resonant coupling theta.

    alpha = -(omega / (3*xi*s)) * [(Ai'(s(1-xi))/Ai(s))^2 + s*(1-xi)^2],
    s = cbrt(theta/xi^2).  (Sign conventions pinned by the quadrature route
    through the general Robin-parameter formula.)
    """
    pair = _linear_pair(xi, theta)
    _check_resonant(xi, theta, residual_tol, pair)
    if pair is None:
        return 0.5 * omega
    s, at_s, at_w = pair
    return -(omega / (3.0 * xi * s)) * ((at_w.dai / at_s.ai) ** 2
                                        + s * (1.0 - xi) ** 2)


def linear_weighted_square_integral(xi: float, theta: float,
                                    residual_tol: float = 1e-7) -> float:
    """Closed form of the weighted square integral of the shooting profile,
    int_0^1 V_xi(x) psi(x)^2 dx, valid at resonant couplings."""
    pair = _linear_pair(xi, theta)
    _check_resonant(xi, theta, residual_tol, pair)
    if pair is None:
        return -1.0 / (2.0 * theta)   # square well: int sin^2(t x)/t^2 = 1/(2 t^2)
    s, at_s, at_w = pair
    return -(1.0 / (3.0 * xi * theta)) * (
        1.0 + s * (1.0 - xi) ** 2 * (at_s.ai / at_w.dai) ** 2)


def find_linear_resonances(xi: float, theta_range, max_hits: int | None = None,
                           grid_cells: int = 2000, root_tol: float = 1e-12):
    """Scan the Airy residual for sign changes and refine each bracket by
    Brent's method to width root_tol*(1+|theta|).

    Returns the resonant couplings in theta_range, largest (closest to 0)
    first when the range is negative.
    """
    lo, hi = map(float, theta_range)
    if not lo < hi:
        raise ValueError("empty theta range")
    grid = np.linspace(lo, hi, grid_cells + 1)
    grid = grid[grid != 0.0]
    vals = np.array([upsilon_linear_residual(xi, t) for t in grid])
    known = dict(zip(grid, vals))     # brentq starts from the scanned ends

    def residual(t):
        return known[t] if t in known else upsilon_linear_residual(xi, t)

    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(brentq(residual, a, b, xtol=root_tol, rtol=root_tol))
    roots.sort(key=abs)
    return roots[:max_hits] if max_hits is not None else roots
