"""Self-contained real-argument Airy functions and the linear-potential
closed forms built on them.

Evaluation strategy: for |x| <= X_SWITCH, a short Taylor step of
y'' = x*y from the nearest of the anchors a = j/8, j = -72..72, whose
(Ai, Ai', Bi, Bi') are summed once, on first use, by the Maclaurin series
about 0 in 60-digit decimal arithmetic and rounded once to float, so the
cancellation of the large series terms does not reach the small function
values: each anchor is the correctly rounded value.  The step
|h| <= 1/16 is summed to order 16 in plain double arithmetic, by Horner's
rule on coefficients tabulated with the anchors (Gil, Segura & Temme,
Numerical Methods for Special Functions, ch. 9; DLMF 3.7).  Outside,
full asymptotic expansions (well beyond leading order) are each summed to
their smallest term.  The positive axis uses the exponential series of
DLMF 9.7.5-9.7.8; the negative axis uses the oscillatory Poincare series
of DLMF 9.7.9-9.7.12, i.e. cos/sin(zeta - pi/4) times the even and odd
u_k (v_k for the derivatives) sums P and Q, with the 80 coefficients of
each tabulated on first use.

The split point is 9.0: the oscillatory-side asymptotic error floor behaves
like exp(-4/3*|x|^(3/2)), which only drops well below 1e-13 for |x| >= 9,
while the Taylor steps from the anchors stay near machine accuracy up to
that point.

airy_table is the one evaluation path: it takes the Taylor steps of a
whole array at once, and airy_quad is its row at a single argument.  The
closed forms read their Airy pairs through one router, _linear_pairs,
which makes one airy_table call for a whole array of couplings.
"""
from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy.optimize import brentq

from .errors import AiryRangeError, NotAResonance
from .resonance import refine_nearest_first, scan_grid

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
# above this, Bi = O(e^zeta), zeta = 2/3 x^1.5 > 666, nears the float64 range
# and Ai its subnormal floor, so _linear_pairs reads the pair in a gauge
GAUGE_X = 100.0
XI_SQUARE_GUARD = 1e-6   # |xi| below this routes to the square-well forms


# ---------------------------------------------------------------------------
# series region: Taylor steps from anchors summed by the Maclaurin series
# ---------------------------------------------------------------------------

_STEP = 0.125        # anchor spacing, so a step is |h| <= 1/16
_LAST = 72           # anchors a = j*_STEP, |j| <= _LAST, cover |x| <= X_SWITCH
_ORDER = 16          # the dropped terms fall like (3|h|)^17/17! < 1e-26


def _maclaurin(x):
    """(Ai, Ai', Bi, Bi') at each element of a 1-d array, by the Maclaurin
    series about 0 (DLMF 9.4.1-9.4.4) summed in 60-digit decimal arithmetic
    and rounded once to float.  At |x| = 9 the series terms reach 1e8 while
    Ai is near 1e-9, so the sums keep over 40 digits past the cancellation.

    With f = sum c_k x^3k and g = x sum d_k x^3k the solutions that are
    1, 0 and 0, 1 at 0, Ai = A f - B g and Bi = sqrt(3) (A f + B g), where
    A = Ai(0) and B = -Ai'(0) (DLMF 9.2.3-9.2.4), and alike for f' = x^2
    sum e_k x^3k and g' = sum h_k x^3k.  Each coefficient is the one before
    over (n + i)(n + j), n = 3k; 64 terms leave a tail below 1e-60 of each
    sum up to |x| = 9."""
    with decimal.localcontext(decimal.Context(prec=60)):
        a0 = Decimal("0.355028053887817239260063186004183176397979174")
        b0 = Decimal("0.258819403792806798405183560189203963479091138")
        sqrt3 = Decimal(3).sqrt()
        series = []                     # c_k, d_k, e_k, h_k
        for i, j, first in ((-1, 0, 1), (0, 1, 1), (0, 2, 0.5), (-2, 0, 1)):
            c = [Decimal(first)]
            for n in range(3, 3 * 64, 3):
                c.append(c[-1] / ((n + i) * (n + j)))
            series.append(c)
        rows = []
        for t in np.asarray(x, dtype=float).tolist():
            t = Decimal(t)
            powers = list(itertools.accumulate(
                itertools.repeat(t ** 3, 63), operator.mul, initial=Decimal(1)))
            f, g, fp, gp = (sum(map(operator.mul, c, powers)) for c in series)
            af, bg, afp, bgp = a0 * f, b0 * t * g, a0 * t * t * fp, b0 * gp
            rows.append([float(v) for v in (af - bg, afp - bgp,
                                            sqrt3 * (af + bg),
                                            sqrt3 * (afp + bgp))])
    return np.array(rows).T


@functools.cache
def _anchors():
    """Horner coefficients of the Taylor step from each anchor, built on
    first use from one _maclaurin call.

    About a, y(a + h) = sum c_k h^k with c_0 = y(a), c_1 = y'(a) and
    c_{k+2} = (a*c_k + c_{k-1}) / ((k+1)(k+2)), and y'(a + h) =
    sum (k+1) c_{k+1} h^k.  Returns the (degree, anchor, column) array,
    highest degree first, with the columns Ai, Ai', Bi, Bi' (the derivative
    columns lead with a zero)."""
    a = np.arange(-_LAST, _LAST + 1) * _STEP
    ai, dai, bi, dbi = _maclaurin(a)
    c = np.zeros((_ORDER + 1, 2, a.size))       # c_k of Ai and of Bi
    c[0], c[1] = (ai, bi), (dai, dbi)
    for k in range(_ORDER - 1):
        c[k + 2] = (a * c[k] + (c[k - 1] if k else 0.0)) / ((k + 1) * (k + 2))
    d = np.zeros_like(c)
    d[:-1] = np.arange(1, _ORDER + 1)[:, None, None] * c[1:]
    coef = np.stack([c[:, 0], d[:, 0], c[:, 1], d[:, 1]], axis=-1)
    coef = np.ascontiguousarray(coef[::-1])
    coef.flags.writeable = False        # one cached table serves every call
    return coef


def _taylor_table(xs: np.ndarray) -> np.ndarray:
    """Rows (Ai, Ai', Bi, Bi') at a 1-d array with |x| <= X_SWITCH, each
    stepped from the nearest anchor by Horner's rule."""
    j = np.floor(xs / _STEP + 0.5)
    h = np.repeat((xs - j * _STEP)[:, None], 4, axis=1)
    rows = _anchors()[:, j.astype(np.intp) + _LAST]
    out = rows[0]
    for row in rows[1:]:
        out = out * h + row
    return out


# ---------------------------------------------------------------------------
# asymptotic region
# ---------------------------------------------------------------------------

@functools.cache
def _asym_coeffs():
    """The coefficients u_k and v_k of DLMF 9.7.2, k < 80, built on first
    use."""
    uk, vk = [1.0], [1.0]
    for k in range(1, 80):
        u = uk[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        uk.append(u)
        vk.append(u * (6 * k + 1) / (1 - 6 * k))
    return uk, vk


def _asym_sum(coeff, zeta: float, alternating: bool, parity: int | None = None):
    """Sum coeff[k]/zeta^k (optionally signed, optionally only even/odd k),
    truncating at the smallest term."""
    total = 0.0
    prev = np.inf
    ks = range(0, 40) if parity is None else range(parity, 80, 2)
    for i, k in enumerate(ks):
        term = coeff[k] / zeta ** k
        if abs(term) >= prev:
            break
        sign = (-1.0) ** (i if parity is not None else k) if alternating else 1.0
        total += sign * term
        prev = abs(term)
    return total


def _asym_positive(x: float, gauge: float = 0.0):
    """(Ai, Ai', Bi, Bi') at x > 0, with Ai and Ai' scaled by e^gauge and
    Bi and Bi' by e^-gauge."""
    zeta = (2.0 / 3.0) * x ** 1.5
    root = x ** 0.25
    spi = np.sqrt(np.pi)
    uk, vk = _asym_coeffs()
    su_alt = _asym_sum(uk, zeta, True)
    sv_alt = _asym_sum(vk, zeta, True)
    su = _asym_sum(uk, zeta, False)
    sv = _asym_sum(vk, zeta, False)
    with np.errstate(over="ignore"):
        em, ep = np.exp(gauge - zeta), np.exp(zeta - gauge)
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
    uk, vk = _asym_coeffs()
    p = _asym_sum(uk, zeta, True, parity=0)
    q = _asym_sum(uk, zeta, True, parity=1)
    r = _asym_sum(vk, zeta, True, parity=0)
    u = _asym_sum(vk, zeta, True, parity=1)
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


def _range_error(x: float) -> AiryRangeError:
    return AiryRangeError(f"argument {x} outside guarded range |x| <= {X_MAX}")


def airy_quad(x: float) -> AiryQuad:
    """Evaluate the Airy quartet at real x, |x| <= 200: the row of
    airy_table at x."""
    x = float(x)
    return AiryQuad(x, *airy_table(x)[0].tolist())


def airy_table(xs) -> np.ndarray:
    """Columns (Ai, Ai', Bi, Bi') for an array of arguments.

    Every argument with |x| <= 9 takes its Taylor step in one array pass;
    the others take the asymptotic expansions one at a time."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    bad = ~(np.abs(xs) <= X_MAX)         # NaN fails the comparison
    if bad.any():
        raise _range_error(float(xs[bad][0]))
    out = np.empty((xs.size, 4))
    near = np.abs(xs) <= X_SWITCH
    if near.any():
        out[near] = _taylor_table(xs[near])
    for i in np.flatnonzero(~near):
        x = float(xs[i])
        out[i] = _asym_positive(x) if x > 0 else _asym_negative(x)
    return out


# ---------------------------------------------------------------------------
# linear-potential closed forms: V_xi(x) = (1 - xi*x) on [0, 1]
# ---------------------------------------------------------------------------

def sigma_parameter(xi: float, theta: float) -> float:
    """Real cube root of theta / xi^2."""
    return float(np.cbrt(theta / (xi * xi)))


def _use_square(xi: float, theta):
    """Route to the square-well forms when xi is tiny, either by the guard
    band or because sigma = cbrt(theta/xi^2) would leave the Airy range.
    The substitution error is O(xi), negligible whenever it triggers.
    theta is a float or an array, and so is the answer."""
    return (abs(xi) < XI_SQUARE_GUARD) | (np.abs(theta) > X_MAX ** 3 * xi * xi)


def _square_closed(theta, x: float):
    """(psi(x), psi'(x)) of the square well, elementwise in theta (a float
    or an array); raises AiryRangeError naming theta where sinh or cosh
    leaves the float64 range."""
    theta = np.asarray(theta, dtype=float)
    k = np.sqrt(np.abs(theta))
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.where(theta < 0, np.sin(k * x), np.sinh(k * x)) / k
        dpsi = np.where(theta < 0, np.cos(k * x), np.cosh(k * x))
    _finite(theta, (psi, dpsi), "square-well closed form overflows at theta")
    return psi[()], dpsi[()]


def _airy_gauged(x: float, gauge: float):
    """(Ai, Ai', Bi, Bi') at x with Ai and Ai' scaled by e^gauge and Bi and
    Bi' by e^-gauge; a product Ai(a)*Bi(b) of two such quartets is
    unchanged."""
    if x > X_SWITCH:
        if not x <= X_MAX:
            raise _range_error(x)
        return _asym_positive(x, gauge)
    ai, dai, bi, dbi = airy_table(x)[0]
    up, down = np.exp(gauge), np.exp(-gauge)
    return ai * up, dai * up, bi * down, dbi * down


def _linear_pairs(xi: float, thetas: np.ndarray, x: float = 1.0):
    """(square, s, w, at_s, at_w) for a 1-d array of couplings: square marks
    where the square-well forms stand in (see _use_square); elsewhere s =
    cbrt(theta/xi^2), w = s*(1 - xi*x), and the rows of at_s and at_w are
    (Ai, Ai', Bi, Bi') at s and w, all read by one airy_table call.

    The closed forms read the two quartets through products Ai(.)*Bi(.) and
    ratios of Ai to Ai, which a common gauge (Ai times e^g, Bi times e^-g
    at both points) leaves unchanged.  Where Bi(s) or Bi(w) would leave the
    float64 range (above GAUGE_X), the pair is read on its own with g the
    mean of their exponents 2/3 x^1.5, and raises AiryRangeError naming s
    where a value is still not finite."""
    if np.any(thetas == 0.0):
        raise ValueError("theta must be nonzero")
    square = _use_square(xi, thetas)
    s = np.full(thetas.size, np.nan)
    s[~square] = np.cbrt(thetas[~square] / (xi * xi))      # sigma_parameter
    w = s * (1.0 - xi * x)
    rows = np.full((2, thetas.size, 4), np.nan)
    gauged = np.fmax(s, w) > GAUGE_X
    table = ~square & ~gauged
    rows[:, table] = airy_table(
        np.concatenate([s[table], w[table]])).reshape(2, -1, 4)
    for i in np.flatnonzero(gauged):
        si, wi = float(s[i]), float(w[i])
        gauge = (max(si, 0.0) ** 1.5 + max(wi, 0.0) ** 1.5) / 3.0
        with np.errstate(over="ignore", invalid="ignore"):
            rows[:, i] = _finite(
                si, (_airy_gauged(si, gauge), _airy_gauged(wi, gauge)))
    return square, s, w, rows[0], rows[1]


def _linear_pair(xi: float, theta: float, x: float = 1.0):
    """(s, Airy quartets at s and at s*(1 - xi*x)) for one coupling, or None
    where the square-well forms stand in: one row of _linear_pairs."""
    square, s, w, at_s, at_w = _linear_pairs(
        xi, np.array([theta], dtype=float), x)
    if square[0]:
        return None
    s, w = float(s[0]), float(w[0])
    return s, AiryQuad(s, *at_s[0]), AiryQuad(w, *at_w[0])


def _finite(at, values, where: str = "Airy closed form overflows at s"):
    """values, or AiryRangeError naming the s (or theta) of the first one
    that is not finite; at is a float, or one per value."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise AiryRangeError(
            f"{where} = {np.broadcast_to(at, bad.shape)[bad][0]} "
            f"(float64 range)")
    return values


def psi_linear_closed(xi: float, theta: float, x: float):
    """Zero-energy shooting solution for V_xi in Airy closed form.

    Returns (psi(x), psi'(x)) with psi(0)=0, psi'(0)=1.  For |xi| below the
    guard band the square-well trigonometric form is used instead, avoiding
    catastrophic cancellation in the 1/(xi*sigma) prefactor.
    """
    pair = _linear_pair(xi, theta, x)
    if pair is None:
        return _square_closed(theta, x)
    s, at_s, at_w = pair
    with np.errstate(over="ignore", invalid="ignore"):
        psi = (np.pi / (xi * s)) * (at_s.bi * at_w.ai - at_s.ai * at_w.bi)
        dpsi = np.pi * (at_s.ai * at_w.dbi - at_s.bi * at_w.dai)
    return _finite(s, (psi, dpsi))


def upsilon_linear_residual(xi: float, theta: float) -> float:
    """Resonance residual for V_xi; its roots in theta form the resonant set.

    Proportional to psi'(1): Ai(s)Bi'(s(1-xi)) - Bi(s)Ai'(s(1-xi)) with
    s = cbrt(theta/xi^2)."""
    return _residual_grid(xi, np.array([theta], dtype=float))[0]


def _residual_grid(xi: float, thetas: np.ndarray) -> np.ndarray:
    """upsilon_linear_residual at each coupling of a 1-d array: the products
    of the rows of _linear_pairs, or the square-well slope."""
    square, s, _, at_s, at_w = _linear_pairs(xi, thetas)
    with np.errstate(over="ignore", invalid="ignore"):
        out = at_s[:, 0] * at_w[:, 3] - at_s[:, 2] * at_w[:, 1]
    _finite(s[~square], out[~square])
    if square.any():
        out[square] = _square_closed(thetas[square], 1.0)[1]
    return out


def _check_resonant(xi: float, theta: float, residual_tol: float, pair):
    if not 0.0 < residual_tol < math.inf:
        raise ValueError(
            f"residual_tol must be positive and finite, got {residual_tol}")
    if pair is None:
        res, scale = _square_closed(theta, 1.0)[1], 1.0
    else:
        s, at_s, at_w = pair
        with np.errstate(over="ignore", invalid="ignore"):
            # an inf would pass any scaled gate
            res = _finite(s, at_s.ai * at_w.dbi - at_s.bi * at_w.dai)
        w = s * (1.0 - xi)
        if min(s, w) <= 0.0 and max(s, w) <= GAUGE_X:
            # one point oscillates, so (Ai, Bi)(s) or (Ai', Bi')(w) turns
            # with theta, and res / (hypot(Ai, Bi)(s) hypot(Ai', Bi')(w)) is
            # the sine of the angle between them (on the negative axis the
            # two moduli are those of DLMF 9.8).  The two products alone
            # can both be small at a root: where s is a zero of Bi and w one
            # of Bi' (xi = 0.2986 on the first root), or where w > 0 makes
            # Ai'(w) exponentially small and s sits near a zero of Ai.
            scale = (math.hypot(at_s.ai, at_s.bi)
                     * math.hypot(at_w.dai, at_w.dbi))
        else:
            # with both points positive, Bi outgrows Ai at each and the
            # angle is small everywhere; the gauge of _linear_pairs also
            # changes the moduli.  The products set the scale.
            scale = max(abs(at_s.ai * at_w.dbi), abs(at_s.bi * at_w.dai))
        scale = max(scale, 1e-300)
    if abs(res) > residual_tol * scale:
        raise NotAResonance(
            f"residual {res:.3e} above tolerance at (xi={xi}, theta={theta})")


def _slope_ratio(at_s, at_w) -> float:
    """Ai'(w)/Ai(s), which a resonance makes equal to Bi'(w)/Bi(s), read as
    the mean of the two weighted by Ai(s)^2 and Bi(s)^2.  Off the exact root
    (within Brent's tolerance) the two differ, and Ai'(w)/Ai(s) alone moves
    like 1/Ai(s) with theta, so where s nears a zero of Ai (with w near one
    of Ai') it loses digits that the mean, moving like 1/hypot(Ai, Bi)(s),
    keeps."""
    m = math.hypot(at_s.ai, at_s.bi)
    return ((at_s.ai / m) * at_w.dai + (at_s.bi / m) * at_w.dbi) / m


def alpha_linear(xi: float, theta: float, omega: float,
                 residual_tol: float = 1e-7) -> float:
    """Robin parameter for V_xi at a resonant coupling theta.

    alpha = -(omega / (3*xi*s)) * [(Ai'(s(1-xi))/Ai(s))^2 + s*(1-xi)^2],
    s = cbrt(theta/xi^2), with the ratio read by _slope_ratio.  (Sign
    conventions pinned by the quadrature route through the general
    Robin-parameter formula.)
    """
    pair = _linear_pair(xi, theta)
    _check_resonant(xi, theta, residual_tol, pair)
    if pair is None:
        return 0.5 * omega
    s, at_s, at_w = pair
    with np.errstate(over="ignore"):
        return _finite(s, -(omega / (3.0 * xi * s)) * (
            _slope_ratio(at_s, at_w) ** 2 + s * (1.0 - xi) ** 2))


def linear_weighted_square_integral(xi: float, theta: float,
                                    residual_tol: float = 1e-7) -> float:
    """Closed form of the weighted square integral of the shooting profile,
    int_0^1 V_xi(x) psi(x)^2 dx, valid at resonant couplings."""
    pair = _linear_pair(xi, theta)
    _check_resonant(xi, theta, residual_tol, pair)
    if pair is None:
        return -1.0 / (2.0 * theta)   # square well: int sin^2(t x)/t^2 = 1/(2 t^2)
    s, at_s, at_w = pair
    with np.errstate(over="ignore", divide="ignore"):
        return _finite(s, -(1.0 / (3.0 * xi * theta)) * (
            1.0 + s * (1.0 - xi) ** 2 / _slope_ratio(at_s, at_w) ** 2))


def find_linear_resonances(xi: float, theta_range, max_hits: int | None = None,
                           grid_cells: int = 2000, root_tol: float = 1e-12):
    """Scan the Airy residual for sign changes and refine each bracket by
    Brent's method to width root_tol*(1+|theta|).

    Returns the resonant couplings in theta_range ordered by |theta| (largest
    first when the range is negative).  With ``max_hits``, brackets are
    refined nearest |theta| first, and only until no bracket left can hold
    a root nearer than the max_hits-th; the result is the first max_hits
    roots of the unbounded scan."""
    grid = scan_grid(theta_range, grid_cells, root_tol, max_hits)
    grid = grid[grid != 0.0]
    vals = _residual_grid(xi, grid)

    def refine(i):
        # Brent's method starts from the scanned ends
        a, b = grid[i], grid[i + 1]
        ends = {a: vals[i], b: vals[i + 1]}
        return [brentq(
            lambda t: ends[t] if t in ends else upsilon_linear_residual(xi, t),
            a, b, xtol=root_tol, rtol=root_tol)]

    return refine_nearest_first(grid, vals, refine,
                                grid[vals == 0.0].tolist(), max_hits)
