"""Self-contained real-argument Airy functions and the linear-potential
closed forms built on them.

Evaluation strategy: for |x| <= X_SWITCH, a short Taylor step of
y'' = x*y from the nearest of the anchors a = j/8, j = -72..72, whose
(Ai, Ai', Bi, Bi') are summed once, on first use, by the Maclaurin series
about 0 in compensated double-double arithmetic, so the cancellation of the
large series terms does not destroy the small function values.  The step
|h| <= 1/16 is summed to order 16 in plain double arithmetic, by Horner's
rule on coefficients tabulated with the anchors (Gil, Segura & Temme,
Numerical Methods for Special Functions, ch. 9; DLMF 3.7).  Outside,
full asymptotic expansions (well beyond leading order) are each summed to
their smallest term.  The positive axis uses the exponential series of
DLMF 9.7.5-9.7.8; the negative axis uses the oscillatory Poincare series
of DLMF 9.7.9-9.7.12, i.e. cos/sin(zeta - pi/4) times the even and odd
u_k (v_k for the derivatives) sums P and Q.

The split point is 9.0: the oscillatory-side asymptotic error floor behaves
like exp(-4/3*|x|^(3/2)), which only drops well below 1e-13 for |x| >= 9,
while the double-double series stays near machine accuracy up to that point.

airy_table steps a whole array of arguments at once (and so does the
residual grid of find_linear_resonances): every element sees the same IEEE
operations, in the same order, as a float argument does in airy_quad, so
each value is bit-identical to airy_quad at that argument.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import AiryRangeError, NotAResonance
from .resonance import refine_nearest_first

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
# and Ai its subnormal floor, so _linear_pair reads the pair in a gauge
GAUGE_X = 100.0
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
# series region: Taylor steps from anchors summed by the Maclaurin series
# ---------------------------------------------------------------------------

_STEP = 0.125        # anchor spacing, so a step is |h| <= 1/16
_LAST = 72           # anchors a = j*_STEP, |j| <= _LAST, cover |x| <= X_SWITCH
_ORDER = 16          # the dropped terms fall like (3|h|)^17/17! < 1e-26


def _series(x):
    """The four auxiliary Maclaurin sums (f, g, f', g') for y'' = x*y at each
    element of a 1-d float64 array, summed in double-double arithmetic until
    every element has stagnated."""
    x2 = _two_prod(x, x)
    x3 = _dd_mul_d(x2, x)

    f = term_f = (np.ones_like(x), np.zeros_like(x))
    g = term_g = (x, np.zeros_like(x))
    fp = term_fp = _dd_div_d(x2, 2.0)
    gp = term_gp = (np.ones_like(x), np.zeros_like(x))

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
        terms = np.maximum.reduce([abs(t[0]) for t in
                                   (term_f, term_g, term_fp, term_gp)])
        if np.all(terms < 1e-35 * (abs(f[0]) + abs(g[0]) + 1.0)):
            break
    return f, g, fp, gp


def _maclaurin(x):
    """(Ai, Ai', Bi, Bi') at each element of a 1-d array."""
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


@functools.cache
def _anchors():
    """Horner coefficients of the Taylor step from each anchor, built on
    first use from one _series call.

    About a, y(a + h) = sum c_k h^k with c_0 = y(a), c_1 = y'(a) and
    c_{k+2} = (a*c_k + c_{k-1}) / ((k+1)(k+2)), and y'(a + h) =
    sum (k+1) c_{k+1} h^k.  Returns the (anchor, degree, column) array,
    highest degree first, with the columns Ai, Ai', Bi, Bi' (the derivative
    columns lead with a zero), and the same numbers as nested lists."""
    a = np.arange(-_LAST, _LAST + 1) * _STEP
    ai, dai, bi, dbi = _maclaurin(a)
    c = np.zeros((_ORDER + 1, 2, a.size))       # c_k of Ai and of Bi
    c[0], c[1] = (ai, bi), (dai, dbi)
    for k in range(_ORDER - 1):
        c[k + 2] = (a * c[k] + (c[k - 1] if k else 0.0)) / ((k + 1) * (k + 2))
    d = np.zeros_like(c)
    d[:-1] = np.arange(1, _ORDER + 1)[:, None, None] * c[1:]
    coef = np.stack([c[:, 0], d[:, 0], c[:, 1], d[:, 1]], axis=-1)
    coef = np.ascontiguousarray(coef[::-1].transpose(1, 0, 2))
    coef.flags.writeable = False        # one cached table serves every call
    return coef, coef.tolist()


def _taylor(x: float):
    """(Ai, Ai', Bi, Bi') at a float |x| <= X_SWITCH, stepped from the
    nearest anchor in Python floats."""
    j = math.floor(x / _STEP + 0.5)
    h = x - j * _STEP
    rows = _anchors()[1][j + _LAST]
    ai, dai, bi, dbi = rows[0]
    for c0, c1, c2, c3 in rows[1:]:
        ai, dai, bi, dbi = ai * h + c0, dai * h + c1, bi * h + c2, dbi * h + c3
    return ai, dai, bi, dbi


def _taylor_table(xs: np.ndarray) -> np.ndarray:
    """Rows (Ai, Ai', Bi, Bi') at a 1-d array with |x| <= X_SWITCH: the
    operations of _taylor, elementwise and in the same order."""
    j = np.floor(xs / _STEP + 0.5)
    h = (xs - j * _STEP)[:, None]
    rows = _anchors()[0][j.astype(np.intp) + _LAST]
    out = rows[:, 0]
    for m in range(1, _ORDER + 1):
        out = out * h + rows[:, m]
    return out


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


def _asym_positive(x: float, gauge: float = 0.0):
    """(Ai, Ai', Bi, Bi') at x > 0, with Ai and Ai' scaled by e^gauge and
    Bi and Bi' by e^-gauge."""
    zeta = (2.0 / 3.0) * x ** 1.5
    root = x ** 0.25
    spi = np.sqrt(np.pi)
    su_alt = _asym_sum(_UK, zeta, True)
    sv_alt = _asym_sum(_VK, zeta, True)
    su = _asym_sum(_UK, zeta, False)
    sv = _asym_sum(_VK, zeta, False)
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


def _asymptotic(x: float):
    return _asym_positive(x) if x > 0 else _asym_negative(x)


def _range_error(x: float) -> AiryRangeError:
    return AiryRangeError(f"argument {x} outside guarded range |x| <= {X_MAX}")


def airy_quad(x: float) -> AiryQuad:
    """Evaluate the Airy quartet at real x, |x| <= 200."""
    x = float(x)
    if not abs(x) <= X_MAX:              # NaN fails the comparison
        raise _range_error(x)
    vals = _taylor(x) if abs(x) <= X_SWITCH else _asymptotic(x)
    return AiryQuad(x, *vals)


def airy_table(xs) -> np.ndarray:
    """Columns (Ai, Ai', Bi, Bi') for an array of arguments.

    Every argument with |x| <= 9 takes its Taylor step in one array pass;
    the others take the asymptotic expansions one at a time.  Each row is
    bit-identical to airy_quad at that argument."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    bad = ~(np.abs(xs) <= X_MAX)
    if bad.any():
        raise _range_error(float(xs[bad][0]))
    out = np.empty((xs.size, 4))
    near = np.abs(xs) <= X_SWITCH
    if near.any():
        out[near] = _taylor_table(xs[near])
    for i in np.flatnonzero(~near):
        out[i] = _asymptotic(float(xs[i]))
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


def _square_closed(theta: float, x: float):
    if theta < 0:
        s = np.sqrt(-theta)
        return np.sin(s * x) / s, np.cos(s * x)
    s = np.sqrt(theta)
    return np.sinh(s * x) / s, np.cosh(s * x)


def _airy_gauged(x: float, gauge: float) -> AiryQuad:
    """The Airy quartet at x with Ai and Ai' scaled by e^gauge and Bi and
    Bi' by e^-gauge; a product Ai(a)*Bi(b) of two such quartets is
    unchanged."""
    if x > X_SWITCH:
        if not x <= X_MAX:
            raise _range_error(x)
        return AiryQuad(x, *_asym_positive(x, gauge))
    q = airy_quad(x)
    up, down = np.exp(gauge), np.exp(-gauge)
    return AiryQuad(x, q.ai * up, q.dai * up, q.bi * down, q.dbi * down)


def _linear_pair(xi: float, theta: float, x: float = 1.0):
    """(s, Airy quartets at s and at s*(1 - xi*x)) with s = cbrt(theta/xi^2),
    or None where the square-well forms stand in (see _use_square).

    Every closed form reads the two quartets through products Ai(.)*Bi(.)
    and ratios of Ai to Ai, which a common gauge (Ai times e^g, Bi times
    e^-g at both points) leaves unchanged.  Where Bi(s) or Bi(s*(1-xi*x))
    would leave the float64 range, g is the mean of their exponents
    2/3 x^1.5, so the pair stays finite wherever the closed form is;
    otherwise g = 0.  Raises AiryRangeError naming s where a value is still
    not finite."""
    if theta == 0.0:
        raise ValueError("theta must be nonzero")
    if _use_square(xi, theta):
        return None
    s = sigma_parameter(xi, theta)
    w = s * (1.0 - xi * x)
    if max(s, w) <= GAUGE_X:
        return s, airy_quad(s), airy_quad(w)
    gauge = (max(s, 0.0) ** 1.5 + max(w, 0.0) ** 1.5) / 3.0
    with np.errstate(over="ignore", invalid="ignore"):
        pair = _airy_gauged(s, gauge), _airy_gauged(w, gauge)
    _check_finite(s, [v for q in pair for v in (q.ai, q.dai, q.bi, q.dbi)])
    return (s, *pair)


def _check_finite(s: float, values) -> None:
    if not np.all(np.isfinite(values)):
        raise AiryRangeError(
            f"Airy closed form overflows at s = {s} (float64 range)")


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
    _check_finite(s, (psi, dpsi))
    return psi, dpsi


def upsilon_linear_residual(xi: float, theta: float) -> float:
    """Resonance residual for V_xi; its roots in theta form the resonant set.

    Proportional to psi'(1): Ai(s)Bi'(s(1-xi)) - Bi(s)Ai'(s(1-xi)) with
    s = cbrt(theta/xi^2)."""
    pair = _linear_pair(xi, theta)
    if pair is None:
        return _square_closed(theta, 1.0)[1]
    s, at_s, at_w = pair
    with np.errstate(over="ignore", invalid="ignore"):
        res = at_s.ai * at_w.dbi - at_s.bi * at_w.dai
    _check_finite(s, res)
    return res


def _residual_grid(xi: float, thetas: np.ndarray) -> np.ndarray:
    """upsilon_linear_residual at each coupling of a 1-d array, bit for bit,
    with the Airy pairs of all ungauged couplings read by one airy_table
    call; a gauged one (see _linear_pair) takes the scalar path."""
    out = np.empty(thetas.size)
    square = _use_square(xi, thetas)
    for i in np.flatnonzero(square):
        out[i] = _square_closed(thetas[i], 1.0)[1]
    s = np.full(thetas.size, np.nan)
    s[~square] = np.cbrt(thetas[~square] / (xi * xi))      # sigma_parameter
    gauged = ~square & (np.fmax(s, s * (1.0 - xi)) > GAUGE_X)
    for i in np.flatnonzero(gauged):
        out[i] = upsilon_linear_residual(xi, float(thetas[i]))
    table = ~square & ~gauged
    n = np.count_nonzero(table)
    pairs = airy_table(np.concatenate([s[table], s[table] * (1.0 - xi)]))
    at_s, at_w = pairs[:n], pairs[n:]
    out[table] = at_s[:, 0] * at_w[:, 3] - at_s[:, 2] * at_w[:, 1]
    return out


def _check_resonant(xi: float, theta: float, residual_tol: float, pair):
    if pair is None:
        res, scale = _square_closed(theta, 1.0)[1], 1.0
    else:
        s, at_s, at_w = pair
        res = at_s.ai * at_w.dbi - at_s.bi * at_w.dai
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
            # angle is small everywhere; the gauge of _linear_pair also
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
    return -(omega / (3.0 * xi * s)) * (_slope_ratio(at_s, at_w) ** 2
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
        1.0 + s * (1.0 - xi) ** 2 / _slope_ratio(at_s, at_w) ** 2)


def find_linear_resonances(xi: float, theta_range, max_hits: int | None = None,
                           grid_cells: int = 2000, root_tol: float = 1e-12):
    """Scan the Airy residual for sign changes and refine each bracket by
    Brent's method to width root_tol*(1+|theta|).

    Returns the resonant couplings in theta_range ordered by |theta| (largest
    first when the range is negative).  With ``max_hits``, brackets are
    refined nearest |theta| first, and only until no bracket left can hold
    a root nearer than the max_hits-th; the result is the first max_hits
    roots of the unbounded scan."""
    lo, hi = map(float, theta_range)
    if not lo < hi:
        raise ValueError("empty theta range")
    if grid_cells < 1:
        raise ValueError(f"grid_cells must be at least 1, got {grid_cells}")
    if max_hits is not None and max_hits < 0:
        raise ValueError(f"max_hits must not be negative, got {max_hits}")
    grid = np.linspace(lo, hi, grid_cells + 1)
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
