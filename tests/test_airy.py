import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq

from deltalim import airy, ode, potential, quadrature, resonance
from deltalim.errors import AiryRangeError, NotAResonance

_SRC = str(Path(airy.__file__).resolve().parents[1])


def _quad_array(xs):
    return np.array([[q.ai, q.dai, q.bi, q.dbi]
                     for q in (airy.airy_quad(x) for x in xs)])


def test_against_scipy_core_range():
    xs = np.linspace(-10.0, 10.0, 801)
    ours = _quad_array(xs)
    ref = np.array(scipy.special.airy(xs)).T
    # relative where the function is not tiny, absolute otherwise; the bound
    # reflects the reference library's own accuracy on the oscillatory side
    scale = np.maximum(np.abs(ref), 1e-3)
    assert np.max(np.abs(ours - ref) / scale) < 1e-12


def test_against_scipy_far_negative():
    xs = np.linspace(-180.0, -10.0, 341)
    ours = _quad_array(xs)
    ref = np.array(scipy.special.airy(xs)).T
    assert np.max(np.abs(ours - ref)) < 5e-12


def test_against_scipy_far_positive():
    # Bi overflows near +110 in double precision; stay below that
    xs = np.linspace(10.0, 100.0, 181)
    ours = _quad_array(xs)
    ref = np.array(scipy.special.airy(xs)).T
    scale = np.abs(ref) + 1e-300
    assert np.max(np.abs(ours - ref) / scale) < 1e-12


def test_wronskian_identity():
    xs = np.linspace(-10.0, 10.0, 1000)
    w = np.array([airy.airy_quad(x).wronskian for x in xs])
    assert np.max(np.abs(w - 1 / np.pi)) < 1e-12


def test_differential_equation_residual():
    # Ai'' = x Ai and Bi'' = x Bi via central differences
    h = 1e-4
    for x in (-7.3, -2.0, 0.5, 3.1, 8.7):
        lo, mid, hi = (airy.airy_quad(x + k * h) for k in (-1, 0, 1))
        for f_lo, f_mid, f_hi in (((lo.ai, mid.ai, hi.ai)),
                                  ((lo.bi, mid.bi, hi.bi))):
            second = (f_hi - 2 * f_mid + f_lo) / h ** 2
            assert abs(second - x * f_mid) < 1e-6 * max(1.0, abs(f_mid))


def test_sign_facts_positive_axis():
    for x in (0.1, 1.0, 4.0, 8.9, 20.0):
        q = airy.airy_quad(x)
        assert q.ai > 0 and q.bi > 0
        assert q.dai < 0 and q.dbi > 0


def test_range_guard():
    with pytest.raises(AiryRangeError):
        airy.airy_quad(201.0)
    with pytest.raises(AiryRangeError):
        airy.airy_quad(float("nan"))


def test_airy_table_shape():
    tab = airy.airy_table(np.linspace(-1, 1, 5))
    assert tab.shape == (5, 4)
    assert tab[2, 0] == pytest.approx(airy.airy_quad(0.0).ai)


# ---------------------------------------------------------------------------
# linear-potential closed forms


@pytest.mark.parametrize("xi,theta", [(0.3, -4.0), (0.7, -11.0), (1.0, -7.0),
                                      (0.5, 6.0)])
def test_psi_linear_closed_matches_ode(xi, theta):
    V = potential.linear(xi)
    traj = ode.solve_psi(V, theta, tol=1e-12)
    for x in (0.2, 0.6, 1.0):
        psi, dpsi = airy.psi_linear_closed(xi, theta, x)
        val, der = traj(x)
        assert psi == pytest.approx(np.real(val), abs=1e-10)
        assert dpsi == pytest.approx(np.real(der), abs=1e-10)


def test_psi_linear_initial_conditions():
    psi, dpsi = airy.psi_linear_closed(0.8, -9.0, 0.0)
    assert abs(psi) < 1e-13
    assert dpsi == pytest.approx(1.0, abs=1e-13)


def test_residual_roots_match_shooting_roots():
    xi = 0.6
    roots = airy.find_linear_resonances(xi, (-40.0, -0.5), max_hits=2)
    hits = resonance.find_resonances(potential.linear(xi), (-40.0, -0.5),
                                     max_hits=2)
    for r, h in zip(roots, hits):
        assert r == pytest.approx(h.theta, abs=1e-8 * (1 + abs(r)))


def test_alpha_linear_matches_quadrature_route():
    xi = 0.6
    V = potential.linear(xi)
    hits = resonance.find_resonances(V, (-40.0, -0.5), max_hits=2)
    for h in hits:
        closed = airy.alpha_linear(xi, h.theta, omega=2.5)
        assert closed == pytest.approx(resonance.robin_alpha(V, h, 2.5),
                                       rel=1e-8)


def test_weighted_square_integral_closed_form():
    xi = 0.4
    theta = airy.find_linear_resonances(xi, (-40.0, -0.5), max_hits=1)[0]
    closed = airy.linear_weighted_square_integral(xi, theta)
    V = potential.linear(xi)
    traj = ode.solve_psi(V, theta, tol=1e-12)
    nodes, weights = quadrature.gauss_nodes(
        quadrature.panel_edges(0.0, 1.0, max_panel=0.25), n=20)
    direct = np.sum(weights * V(nodes) * np.real(traj(nodes)[0]) ** 2)
    assert closed == pytest.approx(direct, rel=1e-9)


def test_not_a_resonance_guard():
    with pytest.raises(NotAResonance):
        airy.alpha_linear(0.5, -3.0, 1.0)


def test_resonance_gate_where_both_products_are_small():
    # s = -3.2711 is a zero of Bi and w = s(1 - xi) = -2.2944 one of Bi', so
    # both products of the residual are 3.3e-7 there; a root 4.8e-13 from
    # the exact one (inside Brent's tolerance) was rejected as no resonance
    xi = 0.29857110347750027
    theta, = airy.find_linear_resonances(
        xi, (-11.216053567734264, -1.7736757363175604), grid_cells=1000)
    assert theta == -3.120140117221471
    s = airy.sigma_parameter(xi, theta)
    ai_s, _, bi_s, _ = scipy.special.airy(s)
    _, dai_w, _, dbi_w = scipy.special.airy(s * (1.0 - xi))
    assert abs(bi_s) < 1e-6 and abs(dbi_w) < 1e-6
    want = -(1.0 / (3.0 * xi * s)) * ((dai_w / ai_s) ** 2
                                      + s * (1.0 - xi) ** 2)
    assert airy.alpha_linear(xi, theta, 1.0) == pytest.approx(want, rel=1e-8)
    assert airy.linear_weighted_square_integral(xi, theta) > 0.0
    with pytest.raises(NotAResonance):
        airy.alpha_linear(xi, theta + 1e-3, 1.0)


@pytest.mark.parametrize("xi, theta", [
    (0.1, 5.0),      # s = 7.94, w = 7.14: Bi dominates both moduli
    (1.1, -3.0),     # s < 0 < w
    (1.1, 3.0),      # w < 0 < s
])
def test_resonance_gate_off_the_oscillatory_quadrant(xi, theta):
    # a clear non-resonance where s or w is positive still raises
    s = airy.sigma_parameter(xi, theta)
    ai_s, _, bi_s, _ = scipy.special.airy(s)
    _, dai_w, _, dbi_w = scipy.special.airy(s * (1.0 - xi))
    res = ai_s * dbi_w - bi_s * dai_w
    assert abs(res) > 1e-3 * max(abs(ai_s * dbi_w), abs(bi_s * dai_w))
    with pytest.raises(NotAResonance):
        airy.alpha_linear(xi, theta, 1.0)
    with pytest.raises(NotAResonance):
        airy.linear_weighted_square_integral(xi, theta)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_resonance_gate_tol_out_of_range_is_rejected(tol):
    # (0.7, -20) is no resonance (residual -0.235): a nan or inf gate let
    # alpha_linear return -0.01726 there
    for closed_form in (lambda: airy.alpha_linear(0.7, -20.0, 1.0,
                                                  residual_tol=tol),
                        lambda: airy.linear_weighted_square_integral(
                            0.7, -20.0, residual_tol=tol)):
        with pytest.raises(ValueError, match="residual_tol must be positive"):
            closed_form()


def test_closed_forms_where_ai_nearly_vanishes():
    # s = -6.787 is near a zero of Ai and w = -3.248 near one of Ai'; the
    # root is found 2e-11 from the exact one, inside Brent's tolerance, and
    # over that gap Ai'(w)/Ai(s) alone moves alpha by 1.3e-8 relative
    xi = 0.5214000439012983
    theta, = airy.find_linear_resonances(
        xi, (-114.63333731985549, -65.11236201385135), grid_cells=1000)

    def scipy_residual(t):
        s = airy.sigma_parameter(xi, t)
        ai_s, _, bi_s, _ = scipy.special.airy(s)
        _, dai_w, _, dbi_w = scipy.special.airy(s * (1.0 - xi))
        return ai_s * dbi_w - bi_s * dai_w

    exact = brentq(scipy_residual, theta - 1e-9, theta + 1e-9,
                   xtol=1e-14, rtol=1e-15)
    assert abs(theta - exact) > 1e-11
    s = airy.sigma_parameter(xi, exact)
    ai_s = scipy.special.airy(s)[0]
    dai_w = scipy.special.airy(s * (1.0 - xi))[1]
    assert abs(ai_s) < 1e-4 and abs(dai_w) < 1e-3
    alpha = -(1.0 / (3.0 * xi * s)) * ((dai_w / ai_s) ** 2
                                       + s * (1.0 - xi) ** 2)
    weighted = -(1.0 / (3.0 * xi * exact)) * (
        1.0 + s * (1.0 - xi) ** 2 * (ai_s / dai_w) ** 2)
    assert airy.alpha_linear(xi, theta, 1.0) == pytest.approx(alpha, rel=1e-10)
    assert airy.linear_weighted_square_integral(xi, theta) == pytest.approx(
        weighted, rel=1e-10)


@pytest.mark.parametrize("window", [(0.5, 3000.0), (-3000.0, -0.5)])
def test_closed_forms_where_one_point_is_positive(window):
    # xi = 2 puts w = -s on the other side of 0, where Ai(s) or Ai'(w) is
    # exponentially small at a root: both products of the residual are,
    # and Ai'(w)/Ai(s) is off by 150x at theta = -2938 while Bi'(w)/Bi(s)
    # is well conditioned
    xi = 2.0

    def scipy_residual(t):
        s = airy.sigma_parameter(xi, t)
        ai_s, _, bi_s, _ = scipy.special.airy(s)
        _, dai_w, _, dbi_w = scipy.special.airy(s * (1.0 - xi))
        return ai_s * dbi_w - bi_s * dai_w

    roots = airy.find_linear_resonances(xi, window)
    assert len(roots) == 6
    for theta in roots:
        half = 1e-6 * (1.0 + abs(theta))
        exact = brentq(scipy_residual, theta - half, theta + half,
                       xtol=1e-14, rtol=1e-15)
        s = airy.sigma_parameter(xi, exact)
        bi_s = scipy.special.airy(s)[2]
        dbi_w = scipy.special.airy(s * (1.0 - xi))[3]
        ratio = (dbi_w / bi_s) ** 2
        alpha = -(1.0 / (3.0 * xi * s)) * (ratio + s * (1.0 - xi) ** 2)
        weighted = -(1.0 / (3.0 * xi * exact)) * (
            1.0 + s * (1.0 - xi) ** 2 / ratio)
        assert airy.alpha_linear(xi, theta, 1.0) == pytest.approx(
            alpha, rel=1e-10)
        assert airy.linear_weighted_square_integral(xi, theta) == (
            pytest.approx(weighted, rel=1e-10))


def test_square_guard_continuity():
    # tiny xi routes to the trig forms and stays continuous across the guard
    theta = -5.0
    psi0, dpsi0 = airy.psi_linear_closed(0.0, theta, 0.8)
    psi1, dpsi1 = airy.psi_linear_closed(1e-5, theta, 0.8)
    assert psi1 == pytest.approx(psi0, abs=1e-4)
    assert dpsi1 == pytest.approx(dpsi0, abs=1e-4)


def test_xi_to_zero_degeneration():
    # the linear family collapses onto the square well as xi -> 0
    theta = -5.0
    xs = np.linspace(0.0, 1.0, 101)
    ref = np.array([airy.psi_linear_closed(0.0, theta, x)[0] for x in xs])
    gaps = []
    for xi in (1e-1, 1e-2, 1e-3):
        cur = np.array([airy.psi_linear_closed(xi, theta, x)[0] for x in xs])
        gaps.append(np.max(np.abs(cur - ref)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_sigma_parameter():
    assert airy.sigma_parameter(0.5, -2.0) == pytest.approx(-2.0)


@pytest.mark.parametrize("closed_form", [
    lambda xi, theta: airy.alpha_linear(xi, theta, 1.0),
    airy.linear_weighted_square_integral,
    pytest.param(lambda xi, theta: airy.psi_linear_closed(xi, theta, 1.0),
                 id="psi_linear_closed")])
def test_closed_forms_read_one_airy_pair(count_calls, closed_form):
    # one airy_table call of the two arguments s and s(1 - xi)
    theta = airy.find_linear_resonances(0.7, (-30.0, -0.5), max_hits=1)[0]
    tables = count_calls(airy, "airy_table")
    closed_form(0.7, theta)
    s = airy.sigma_parameter(0.7, theta)
    assert [xs.tolist() for (xs,) in tables] == [[s, s * (1.0 - 0.7)]]


def test_root_refinement_reuses_scanned_ends(count_calls):
    # the 201 scanned couplings are read as one airy_table call of their 402
    # arguments s and s(1 - xi); Brent's method starts from the scanned
    # bracket ends and reads only the Airy pairs of its interior iterates,
    # one 2-argument call each
    tables = count_calls(airy, "airy_table")
    roots = airy.find_linear_resonances(0.7, (-80.0, -0.5), grid_cells=200)
    assert len(roots) == 2
    assert [np.shape(xs) for (xs,) in tables] == [(402,)] + [(2,)] * 9
    scanned = set(tables[0][0])
    brent = [x for (xs,) in tables[1:] for x in xs]
    assert len(brent) == 18
    assert len(set(brent)) == len(brent)
    assert scanned.isdisjoint(brent)


# criterion 5's inputs
@pytest.mark.parametrize("xi", [0.3, 0.7, 1.0])
def test_max_hits_refines_only_the_nearest_brackets(count_calls, xi):
    calls = count_calls(airy, "brentq")
    every = airy.find_linear_resonances(xi, (-80.0, -0.5))
    assert len(calls) == len(every) >= 2
    for k in (0, 1, 2):
        del calls[:]
        assert airy.find_linear_resonances(
            xi, (-80.0, -0.5), max_hits=k) == every[:k]
        assert len(calls) == k


def test_max_hits_rejects_a_negative_count():
    with pytest.raises(ValueError, match="max_hits"):
        airy.find_linear_resonances(0.7, (-80.0, -0.5), max_hits=-1)


@pytest.mark.parametrize("cells", [0, -3])
def test_grid_cells_must_be_positive(cells):
    # as in find_resonances: no grid cell would return [] unasked
    with pytest.raises(ValueError, match="grid_cells must be at least 1"):
        airy.find_linear_resonances(0.7, (-80.0, -0.5), grid_cells=cells)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0])
def test_root_tol_out_of_range_is_rejected(tol):
    # inf returned -4.807000 for the root -4.807683, nan an AiryRangeError
    # naming nan, and -1 and 0 brentq's "xtol too small"
    with pytest.raises(ValueError, match="root_tol must be positive"):
        airy.find_linear_resonances(0.7, (-30.0, -0.5), root_tol=tol)


def test_deep_window_scans_without_overflow():
    # at s near -99, w near 99 the residuals pass 1e154, so the product of
    # two grid values would overflow.  Bi'(w) > 0 dominates there, so the
    # residual has the sign of Ai(s): the same at both ends of a window
    # 0.005 wide in s, far inside one gap between zeros of Ai
    theta0 = 4.0 * (-99.0) ** 3
    window = (theta0 - 300.0, theta0 + 300.0)
    ends = scipy.special.airy(np.cbrt(np.array(window) / 4.0))[0]
    assert np.sign(ends[0]) == np.sign(ends[1])
    assert airy.find_linear_resonances(2.0, window, grid_cells=400) == []


# ---------------------------------------------------------------------------
# array evaluation: airy_quad is the row of airy_table at its argument


def _table_by_quad(xs):
    return np.array([[q.ai, q.dai, q.bi, q.dbi]
                     for q in map(airy.airy_quad, xs)]).reshape(-1, 4)


def _assert_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_airy_table_matches_airy_quad_on_series_range():
    xs = np.linspace(-9.0, 9.0, 2001)
    _assert_identical(airy.airy_table(xs), _table_by_quad(xs))


def test_airy_table_matches_airy_quad_across_the_switch():
    edges = [9.0, -9.0, np.nextafter(9.0, np.inf), np.nextafter(-9.0, -np.inf),
             0.0, -0.0]
    xs = np.concatenate([np.linspace(-30.0, 30.0, 241), edges])
    np.random.default_rng(5).shuffle(xs)
    _assert_identical(airy.airy_table(xs), _table_by_quad(xs))


@pytest.mark.parametrize("xs,n", [([0.5, -2.0, 12.0], 3), (np.float64(-3.0), 1),
                                  (np.array(1.5), 1), ([], 0), (np.empty(0), 0)])
def test_airy_table_shapes(xs, n):
    tab = airy.airy_table(xs)
    assert tab.shape == (n, 4)
    _assert_identical(tab, _table_by_quad(np.atleast_1d(xs)))


@pytest.mark.parametrize("bad", [np.nan, 201.0, -250.0, np.inf])
def test_airy_table_range_guard(bad):
    with pytest.raises(AiryRangeError, match="outside guarded range"):
        airy.airy_table([0.5, bad, 12.0])
    with pytest.raises(AiryRangeError):
        airy.airy_table(bad)


def _scalar_scan(xi, theta_range, grid_cells):
    """The residual grid as scalar upsilon_linear_residual calls, and the
    roots Brent's method finds from it."""
    grid = np.linspace(*theta_range, grid_cells + 1)
    grid = grid[grid != 0.0]
    vals = np.array([airy.upsilon_linear_residual(xi, t) for t in grid])
    roots = [float(t) for t in grid[vals == 0.0]]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa * fb < 0.0:
            roots.append(brentq(lambda t: airy.upsilon_linear_residual(xi, t),
                                a, b, xtol=1e-12, rtol=1e-12))
    return grid, vals, sorted(roots, key=abs)


def _dualpath_window(seed):
    """A seeded window around one of the first four resonances of a random
    xi, drawn as the dual-path cross-checks draw theirs."""
    cases = ((0, (0.25, 0.35)), (3, (1.05, 1.15)), (1, (0.65, 0.75)),
             (2, (0.45, 0.55)))
    rng = np.random.default_rng([17, seed])
    k, (lo, hi) = cases[seed % len(cases)]
    xi = float(rng.uniform(lo, hi))
    depth = 50.0
    while len(roots := airy.find_linear_resonances(
            xi, (-depth, -0.05), grid_cells=400, root_tol=1e-6)) < k + 2:
        depth *= 2.0
    root, below = roots[k], roots[k + 1]
    above = roots[k - 1] if k else 0.0
    return xi, (root - rng.uniform(0.25, 0.45) * (root - below),
                root + rng.uniform(0.25, 0.45) * (above - root))


def _check_against_scalar_scan(xi, theta_range, cells):
    grid, vals, roots = _scalar_scan(xi, theta_range, cells)
    sigma = np.array([airy.sigma_parameter(xi, t) for t in grid])
    assert np.array_equal(np.cbrt(grid / (xi * xi)), sigma)
    _assert_identical(airy._residual_grid(xi, grid), vals)
    assert airy.find_linear_resonances(xi, theta_range, grid_cells=cells) == roots
    return roots


# criterion 5's inputs, a xi inside the square-well guard band, a range that
# crosses |theta| = X_MAX^3 xi^2 (8 at xi = 1e-3), and one that crosses 0
@pytest.mark.parametrize("xi,theta_range", [
    (0.3, (-80.0, -0.5)), (0.7, (-80.0, -0.5)), (1.0, (-80.0, -0.5)),
    (5e-7, (-30.0, -0.5)), (1e-3, (-20.0, -2.0)), (-0.4, (-50.0, 10.0))])
def test_linear_resonances_match_scalar_scan(xi, theta_range):
    assert _check_against_scalar_scan(xi, theta_range, 200)


@pytest.mark.parametrize("seed", range(10))
def test_dualpath_windows_match_scalar_scan(seed):
    assert len(_check_against_scalar_scan(*_dualpath_window(seed), 100)) == 1


def test_exact_grid_zeros_are_reported_once(monkeypatch):
    xi, theta_range, cells = 0.7, (-60.0, -0.5), 100
    grid = np.linspace(*theta_range, cells + 1)
    vals = airy._residual_grid(xi, grid)
    found = airy.find_linear_resonances(xi, theta_range, grid_cells=cells)
    # an interior point, and the last one, away from every sign change
    calm = [i for i in range(2, cells - 1)
            if np.all(np.sign(vals[i - 2:i + 3]) == np.sign(vals[i]))]
    assert np.all(np.sign(vals[-3:]) == np.sign(vals[-1]))
    zeroed = [calm[len(calm) // 2], cells]
    inner = airy._residual_grid

    def with_zeros(xi, thetas):
        # the grid call only; Brent's iterates read one coupling each
        out = inner(xi, thetas)
        if thetas.size == grid.size:
            out[zeroed] = 0.0
        return out

    monkeypatch.setattr(airy, "_residual_grid", with_zeros)
    roots = airy.find_linear_resonances(xi, theta_range, grid_cells=cells)
    assert roots == sorted(found + [float(grid[i]) for i in zeroed], key=abs)
    assert len(set(roots)) == len(roots)


# ---------------------------------------------------------------------------
# the closed forms where Bi leaves the float64 range: Bi(s) overflows near
# s = 104, inside the Airy range |s| <= 200


@pytest.mark.parametrize("xi,s", [
    (1e-3, 112.8), (1e-3, 99.0), (1e-3, 101.0), (1e-3, 104.2), (1e-3, 150.0),
    (1e-3, 199.0), (-1e-3, 104.0), (-1e-3, 120.0), (1e-2, 105.0),
    (0.1, 104.5), (0.5, 110.0), (1.5, 101.0), (1e-4, 130.0)])
def test_closed_forms_past_the_bi_overflow(xi, s):
    # psi_linear_closed(1e-3, 1.4366, 1.0) was NaN: Bi(112.8) overflows and
    # Ai(112.7) underflows; the Taylor transfer is the reference
    theta = s ** 3 * xi * xi
    got = airy.psi_linear_closed(xi, theta, 1.0)
    want = ode.taylor_endpoints(potential.linear(xi), np.array([theta]), 1e-12)
    for g, w in zip(got, want):
        assert abs(g / w[0] - 1.0) <= 1e-10
    res = airy.upsilon_linear_residual(xi, theta)
    assert res / got[1] == pytest.approx(1.0 / np.pi, rel=1e-12)
    grid = np.array([theta, 0.9 * theta, 1.1 * theta])
    _assert_identical(airy._residual_grid(xi, grid),
                      np.array([airy.upsilon_linear_residual(xi, t)
                                for t in grid]))


def test_reported_overflow_point():
    psi, dpsi = airy.psi_linear_closed(1e-3, 1.4366, 1.0)
    assert psi == pytest.approx(1.25709, rel=1e-5)
    assert np.isfinite(dpsi)


@pytest.mark.parametrize("xi,theta", [(0.5, 2e6), (1.5, 2.25 * 150.0 ** 3)])
def test_closed_form_overflow_names_sigma(xi, theta):
    # psi grows like e^(2/3 s^1.5) here, beyond the float64 range: raise,
    # never NaN or inf
    s = airy.sigma_parameter(xi, theta)
    for closed_form in (lambda: airy.psi_linear_closed(xi, theta, 1.0),
                        lambda: airy.upsilon_linear_residual(xi, theta),
                        lambda: airy._residual_grid(xi, np.array([theta]))):
        with pytest.raises(AiryRangeError, match=f"s = {s}"):
            closed_form()


def test_gate_overflow_raises():
    # at s = 121.5 one product of the residual underflows and the other
    # overflows; |res| = inf passed the gate residual_tol*inf, so
    # alpha_linear returned -0.0429 and the weighted integral -inf at no
    # resonance
    xi, theta = 0.7, 878792.0
    s = airy.sigma_parameter(xi, theta)
    for closed_form in (lambda: airy.alpha_linear(xi, theta, 1.0),
                        lambda: airy.linear_weighted_square_integral(xi, theta),
                        lambda: airy.upsilon_linear_residual(xi, theta),
                        lambda: airy.psi_linear_closed(xi, theta, 1.0)):
        with pytest.raises(AiryRangeError, match=f"s = {s}"):
            closed_form()


def test_square_route_overflow_raises():
    # sinh and cosh of sqrt(theta) = 1414 leave the float64 range: the
    # square-well route returned inf
    xi, theta = 1e-4, 2e6
    for closed_form in (lambda: airy.upsilon_linear_residual(xi, theta),
                        lambda: airy.psi_linear_closed(xi, theta, 1.0),
                        lambda: airy.alpha_linear(xi, theta, 1.0),
                        lambda: airy._residual_grid(
                            xi, np.array([-5.0, theta]))):
        with pytest.raises(AiryRangeError, match=f"theta = {theta}"):
            closed_form()


def test_alpha_overflow_at_a_deep_root_raises():
    # s = -99.86 sits on a zero of Ai and w = 99.86 makes Bi'(w) about 1e288,
    # so (Bi'(w)/Bi(s))^2, and alpha with it, leaves the float64 range
    xi, theta = 2.0, -3982806.700875331
    s = airy.sigma_parameter(xi, theta)
    with pytest.raises(AiryRangeError, match=f"s = {s}"):
        airy.alpha_linear(xi, theta, 1.0)
    # 1 + s(1 - xi)^2 / ratio^2 stays finite: the ratio's square is inf
    assert airy.linear_weighted_square_integral(xi, theta) == pytest.approx(
        -1.0 / (3.0 * xi * theta), rel=1e-12)


@pytest.mark.parametrize("window", [(-np.inf, -0.5), (-30.0, np.inf),
                                    (np.nan, -0.5)])
def test_theta_range_must_be_finite(window):
    # an infinite end warned inside np.linspace, then raised AiryRangeError
    # naming nan
    with pytest.raises(ValueError, match="theta_range must be finite"):
        airy.find_linear_resonances(0.7, window)


# ---------------------------------------------------------------------------
# golden values: float.hex of the closed forms on the square-well, ungauged
# and gauged routes, so that a change of evaluation route moves no bit (psi
# at x = 1 and x = 0.6, then the residual, then at a resonance alpha
# (omega = 1) and the weighted square integral)

_GOLDEN_RESONANT = [
    ((5e-07, -2.46740110027234), (
        '0x1.45f306dc9c882p-1', '-0x1.72cece675d1fcp-53',
        '0x1.07b2d3a5a5bd3p-1', '0x1.2cf2304755a5dp-1',
        '-0x1.72cece675d1fcp-53', '0x1.0000000000000p-1',
        '0x1.9f02f6222c71fp-3')),
    ((0.001, -22.206609902451046), (
        '-0x1.b2995e7b7b605p-3', '-0x1.34f272993d141p-50',
        '0x1.0c98d5e8e943ap-4', '-0x1.e6f0e134454fep-1',
        '-0x1.34f272993d141p-50', '0x1.0000000000000p-1',
        '0x1.70e6301e60658p-6')),
    ((0.7, -4.807683265267963), (
        '0x1.1b8c7cac2e705p-1', '0x1.921fb54442d18p-55',
        '0x1.e39fd2bd9afa3p-2', '0x1.c5c505021eef4p-2',
        '0x1.0000000000000p-56', '0x1.1ecf7aa79a0a0p-2',
        '0x1.5fdc4f59d96f4p-4')),
    ((0.3, -26.421488844359878), (
        '-0x1.b303dc515f622p-3', '0x1.07e4cef4cbd98p-49',
        '0x1.4a4aeefa662f9p-5', '-0x1.dbdb8a487a5e5p-1',
        '0x1.5000000000000p-51', '0x1.8cef60121cfccp-2',
        '0x1.1e8abb2483349p-6')),
    ((1.0, -55.97702968126059), (
        '-0x1.a0b19d334b0f3p-3', '-0x1.179a0c097675bp-47',
        '-0x1.8853a3a7b256dp-4', '-0x1.6b1bdad61eac2p-1',
        '-0x1.6400000000000p-49', '0x1.26983282604dfp-3',
        '0x1.86415c4d99c47p-8')),
    ((2.0, 5.5156183004488035), (
        '0x1.f9d2724dc94dep-1', '0x1.f6a7a2955385ep-52',
        '0x1.5d549f9469b5cp-1', '0x1.3487afd023828p+0',
        '0x1.4000000000000p-53', '-0x1.94bd36f4bbbc6p-3',
        '-0x1.8b07d84d58381p-3')),
    ((2.0, -672.9911485406066), (
        '0x1.cb7efbe53aae0p-18', '0x1.85cfe1935cd13p-34',
        '0x1.99bd86ec6eda4p-7', '-0x1.57c146daed975p-3',
        '0x1.f052f82600000p-36', '0x1.426a68ea4dc35p+22',
        '0x1.03ae339cc747fp-12')),
    ((0.5214000439012983, -84.97751428699016), (
        '0x1.0a4083c18c0d8p-3', '-0x1.67e1e5f2d88c4p-42',
        '-0x1.c77af9b8bc447p-4', '0x1.3743c06eeb790p-2',
        '-0x1.ca376e0000000p-44', '0x1.31d9f16863aebp-2',
        '0x1.4ad6b22db217bp-8')),
    ((0.29857110347750027, -3.120140117221471), (
        '0x1.39aff1ddda00ap-1', '0x1.0b1b843618172p-43',
        '0x1.0173e11a9907fp-1', '0x1.177e4a4249ee0p-1',
        '0x1.5417812000000p-45', '0x1.9da69be5f3b84p-2',
        '0x1.368a48abcdc68p-3')),
]
_GOLDEN_OFF_RESONANCE = [
    ((0.0, -5.0), (
        '0x1.684a08125c6d1p-2', '-0x1.3c0b30c22ec94p-1',
        '0x1.bdf9afba0cee4p-2', '0x1.d136c192c23a9p-3',
        '-0x1.3c0b30c22ec94p-1')),
    ((0.5, 6.0), (
        '0x1.efd690700b48cp+0', '0x1.eb926a3422ebfp+1', '0x1.9a349ee756e8cp-1',
        '0x1.004f46cf79280p+1', '0x1.38f1c4fe065afp+0')),
    ((0.001, 1.4366), (
        '0x1.41d0ec8425cfcp+0', '0x1.ced46530f15e6p+0', '0x1.4e5d409beba47p-1',
        '0x1.451296775bc70p+0', '0x1.26a5823d81e3dp-1')),
    ((0.1, 11411.661250000001), (
        '0x1.68f2a0ded4850p+142', '0x1.1ddb6c8365decp+149',
        '0x1.46b2eb9dd09eap+83', '0x1.086a7630a2c8bp+90',
        '0x1.6bf6efb44cf3ap+147')),
    ((2.0, 4115554.8148760595), (
        '-0x1.852302e288932p+964', '0x1.68a5753c3dbddp+941',
        '-0x1.22f025139d919p+965', '0x1.3c71ff867f7cfp+968',
        '0x1.cb306c8e6e057p+939')),
    ((-0.001, 1.728), (
        '0x1.506903d966850p+0', '0x1.ff1da25f3ed2fp+0', '0x1.5410ee662f947p-1',
        '0x1.53e022a55ce26p+0', '0x1.4562eafb997b1p-1')),
]


@pytest.mark.parametrize("point, want", _GOLDEN_RESONANT)
def test_golden_values_at_resonances(point, want):
    xi, theta = point
    got = (*airy.psi_linear_closed(xi, theta, 1.0),
           *airy.psi_linear_closed(xi, theta, 0.6),
           airy.upsilon_linear_residual(xi, theta),
           airy.alpha_linear(xi, theta, 1.0),
           airy.linear_weighted_square_integral(xi, theta))
    assert [float(v).hex() for v in got] == list(want)


@pytest.mark.parametrize("point, want", _GOLDEN_OFF_RESONANCE)
def test_golden_values_off_resonance(point, want):
    xi, theta = point
    got = (*airy.psi_linear_closed(xi, theta, 1.0),
           *airy.psi_linear_closed(xi, theta, 0.6),
           airy.upsilon_linear_residual(xi, theta))
    assert [float(v).hex() for v in got] == list(want)


# ---------------------------------------------------------------------------
# the series region: Taylor steps from the anchors a = j/8, |j| <= 72


def test_anchor_steps_match_the_decimal_series():
    xs = np.linspace(-9.0, 9.0, 8001)
    ref = np.column_stack(airy._maclaurin(xs))
    got = airy.airy_table(xs)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    pos = xs > 0.0          # Ai and Ai' decay there: relative accuracy
    assert np.all(np.abs(got[pos, :2] - ref[pos, :2])
                  <= 1e-15 * np.abs(ref[pos, :2]))


def test_anchors_are_correctly_rounded():
    # every anchor value is the float nearest the 50-digit one; the
    # double-double sum missed by 1 ulp in Ai and Ai' at a = 8.875
    mpmath = pytest.importorskip("mpmath")
    got = airy._anchors()[-1]               # the degree-0 row of each step
    with mpmath.workdps(50):
        want = [[float(f(a / 8.0, derivative=d))
                 for f in (mpmath.airyai, mpmath.airybi) for d in (0, 1)]
                for a in range(-72, 73)]
    assert got.tolist() == want


def test_airy_table_matches_airy_quad_at_anchors_and_ties():
    anchors = np.arange(-72, 73) / 8.0
    ties = (np.arange(-72, 72) + 0.5) / 8.0
    xs = np.concatenate([anchors, ties, [9.0, -9.0, 0.0, -0.0]])
    _assert_identical(airy.airy_table(xs), _table_by_quad(xs))


def test_anchor_table_is_built_once(count_calls):
    airy._anchors.cache_clear()
    calls = count_calls(airy, "_maclaurin")
    for x in np.linspace(-9.0, 9.0, 7):
        airy.airy_quad(x)
        airy.airy_table(np.linspace(-x, 0.5 * x, 5))
    airy.find_linear_resonances(0.7, (-30.0, -0.5), grid_cells=50)
    assert len(calls) == 1
    assert np.shape(calls[0][0]) == (145,)


def test_anchor_table_is_not_built_at_import():
    code = ("import deltalim, deltalim.airy as a; "
            "print(a._anchors.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=_SRC))
    assert out.stdout.strip() == "0"
