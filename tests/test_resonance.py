import gc
import weakref

import numpy as np
import pytest

from deltalim import airy, ode, potential, quadrature, radial3d, resonance
from deltalim.errors import BracketScanTooCoarse, NonConvergence
from deltalim.resonance import LimitDescriptor, ScalingLaw


def _dG_dtheta_variational(V, theta, tol=1e-12):
    """Independent route to ResonanceHit.dG_dtheta: solve the variational
    system for g = d(psi)/d(theta) alongside psi and return g'(M)."""

    def rhs(x, y):
        v = V(x)
        return [y[1], theta * v * y[0], y[3], theta * v * y[2] + v * y[0]]

    return float(ode.march(V, rhs, np.array([0.0, 1.0, 0.0, 0.0]), tol)[3])


def _profile_integrals(V, traj):
    """Independent route to ResonanceHit.integral_I and dpsi_sq_integral:
    int_0^M V psi^2 and int_0^M (psi')^2 by 20-point Gauss panels no wider
    than 0.5 on the dense interpolant.  Good only while psi oscillates slowly
    on that scale, which holds for |theta| up to a few hundred."""
    nodes, weights = quadrature.gauss_nodes(
        quadrature.panel_edges(0.0, V.support_end, V.breakpoints, 0.5), 20)
    val, der = traj(nodes)
    return (float(np.sum(weights * V(nodes) * np.real(val) ** 2)),
            float(np.sum(weights * np.real(der) ** 2)))


@pytest.fixture(scope="module")
def square_hits():
    return resonance.find_resonances(potential.square(), (-120.0, -0.1),
                                     max_hits=3)


def test_square_well_resonances(square_hits):
    exact = [-(np.pi * (k + 0.5)) ** 2 for k in range(3)]
    assert len(square_hits) == 3
    for h, e in zip(square_hits, exact):
        assert abs(h.theta - e) <= 1e-9 * abs(e)
        assert h.residual <= 1e-10


def test_hits_sorted_by_magnitude(square_hits):
    mags = [abs(h.theta) for h in square_hits]
    assert mags == sorted(mags)


def test_robin_alpha_square_well(square_hits):
    # alpha = omega/2 for the square well, independent of the resonance
    V = potential.square()
    for h in square_hits:
        for omega in (1.0, 3.0, -2.0):
            assert resonance.robin_alpha(V, h, omega) == pytest.approx(
                omega / 2, rel=1e-9)


def test_dG_dtheta_square_well_first(square_hits):
    # psi = sin(pi x/2)/(pi/2): I = 2/pi^2, psi(M) = 2/pi, so dG = 1/pi
    assert square_hits[0].dG_dtheta == pytest.approx(1 / np.pi, rel=1e-9)


def test_dG_dtheta_against_finite_difference(square_hits):
    V = potential.square()
    h = square_hits[1]
    d = 1e-6 * (1 + abs(h.theta))
    hi = resonance.shoot_residual(V, h.theta + d, 1e-12)[1]
    lo = resonance.shoot_residual(V, h.theta - d, 1e-12)[1]
    assert h.dG_dtheta == pytest.approx((hi - lo) / (2 * d), abs=1e-7)


def test_dG_dtheta_variational_route(square_hits):
    V = potential.square()
    for h in square_hits:
        var = _dG_dtheta_variational(V, h.theta)
        assert h.dG_dtheta == pytest.approx(var, rel=1e-9)


def test_gnonzero_identity(square_hits):
    # at a resonance, theta * int V psi^2 = -int (psi')^2
    for h in square_hits:
        assert abs(h.theta * h.integral_I + h.dpsi_sq_integral) \
            <= 1e-9 * h.dpsi_sq_integral


def test_piecewise_potential_certification():
    rng = np.random.default_rng(0)
    V = potential.piecewise((0.0, 0.4, 1.0),
                            [tuple(rng.uniform(-2, 2, 4)) for _ in range(2)])
    hits = resonance.find_resonances(V, (-60.0, -0.5), grid_cells=300)
    assert hits
    for h in hits:
        assert h.residual <= 1e-10
        var = _dG_dtheta_variational(V, h.theta)
        assert h.dG_dtheta == pytest.approx(var, rel=1e-8)


def test_membership_positive_and_negative():
    V = potential.square()
    theta0 = -np.pi ** 2 / 4
    hit = resonance.resonance_membership(V, theta0 + 1e-8, 1e-6)
    assert hit is not None
    assert hit.theta == pytest.approx(theta0, abs=1e-8)
    assert resonance.resonance_membership(V, -3.0, 1e-6) is None


def test_classify_scaling_dichotomy():
    V = potential.square()
    theta0 = -np.pi ** 2 / 4
    robin = resonance.classify_scaling(V, ScalingLaw(theta0, 2.0))
    assert robin == LimitDescriptor(kind="robin", alpha=pytest.approx(1.0, rel=1e-8))
    off = resonance.classify_scaling(V, ScalingLaw(-1.0, 2.0))
    assert off.kind == "dirichlet" and off.alpha is None
    rem = resonance.classify_scaling(
        V, ScalingLaw(theta0, 2.0, remainder_exponent=1.5))
    assert rem.kind == "dirichlet"


def test_remainder_law_is_dirichlet_without_a_shot(count_calls):
    # a sub-critical remainder selects Dirichlet at any theta, resonant or not
    calls = count_calls(resonance, "resonance_membership")
    for theta in (-np.pi ** 2 / 4, -1.0):
        law = ScalingLaw(theta, 2.0, remainder_exponent=1.5)
        assert resonance.classify_scaling(potential.square(), law) \
            == LimitDescriptor(kind="dirichlet")
    assert calls == []


def test_scaling_law_validation():
    with pytest.raises(ValueError):
        ScalingLaw(-1.0, 1.0, remainder_exponent=2.5)
    law = ScalingLaw(-4.0, 3.0)
    assert law.coupling(0.1) == pytest.approx(-4.0 / 0.01 + 30.0)
    rem = ScalingLaw(-4.0, 3.0, remainder_exponent=1.5)
    assert rem.coupling(0.01) == pytest.approx(-40000.0 + 3.0 * 0.01 ** -1.5)


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        resonance.find_resonances(potential.square(), (-1.0, -2.0))
    # an infinite end warned inside np.linspace, then raised "couplings must
    # be finite"
    for window in ((-np.inf, -0.5), (-30.0, np.inf), (np.nan, -0.5)):
        with pytest.raises(ValueError, match="theta_range must be finite"):
            resonance.find_resonances(potential.square(), window)


@pytest.mark.parametrize("option, value", [
    ("grid_cells", 0), ("grid_cells", -3), ("max_hits", -2),
    ("root_tol", -1.0), ("root_tol", 0.0), ("root_tol", float("nan")),
    ("root_tol", float("inf"))])
def test_scan_options_out_of_range_are_rejected(option, value):
    # no grid cell, or a negative number of hits, would return [] unasked;
    # a root_tol outside (0, inf) would fail the gate at a correct root, or
    # pass any shot
    with pytest.raises(ValueError, match=option):
        resonance.find_resonances(potential.square(), (-30.0, -0.5),
                                  **{option: value})


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_membership_tol_out_of_range_is_rejected(tol):
    # -pi^2/4 is resonant: a tol outside (0, inf) must not answer None
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        resonance.resonance_membership(potential.square(), -np.pi ** 2 / 4,
                                       tol=tol)


def test_no_hits_asked_means_none_returned():
    assert resonance.find_resonances(potential.square(), (-30.0, -0.5),
                                     max_hits=0) == []


def test_no_resonances_for_zero_potential():
    assert resonance.find_resonances(potential.zero(), (-50.0, -0.5)) == []


def test_huge_residuals_scan_without_overflow():
    # psi'(M) passes 1e154 on this window, so the product of two grid values
    # would overflow; the square well has no resonance at theta > 0
    assert resonance.find_resonances(potential.square(), (1.25e5, 1.3e5)) == []


def test_sign_changes_are_read_from_signs():
    # a product overflows at 1e200 and underflows to -0.0 at 1e-200; signs
    # do neither, and a zero value starts no sign-change cell
    cells = []
    resonance.refine_nearest_first(
        np.arange(5.0), np.array([1e200, -1e200, -0.0, 1e-200, -1e-200]),
        lambda i: cells.append(i) or [], [], None)
    assert cells == [0, 3]


def test_shoot_residual_matches_trajectory():
    V = potential.linear(0.5)
    val, der = resonance.shoot_residual(V, -9.0, 1e-12)
    end = ode.solve_psi(V, -9.0, tol=1e-12).endpoint
    assert val == pytest.approx(np.real(end.value))
    assert der == pytest.approx(np.real(end.derivative))


def test_scan_failure_names_its_segment():
    # psi grows like exp(sqrt(theta)) here, so the stacked scan cannot
    # finish; the transfer raises on the overflow, and warns of nothing
    with pytest.raises(NonConvergence, match=r"\[0\.0, 1\.0\]"):
        resonance.find_resonances(potential.square(), (1e5, 1e6))


def test_large_root_passes_theta_scaled_gate():
    hits = resonance.find_resonances(potential.square(), (-2200.0, -1960.0))
    exact = -(14.5 * np.pi) ** 2
    assert len(hits) == 1
    assert abs(hits[0].theta - exact) <= 1e-9 * abs(exact)


def test_residual_gate_scales_with_theta(monkeypatch, count_calls):
    # hand the gate a theta off the root by a multiple of the stopping width
    V = potential.square()
    exact, root_tol = -(14.5 * np.pi) ** 2, 1e-10
    width = root_tol * (1.0 + abs(exact))

    def certify_at(offset):
        monkeypatch.setattr(resonance, "brentq",
                            lambda *args, **kwargs: exact + offset * width)
        return resonance._certify(V, exact - 1.0, exact + 1.0, root_tol, 1e-12)

    [hit] = certify_at(0.2)
    assert hit.residual > root_tol          # an absolute gate rejects this
    assert hit.residual <= root_tol * abs(hit.dG_dtheta) * (1.0 + abs(exact))
    transfers = count_calls(resonance, "taylor_endpoints")
    with pytest.raises(BracketScanTooCoarse, match=r"exceeds .* = \d"):
        certify_at(2.0)
    # each failed gate halves the bracket for one more round, up to the cap
    assert len(transfers) == resonance.CERTIFY_ROUNDS


def test_certify_shoot_budget(count_calls):
    # Brent's method refines the Chebyshev interpolant of one stacked march,
    # so the only scalar shot is the one the gate judges, and the hit keeps it
    shoots = count_calls(resonance, "_shoot_profile")
    hits = resonance.find_resonances(potential.square(), (-150.0, -100.0),
                                     root_tol=1e-8)
    exact = -(3.5 * np.pi) ** 2
    assert [h.theta for h in hits] == [pytest.approx(exact, rel=1e-9)]
    assert [args[1] for args in shoots] == [hits[0].theta]


def test_scan_integrates_no_coupling_twice(count_calls):
    shoots = count_calls(resonance, "_shoot_profile")
    hits = resonance.find_resonances(potential.square(), (-2000.0, -30.0))
    assert len(hits) == 12
    thetas = [args[1] for args in shoots]
    assert len(set(thetas)) == len(thetas)


def test_certify_keeps_only_the_hits_trajectories(monkeypatch):
    # with the cyclic collector off, a shot left in a reference cycle would
    # outlive the call: no DOP853 result of a gate shot stays alive, every
    # profile trajectory is a hit's, and only the hits keep theirs
    views, results = [], []
    make, solve = resonance._psi_trajectory, ode.solve_ivp

    def tracked_view(*args):
        view = make(*args)
        views.append(weakref.ref(view))
        return view

    def tracked_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        results.append(weakref.ref(out))
        return out

    monkeypatch.setattr(resonance, "_psi_trajectory", tracked_view)
    monkeypatch.setattr(ode, "solve_ivp", tracked_solve)
    gc.collect()
    gc.disable()
    try:
        hits = resonance.find_resonances(potential.square(), (-500.0, -0.5))
        alive = {id(r()) for r in views if r() is not None}
        leaked = [r for r in results if r() is not None]
    finally:
        gc.enable()
    assert len(hits) == 7 and len(views) == len(hits)
    assert alive == {id(h.trajectory) for h in hits}
    assert len(results) >= len(hits) and not leaked


@pytest.mark.parametrize("xi", [0.3, 0.7, 1.1])
def test_hit_profiles_match_the_airy_closed_form(xi):
    # a hit's profile is the one-coupling Taylor march of psi, near machine
    # precision (the DOP853 interpolant it replaced was 2.1e-12 off here)
    V = potential.linear(xi)
    hits = resonance.find_resonances(V, (-400.0, -1.0))
    assert len(hits) == len(airy.find_linear_resonances(xi, (-400.0, -1.0)))
    xs = np.linspace(0.0, 1.0, 101)
    for h in hits:
        want = np.array([airy.psi_linear_closed(xi, h.theta, x)[0] for x in xs])
        got = np.real(h.trajectory(xs)[0])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_no_dense_dop853_solve(monkeypatch):
    # DOP853 shoots endpoints only: every dense read is a Taylor series
    dense, solve = [], ode.solve_ivp

    def recording(*args, **kwargs):
        dense.append(kwargs.get("dense_output", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(ode, "solve_ivp", recording)
    theta0 = -np.pi ** 2 / 4
    hits = resonance.find_resonances(potential.linear(0.7), (-200.0, -1.0))
    hits[0].trajectory(np.linspace(0.0, 1.0, 9))
    assert resonance.resonance_membership(potential.square(), theta0 + 1e-8)
    assert radial3d.classify_3d(potential.square(), theta0, 1.0).profile_Psi
    ode.solve_psi(potential.square(), theta0, 1.0, 0.5j)(0.5)
    assert len(dense) >= len(hits) + 3
    assert not any(dense)


def test_profile_marches_on_first_read_only(count_calls):
    marches = count_calls(ode, "_taylor_basis")
    [hit] = resonance.find_resonances(potential.square(), (-5.0, -1.0))
    end = hit.trajectory.endpoint
    assert not marches
    assert (end.x, end.value, abs(end.derivative)) == (1.0, hit.psi_at_M,
                                                       hit.residual)
    val = hit.trajectory(1.0)[0]
    # one coupling, zero energy, psi alone: (value, slope) = (0, 1) at 0
    assert len(marches) == 1
    _, theta, gz, y0, _ = marches[0]
    assert (theta.tolist(), gz, y0.tolist()) == ([hit.theta], 0.0,
                                                 [[[0.0]], [[1.0]]])
    assert val == pytest.approx(hit.psi_at_M, rel=1e-12)
    assert hit.trajectory(np.array([0.5, 1.0]))[0][1] == val
    assert len(marches) == 1


def test_shoot_residual_builds_no_taylor_series(count_calls):
    # the endpoint is one DOP853 shot; the dense series waits for a read
    marches = count_calls(ode, "_taylor_march")
    shots = count_calls(ode, "solve_ivp")
    resonance.shoot_residual(potential.linear(0.5), -9.0, 1e-12)
    assert len(shots) == 1 and not marches


def test_max_hits_certifies_only_what_it_returns(count_calls):
    certified = count_calls(resonance, "_certify")
    hits = resonance.find_resonances(potential.square(), (-2e4, -30.0),
                                     max_hits=3)
    exact = [-(np.pi * (k + 0.5)) ** 2 for k in (2, 3, 4)]
    assert [h.theta for h in hits] == [pytest.approx(e, rel=1e-9)
                                       for e in exact]
    assert len(certified) == 3


def test_max_hits_straddling_zero_keeps_the_nearest(count_calls):
    # V = -1 then +1 has resonances of both signs.  The cell (-3, 25) holds
    # 0 and the root near 22.03, so it comes first; (-31, -3) may still hold
    # a nearer root (it does: -3.516) and must be certified too.
    V = potential.piecewise((0.0, 0.5, 1.0), [(-1.0, 0, 0, 0), (1.0, 0, 0, 0)])
    every = resonance.find_resonances(V, (-31.0, 25.0), grid_cells=2)
    certified = count_calls(resonance, "_certify")
    one = resonance.find_resonances(V, (-31.0, 25.0), grid_cells=2, max_hits=1)
    assert len(every) == 2 and every[0].theta < 0.0 < every[1].theta
    assert [h.theta for h in one] == [every[0].theta]
    assert len(certified) == 2


def test_membership_shoots_no_coupling_twice(count_calls):
    # the bracket ends shot for the sign test are handed to Brent's method,
    # and the hit keeps the trajectory of the coupling Brent returns
    shoots = count_calls(resonance, "_shoot_profile")
    for theta in (-np.pi ** 2 / 4 + 1e-8, -(1.5 * np.pi) ** 2 * (1 + 3e-7)):
        shoots.clear()
        hit = resonance.resonance_membership(potential.square(), theta, 1e-6)
        assert hit is not None
        thetas = [args[1] for args in shoots]
        assert len(set(thetas)) == len(thetas)


def _count_transfers_and_marches(count_calls):
    transfers = count_calls(resonance, "taylor_endpoints")
    count_calls(ode, "taylor_endpoints", transfers)
    marches = count_calls(resonance, "march")
    count_calls(ode, "march", marches)
    return transfers, marches


def test_membership_marches_its_ends_once(count_calls):
    # the six ends of the three nested brackets and the Chebyshev points of
    # the innermost one are one stacked Taylor transfer, and a coupling off
    # every resonance needs no scalar shot
    transfers, marches = _count_transfers_and_marches(count_calls)
    shoots = count_calls(resonance, "_shoot_profile")
    assert resonance.resonance_membership(potential.square(), -3.0, 1e-6) is None
    assert [np.size(args[1]) for args in transfers] == [6 + resonance.CHEB_NODES]
    assert not marches and not shoots


def test_resonant_membership_costs_one_march_and_one_shot(count_calls):
    transfers, marches = _count_transfers_and_marches(count_calls)
    shoots = count_calls(resonance, "_shoot_profile")
    theta0 = -np.pi ** 2 / 4
    hit = resonance.resonance_membership(potential.square(), theta0 + 1e-8, 1e-6)
    assert hit.theta == pytest.approx(theta0, abs=1e-8)
    # the transfer of the stacked couplings, then the one dense shot at the
    # root, which is the only DOP853 march
    assert [np.size(args[1]) for args in transfers] == [6 + resonance.CHEB_NODES]
    assert len(marches) == 1 and [args[1] for args in shoots] == [hit.theta]


def test_odd_roots_in_one_cell_are_all_certified():
    # one scan cell over -pi^2/4, -9pi^2/4 and -25pi^2/4: the Chebyshev
    # points separate all three, and each gets its own certified hit
    hits = resonance.find_resonances(potential.square(), (-70.0, -0.5),
                                     grid_cells=1)
    exact = [-(np.pi * (k + 0.5)) ** 2 for k in range(3)]
    assert [h.theta for h in hits] == [pytest.approx(e, rel=1e-10) for e in exact]
    one = resonance.find_resonances(potential.square(), (-70.0, -0.5),
                                    grid_cells=1, max_hits=1)
    assert [h.theta for h in one] == [hits[0].theta]


def _cell(lo, hi, cells, theta):
    """The cell of find_resonances' grid on (lo, hi) that holds theta."""
    grid = np.linspace(lo, hi, cells + 1)
    i = np.searchsorted(grid, theta) - 1
    return float(grid[i]), float(grid[i + 1])


_TWO_PIECE = potential.piecewise((0.0, 0.4, 1.0),
                                 [(1.0, 0.5, 0.0, 0.0), (2.0, -1.0, 0.5, 0.0)])


@pytest.mark.parametrize("V, cell", [
    (potential.square(), _cell(-150.0, -100.0, 400, -(3.5 * np.pi) ** 2)),
    (potential.linear(0.7), (-193.0, -192.0)),
    (_TWO_PIECE, _cell(-60.0, -0.5, 300, -20.0)),
    (potential.square(), (-70.0, -0.5)),
    (potential.square(), _cell(-2e4, -0.1, 400, -19544.28)),
])
def test_stacked_node_values_match_scalar_shots(V, cell):
    # the premise of certification: one stacked transfer of a cell's
    # Chebyshev points gives each psi'(M) as a scalar shot does, so their
    # interpolant can be trusted to locate the root.  On the deep and narrow
    # square and linear cells a scalar DOP853 shot at 1e-12 is itself off
    # by up to 1e-11 of the largest slope, so there the closed forms are the
    # oracle; the two-piece cell and the wide shallow one keep the shot.
    nodes = resonance._nodes(*cell)
    stacked = ode.taylor_endpoints(V, nodes, 1e-12)[1]
    if V.kind == "square" and cell != (-70.0, -0.5):
        oracle = np.cos(np.sqrt(-nodes))
    elif V.kind == "linear":
        oracle = np.array([airy.psi_linear_closed(V.xi, t, 1.0)[1] for t in nodes])
    else:
        oracle = np.array([resonance.shoot_residual(V, t, 1e-12)[1] for t in nodes])
    assert np.max(np.abs(stacked - oracle)) <= 1e-11 * np.max(np.abs(oracle))


@pytest.mark.parametrize("V", [potential.square(), potential.linear(0.7),
                               _TWO_PIECE])
def test_marched_integrals_match_panel_quadrature(V):
    hits = resonance.find_resonances(V, (-200.0, -0.5))
    assert hits
    for h in hits:
        integral, slope_sq = _profile_integrals(V, h.trajectory)
        assert h.integral_I == pytest.approx(integral, rel=1e-10)
        assert h.dpsi_sq_integral == pytest.approx(slope_sq, rel=1e-10)


def test_square_well_roots_accurate_over_a_wide_range():
    # default root_tol on (-2e4, -0.1): the first cell holds two roots and
    # shows no sign change (the open coarse-cell defect); every root found
    # lies within 1e-10 relative of -(pi(k + 1/2))^2
    hits = resonance.find_resonances(potential.square(), (-2e4, -0.1))
    exact = np.array([-(np.pi * (k + 0.5)) ** 2 for k in range(45)])
    assert len(hits) == 43
    for h in hits:
        e = exact[np.argmin(np.abs(exact - h.theta))]
        assert abs(h.theta - e) <= 1e-10 * abs(e)


def test_linear_roots_match_the_airy_closed_form():
    V = potential.linear(0.7)
    hits = resonance.find_resonances(V, (-2e4, -30.0))
    roots = airy.find_linear_resonances(0.7, (-2e4, -30.0))
    assert len(hits) == len(roots) == 35
    for h, r in zip(hits, sorted(roots, key=abs)):
        assert abs(h.theta - r) <= 1e-10 * abs(r)
        # the profile integrals come from the march, so they stay right where
        # psi oscillates far faster than any fixed panel rule resolves
        assert resonance.robin_alpha(V, h, 1.0) == pytest.approx(
            airy.alpha_linear(0.7, h.theta, 1.0), rel=1e-8)
        assert abs(h.theta * h.integral_I + h.dpsi_sq_integral) \
            <= 1e-10 * h.dpsi_sq_integral
