import dataclasses
import warnings

import numpy as np
import pytest

from deltalim import airy, ode, potential, quadrature, resolvent, resonance
from deltalim.errors import QuadratureFailure, SingularWronskian
from deltalim.resonance import ScalingLaw

THETA0 = -np.pi ** 2 / 4


def _fd_defect(kern, x, y, coeff, h=1e-4):
    """(-d^2/dx^2 + coeff(x) - z) G(x, y) by central differences."""
    g = kern(np.array([x - h, x, x + h]), y)
    second = (g[0] - 2 * g[1] + g[2]) / h ** 2
    return -second + (coeff(x) - kern.z) * g[1]


def test_decay_rate_branch():
    k = resolvent.decay_rate(2j)
    assert k.real > 0
    assert k ** 2 == pytest.approx(-2j)
    assert resolvent.decay_rate(-4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        resolvent.decay_rate(1.0)


def test_exterior_coefficients_free_case():
    # V = 0: u = sinh(kappa x)/kappa, so a = 1/(2 kappa)
    z = 1j
    kappa = resolvent.decay_rate(z)
    kern = resolvent.kernel_scaled(potential.zero(), 5.0, 0.3, z)
    assert kern.a == pytest.approx(1 / (2 * kappa), rel=1e-10)
    assert kern.b == pytest.approx(-1 / (2 * kappa), rel=1e-10)
    # lam = 0 removes the potential
    a2 = resolvent.kernel_scaled(potential.square(), 0.0, 0.5, 2j).a
    assert a2 == pytest.approx(1 / (2 * resolvent.decay_rate(2j)), rel=1e-10)


def test_kernel_marches_once(count_calls):
    # the basis is one Taylor transfer of one coupling; DOP853 is not called
    bases = count_calls(ode, "_taylor_basis")
    marches = count_calls(ode, "march")
    resolvent.kernel_scaled(potential.square(), -30.0, 0.2, 1j)
    assert [np.size(args[1]) for args in bases] == [1]
    assert not marches


def test_phi2_matches_decaying_exponential():
    # c*v + d*u meets e^{-kappa*x} with value and slope at x_m
    kern = resolvent.kernel_scaled(potential.linear(0.6), -30.0, 0.1,
                                   -1 + 0.5j)
    k, x_m = kern.kappa, kern.x_m
    (uv, ud), (vv, vd) = kern.u(x_m), kern.v(x_m)
    assert abs(kern.c * vv + kern.d * uv - np.exp(-k * x_m)) < 1e-12
    assert abs(kern.c * vd + kern.d * ud + k * np.exp(-k * x_m)) < 1e-12


def test_wronskian_value():
    kern = resolvent.kernel_scaled(potential.square(), -30.0, 0.2, 1j)
    assert kern.K == pytest.approx(-2 * kern.a * kern.kappa)


def test_free_kernel_equals_dirichlet_reference():
    z = 2j
    kern = resolvent.kernel_scaled(potential.zero(), 0.0, 0.3, z)
    ref = resolvent.kernel_reference("dirichlet", z)
    xs = np.array([0.05, 0.2, 0.31, 1.0, 4.0])
    ys = np.array([0.25, 0.1, 2.0, 1.0001, 0.4])
    assert np.max(np.abs(kern(xs, ys) - ref(xs, ys))) < 1e-10


def test_dirichlet_closed_form_value():
    z = 1j
    kappa = resolvent.decay_rate(z)
    ref = resolvent.kernel_reference("dirichlet", z)
    assert ref(1.0, 1.0) == pytest.approx((1 - np.exp(-2 * kappa)) / (2 * kappa))


@pytest.fixture(scope="module")
def kernels():
    V = potential.square()
    eps = 0.05
    lam = ScalingLaw(THETA0, 2.0).coupling(eps)
    return {
        "scaled": resolvent.kernel_scaled(V, lam, eps, 1j),
        "robin": resolvent.kernel_reference("robin", 1j, alpha=1.0),
        "dirichlet": resolvent.kernel_reference("dirichlet", 1j),
    }


def test_defect_equation_all_kinds(kernels):
    rng = np.random.default_rng(7)
    for name, kern in kernels.items():
        if name == "scaled":
            coeff = lambda x, k=kern: k.lam * potential.square()(x / k.eps)
        else:
            coeff = lambda x: 0.0
        for _ in range(20):
            x = rng.uniform(0.1, 3.0)
            y = x + rng.choice([-1, 1]) * rng.uniform(0.05, 1.0)
            if y < 0.01 or abs(x - kern.x_m) < 0.01:
                continue
            res = _fd_defect(kern, x, y, coeff)
            assert abs(res) < 1e-6 * max(1.0, abs(kern(x, y)))


def test_jump_condition(kernels):
    h = 1e-5
    for kern in kernels.values():
        for y in (0.4, 1.7):
            left = (kern(y - h, y) - kern(y - 2 * h, y)) / h
            right = (kern(y + 2 * h, y) - kern(y + h, y)) / h
            assert abs((right - left) + 1.0) < 1e-4


def test_boundary_conditions(kernels):
    rng = np.random.default_rng(3)
    ys = rng.uniform(0.2, 4.0, 20)
    assert np.max(np.abs(kernels["scaled"](0.0, ys))) < 1e-12
    assert np.max(np.abs(kernels["dirichlet"](0.0, ys))) < 1e-12
    h = 1e-7
    rob = kernels["robin"]
    for y in ys:
        dg = (rob(h, y) - rob(0.0, y)) / h
        assert abs(rob.alpha * rob(0.0, y) - dg) < 1e-6


def test_symmetry_and_hermitian(kernels):
    rng = np.random.default_rng(11)
    V = potential.square()
    kern = kernels["scaled"]
    conj = resolvent.kernel_scaled(V, kern.lam, kern.eps, np.conj(kern.z))
    for _ in range(25):
        x, y = rng.uniform(0.01, 4.0, 2)
        assert kern(x, y) == pytest.approx(kern(y, x), rel=1e-12)
        assert kern(x, y) == pytest.approx(np.conj(conj(y, x)), rel=1e-9)


def test_robin_large_alpha_approaches_dirichlet():
    z = 1j
    rob = resolvent.kernel_reference("robin", z, alpha=1e8)
    dir_ = resolvent.kernel_reference("dirichlet", z)
    for x, y in ((0.3, 0.9), (1.5, 0.2)):
        assert rob(x, y) == pytest.approx(dir_(x, y), abs=1e-7)


def test_robin_singular_alpha():
    with pytest.raises(SingularWronskian):
        resolvent.kernel_reference("robin", -1.0, alpha=-1.0)


def test_unknown_reference_kind():
    with pytest.raises(ValueError):
        resolvent.kernel_reference("neumann", 1j)


def test_apply_resolvent_zero_function(kernels):
    out = resolvent.apply_resolvent(kernels["dirichlet"], lambda y: 0.0 * y,
                                    [0.5, 1.0, 2.0])
    assert np.max(np.abs(out)) == 0.0


def test_apply_resolvent_residual():
    # (-d^2/dx^2 - z) (R f)(x) = f(x) for the Dirichlet resolvent
    z = 2j
    ref = resolvent.kernel_reference("dirichlet", z)
    f = lambda y: np.exp(-y)
    h = 1e-3
    for x0 in (0.7, 1.9):
        pts = np.array([x0 - h, x0, x0 + h])
        r = resolvent.apply_resolvent(ref, f, pts)
        second = (r[0] - 2 * r[1] + r[2]) / h ** 2
        assert -second - z * r[1] == pytest.approx(f(x0), abs=1e-5)


def test_first_resolvent_identity():
    z1, z2 = 1j, -0.5 + 2j
    k1 = resolvent.kernel_reference("robin", z1, alpha=1.0)
    k2 = resolvent.kernel_reference("robin", z2, alpha=1.0)
    f = lambda y: np.exp(-y)
    xs = np.array([0.5, 1.2, 3.0])
    kw = dict(y_max=25.0, n=12, max_panel=1.0)
    lhs = resolvent.apply_resolvent(k1, f, xs, **kw) \
        - resolvent.apply_resolvent(k2, f, xs, **kw)

    def r2f(y):
        return resolvent.apply_resolvent(k2, f, y, **kw)

    rhs = (z1 - z2) * resolvent.apply_resolvent(k1, r2f, xs, **kw)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_estimate_alpha_square_well():
    est = resolvent.estimate_alpha(potential.square(), THETA0, 1.0,
                                   [1e-2, 1e-3, 1e-4])
    assert est.extrapolated == pytest.approx(0.5, abs=1e-7)
    assert est.order == pytest.approx(1.0, abs=0.1)
    assert len(est.estimates) == 3


def test_estimate_alpha_zero_omega():
    est = resolvent.estimate_alpha(potential.square(), THETA0, 0.0,
                                   [1e-2, 1e-3, 1e-4])
    assert abs(est.extrapolated) < 1e-7


def test_estimate_alpha_validation():
    with pytest.raises(ValueError):
        resolvent.estimate_alpha(potential.square(), THETA0, 1.0, [1e-2, 1e-3])
    with pytest.raises(ValueError):
        resolvent.estimate_alpha(potential.square(), THETA0, 1.0,
                                 [1e-3, 1e-2, 1e-4])


def test_convergence_study_monotone():
    V = potential.square()
    xs = np.linspace(0.1, 5.0, 25)
    f = lambda y: ((y >= 1.0) & (y <= 2.0)).astype(float)
    rows = resolvent.convergence_study(V, ScalingLaw(THETA0, 2.0), 1j, f,
                                       [1e-1, 1e-2], xs,
                                       f_breakpoints=(1.0, 2.0), y_max=2.5)
    assert rows[0].reference_kind == "robin"
    assert rows[0].error_L2 > rows[1].error_L2
    assert rows[1].alpha_estimate == pytest.approx(1.0, abs=0.05)
    assert rows[0].lam == pytest.approx(THETA0 / 1e-2 + 20.0)


@pytest.mark.parametrize("eps_list, x_grid, name", [
    ([1e-1], [1.0], "x_grid"),
    ([1e-1], [2.0, 1.0], "x_grid"),
    ([1e-1], [1.0, 1.0, 2.0], "x_grid"),
    ([1e-1], [[1.0, 2.0]], "x_grid"),
    ([1e-1], [1.0, np.nan], "x_grid"),
    ([], [1.0, 2.0], "eps_list"),
    # each eps must be finite and positive, and a bad one is named
    ([1e-1, 0.0], [1.0, 2.0], "eps_list.* not 0.0$"),
    ([1e-1, -0.01], [1.0, 2.0], "eps_list.* not -0.01$"),
    ([1e-1, np.nan], [1.0, 2.0], "eps_list.* not nan$"),
], ids=["one_point", "reversed", "repeated", "2d", "nan", "no_eps",
        "zero_eps", "negative_eps", "nan_eps"])
def test_convergence_study_rejects_degenerate_grids(count_calls, eps_list,
                                                    x_grid, name):
    # rejected before any shot, instead of an error_L2 of 0 or nan
    shots = count_calls(resonance, "taylor_endpoints")
    f = lambda y: ((y >= 1.0) & (y <= 2.0)).astype(float)
    with pytest.raises(ValueError, match=name):
        resolvent.convergence_study(potential.square(), ScalingLaw(THETA0, 2.0),
                                    1j, f, eps_list, x_grid)
    assert not shots


def test_convergence_study_marches_the_basis_once(count_calls):
    # the bases of all five eps are one Taylor transfer of five couplings;
    # the non-resonant membership test shoots its bracket ends by another
    # Taylor transfer, so DOP853 is not called
    bases = count_calls(ode, "_taylor_basis")
    marches = count_calls(ode, "march")
    count_calls(resonance, "march", marches)
    f = lambda y: ((y >= 1.0) & (y <= 2.0)).astype(float)
    rows = resolvent.convergence_study(
        potential.square(), ScalingLaw(-3.0, 1.0), 1j, f,
        [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], np.linspace(0.1, 3.0, 10),
        f_breakpoints=(1.0, 2.0), y_max=2.5)
    assert [r.reference_kind for r in rows] == ["dirichlet"] * 5
    assert [np.size(args[1]) for args in bases] == [5]
    assert not marches


def test_robin_study_integrates_only_the_gate_shot(count_calls):
    # on a Robin schedule the one DOP853 march is the certifying gate shot
    # at the resonance; the bases of every eps are one Taylor transfer
    bases = count_calls(ode, "_taylor_basis")
    marches = count_calls(ode, "march")
    count_calls(resonance, "march", marches)
    f = lambda y: ((y >= 1.0) & (y <= 2.0)).astype(float)
    rows = resolvent.convergence_study(
        potential.square(), ScalingLaw(THETA0, 2.0), 1j, f, [1e-1, 1e-2, 1e-3],
        np.linspace(0.1, 3.0, 10), f_breakpoints=(1.0, 2.0), y_max=2.5)
    assert [r.reference_kind for r in rows] == ["robin"] * 3
    assert [np.size(args[1]) for args in bases] == [3]
    assert len(marches) == 1


def test_estimate_alpha_marches_once(count_calls):
    # every eps is one coupling of a single stacked Taylor transfer, and
    # nothing is integrated by DOP853
    transfers = count_calls(ode, "taylor_endpoints")
    count_calls(resolvent, "taylor_endpoints", transfers)
    marches = count_calls(ode, "march")
    count_calls(resonance, "march", marches)
    shots = count_calls(ode, "solve_psi")
    count_calls(resonance, "solve_psi", shots)
    resolvent.estimate_alpha(potential.square(), THETA0, 1.0,
                             [1e-2, 1e-3, 1e-4])
    assert [np.size(args[1]) for args in transfers] == [3]
    assert not marches and not shots


@pytest.fixture(scope="module")
def small_kernel():
    return resolvent.kernel_scaled(potential.square(), -30.0, 0.1, 0.5 + 1j)


def test_kernel_reads_trajectories_only_inside_support(small_kernel):
    kern = small_kernel
    x_m = kern.x_m

    def refuse(t):
        raise AssertionError(f"trajectory read at {t}")

    seen = []

    def record_u(t):
        seen.append(np.array(t, dtype=float))
        return kern.u(t)

    # every t > x_m: phi2 is the exterior exponential, so v is never read
    # and u only at s < x_m
    xs = np.array([0.3 * x_m, 0.8 * x_m, 1.5 * x_m, 2.0])
    ys = np.array([1.2, 3.0, 4.0 * x_m, 0.5])
    stubbed = dataclasses.replace(kern, u=record_u, v=refuse)
    out = stubbed(xs, ys)
    assert np.array_equal(out, kern(xs, ys))
    assert len(seen) == 1 and np.array_equal(seen[0], xs[:2])
    # s >= x_m too: neither trajectory is read
    xs, ys = np.array([x_m, 1.0]), np.array([2.0, x_m])
    out = dataclasses.replace(kern, u=refuse, v=refuse)(xs, ys)
    assert np.array_equal(out, kern(xs, ys))


def test_kernel_inner_formulas(small_kernel):
    kern = small_kernel
    k, x_m = kern.kappa, kern.x_m
    norm = 2.0 * kern.a * k
    for s, t in ((0.2 * x_m, 0.7), (0.4 * x_m, 2.5)):
        want = kern.u(s)[0] * np.exp(-k * t) / norm
        assert abs(kern(s, t) - want) < 1e-14
        assert abs(kern(t, s) - want) < 1e-14
    for s, t in ((0.1 * x_m, 0.6 * x_m), (0.5 * x_m, x_m)):
        phi2 = kern.c * kern.v(t)[0] + kern.d * kern.u(t)[0]
        want = kern.u(s)[0] * phi2 / norm
        assert abs(kern(s, t) - want) < 1e-14


def _apply_per_x(k, f, x_points, f_breakpoints=(),
                 y_max=resolvent.DEFAULT_Y_MAX, n=resolvent.QUAD_NODES,
                 max_panel=resolvent.QUAD_MAX_PANEL):
    """Reference route: fresh panels split at x, the kernel's kinks, x_m and
    f's breakpoints for every x, with the kernel read on each node
    (O(N_x * N_y) work)."""
    out = []
    for x in x_points:
        nodes, weights = quadrature.gauss_nodes(quadrature.panel_edges(
            0.0, y_max, (*k.kinks, k.x_m, *f_breakpoints, x), max_panel), n)
        out.append(np.sum(weights * k(x, nodes) * f(nodes)))
    return np.array(out)


def _indicator(y):
    return ((y >= 1.0) & (y <= 2.0)).astype(float)


def _two_piece():
    return potential.piecewise((0.0, 0.4, 1.0), [(1.0, -2.0, 0.5, 0.0),
                                                 (-1.5, 0.3, 0.0, 0.2)])


def _x_points(x_m, y_max):
    # below, at and above x_m, on f's breakpoints, at and beyond y_max
    return np.array([0.0, 0.3 * x_m, x_m, 1.7 * x_m, 0.5, 1.0, 1.37, 2.0,
                     0.9 * y_max, y_max, y_max + 0.7, 60.0])


def _assert_matches_per_x(kern, f, f_breakpoints, y_max):
    xs = _x_points(kern.x_m, y_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = resolvent.apply_resolvent(kern, f, xs, f_breakpoints,
                                        y_max=y_max)
    want = _apply_per_x(kern, f, xs, f_breakpoints, y_max=y_max)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("make_V", [potential.square,
                                    lambda: potential.linear(0.6),
                                    _two_piece],
                         ids=["square", "linear", "two_piece"])
@pytest.mark.parametrize("lam, eps, z", [(-2467.4, 0.01, 0.5 + 1j),
                                         (-3000.0, 0.1, -1 + 0.5j),
                                         (5.0, 0.3, 0.5 + 1j)])
def test_separable_route_matches_per_x(make_V, lam, eps, z):
    kern = resolvent.kernel_scaled(make_V(), lam, eps, z)
    _assert_matches_per_x(kern, _indicator, (1.0, 2.0), 2.5)


@pytest.mark.parametrize("kind", ["dirichlet", "robin"])
@pytest.mark.parametrize("z", [1j, -400 + 1j])
def test_separable_route_matches_per_x_reference(kind, z):
    kern = resolvent.kernel_reference(kind, z,
                                      alpha=0.7 if kind == "robin" else None)
    _assert_matches_per_x(kern, _indicator, (1.0, 2.0), 2.5)
    _assert_matches_per_x(kern, lambda y: np.exp(-y), (), 50.0)


@pytest.mark.parametrize("make_V", [potential.square, _two_piece])
def test_separable_route_large_decay_no_overflow(make_V):
    # Re kappa * y_max is about 1000: an unscaled e^{kappa*y} overflows
    kern = resolvent.kernel_scaled(make_V(), -2467.4, 0.01, -400 + 1j)
    _assert_matches_per_x(kern, lambda y: np.exp(-y), (), 50.0)


@pytest.mark.parametrize("kind", ["scaled", "dirichlet"])
def test_panels_resolve_a_fast_decay(kind):
    # Re kappa = 1000: a panel of the default width 0.5 spans e^{-500}, and
    # its 20 nodes miss the peak of e^{-kappa|x-y|} at y = x (21% off)
    z = -1e6 + 1j
    kern = (resolvent.kernel_scaled(potential.square(), -2467.4, 0.01, z)
            if kind == "scaled" else resolvent.kernel_reference(kind, z))
    f = lambda y: np.exp(-y)
    xs = np.array([0.003, 0.5, 1.0, 2.0])
    got = resolvent.apply_resolvent(kern, f, xs, y_max=2.5)
    fine = resolvent.apply_resolvent(kern, f, xs, y_max=2.5, max_panel=5e-4,
                                     panel_budget=200_000)
    assert np.max(np.abs(got - fine) / np.abs(fine)) <= 1e-10
    # for |z| large, (R_z f)(x) is f(x)/(-z) up to O(|z|^-2)
    assert abs(got[2]) == pytest.approx(np.exp(-1.0) / abs(z), rel=1e-5)


def test_apply_resolvent_scalar_and_domain(small_kernel):
    f = lambda y: np.exp(-y)
    one = resolvent.apply_resolvent(small_kernel, f, 0.7, y_max=5.0)
    assert type(one) is complex
    many = resolvent.apply_resolvent(small_kernel, f, [0.2, 0.7], y_max=5.0)
    assert abs(one - many[1]) <= 1e-13 * abs(one)
    with pytest.raises(ValueError):
        resolvent.apply_resolvent(small_kernel, f, [0.5, -0.1])


def test_panel_budget_bounds_the_shared_node_set(small_kernel):
    f = lambda y: np.exp(-y)
    # each x alone fits the budget; the node set shared by 600 x does not
    resolvent.apply_resolvent(small_kernel, f, 1.0, panel_budget=5000)
    with pytest.raises(QuadratureFailure):
        resolvent.apply_resolvent(small_kernel, f, np.linspace(0.0, 2.0, 600),
                                  panel_budget=5000)


def test_apply_resolvent_reads_basis_once_per_point_set(monkeypatch,
                                                        small_kernel):
    def refuse(self, x, y):
        raise AssertionError("kernel evaluated pointwise")

    reads, f_calls = [], []
    read = ode.Trajectory.__call__

    def counting(self, x):
        reads.append(np.size(x))
        return read(self, x)

    def f(y):
        f_calls.append(y.size)
        return np.exp(-y)

    monkeypatch.setattr(resolvent.KernelEval, "__call__", refuse)
    monkeypatch.setattr(ode.Trajectory, "__call__", counting)
    counts = []
    for n_x in (10, 200):
        reads.clear()
        f_calls.clear()
        # x = 0 lies inside x_m, so both point sets read the basis
        resolvent.apply_resolvent(small_kernel, f, np.linspace(0.0, 3.0, n_x),
                                  y_max=3.5)
        counts.append(len(reads))
        assert len(f_calls) == 1
    assert counts[0] == counts[1] > 0


def test_apply_resolvent_reads_u_once_per_inner_point(small_kernel):
    # s and t are the same points there, so u is read once on each inner
    # node and each inner x, and the values are those of the two-set read
    kern = small_kernel
    seen = []

    def record_u(t):
        seen.append(np.array(t, dtype=float))
        return kern.u(t)

    def f(y):
        return np.exp(-y)

    xs = np.linspace(0.0, 3.0, 40)
    got = resolvent.apply_resolvent(dataclasses.replace(kern, u=record_u), f,
                                    xs, y_max=3.5)
    assert np.array_equal(got, resolvent.apply_resolvent(kern, f, xs,
                                                         y_max=3.5))
    points = np.concatenate(seen)
    assert len(seen) == 2 and np.all(points < kern.x_m)
    assert np.unique(points).size == points.size
    assert np.array_equal(seen[1], xs[xs < kern.x_m])


def test_kinks_are_scaled_inner_breakpoints():
    kern = resolvent.kernel_scaled(_two_piece(), -2467.4, 0.01, -400 + 1j)
    assert kern.kinks == pytest.approx((0.004,), rel=1e-15)
    square = resolvent.kernel_scaled(potential.square(), -30.0, 0.1, 1j)
    assert square.kinks == ()
    # u'' jumps at the kink; a panel across it loses about 8 digits here
    xs = _x_points(kern.x_m, 50.0)
    f = lambda y: np.exp(-y)
    blind = dataclasses.replace(kern, kinks=())
    fine = resolvent.apply_resolvent(blind, f, xs, np.linspace(0.0, 0.01, 41))
    got = resolvent.apply_resolvent(kern, f, xs)
    coarse = resolvent.apply_resolvent(blind, f, xs)
    scale = np.max(np.abs(fine))
    assert np.max(np.abs(got - fine)) <= 1e-12 * scale
    assert np.max(np.abs(coarse - fine)) > 1e-10 * scale


@pytest.fixture(scope="module")
def deep_linear_root():
    return min(airy.find_linear_resonances(0.7, (-2e4, -1e4)))


@pytest.mark.parametrize("eps", [1e-2, 1e-1])
@pytest.mark.parametrize("kind", ["linear", "square"])
def test_interior_panels_follow_the_basis_steps(kind, eps, deep_linear_root):
    # at the deepest root in (-2e4, -1e4) the interior basis has about 47
    # Taylor steps of half a local wavelength each; with x only outside the
    # support, one 20-node panel across [0, x_m] was 3e-4 to 1e-2 off
    V, theta = ((potential.linear(0.7), deep_linear_root) if kind == "linear"
                else (potential.square(), -(44.5 * np.pi) ** 2))
    kern = resolvent.kernel_scaled(V, theta / eps ** 2 + 1.0 / eps, eps,
                                   0.5 + 1j)
    assert np.allclose(kern.kinks, eps * kern.u.base.starts[1:], rtol=0.0,
                       atol=0.0)
    assert len(kern.kinks) > 40
    f, xs = (lambda y: np.exp(-y)), np.array([0.5, 1.0, 2.0])
    got = resolvent.apply_resolvent(kern, f, xs)
    blind = dataclasses.replace(kern, kinks=())
    fine = resolvent.apply_resolvent(blind, f, xs,
                                     np.linspace(0.0, kern.x_m, 801))
    scale = np.max(np.abs(fine))
    assert np.max(np.abs(got - fine)) <= 1e-12 * scale
    one_panel = resolvent.apply_resolvent(blind, f, xs)
    assert np.max(np.abs(one_panel - fine)) > 1e-4 * scale
