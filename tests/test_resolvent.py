import dataclasses

import numpy as np
import pytest

from deltalim import ode, potential, resolvent
from deltalim.errors import SingularWronskian
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


def test_kernel_marches_once(monkeypatch):
    calls = []
    inner = ode.march

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ode, "march", counting)
    resolvent.kernel_scaled(potential.square(), -30.0, 0.2, 1j)
    assert len(calls) == 1


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
