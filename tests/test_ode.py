from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from deltalim import airy, ode, potential
from deltalim.errors import NonConvergence


def _dop853(V, rhs, y0, tol):
    """Independent dense oracle: scipy's DOP853 with its own dense output on
    each piece of V.  Returns read(x), the state rows at the points x (a
    breakpoint belongs to the piece it starts), and the state at M."""
    cuts = np.asarray(V.breakpoints, dtype=float)
    sols, y = [], np.asarray(y0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=tol,
                        atol=tol * 1e-3, dense_output=True)
        assert sol.success
        sols.append(sol.sol)
        y = sol.y[:, -1]

    def read(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        piece = np.clip(np.searchsorted(cuts, xs, side="right") - 1,
                        0, len(sols) - 1)
        out = np.empty((y.size, xs.size), dtype=y.dtype)
        for p, sol in enumerate(sols):
            sel = piece == p
            if np.any(sel):
                out[:, sel] = sol(xs[sel])
        return out

    return read, y


def test_square_well_closed_form():
    # theta = -pi^2/4: psi(x) = sin(pi x / 2)/(pi/2)
    V = potential.square()
    traj = ode.solve_psi(V, -np.pi ** 2 / 4, tol=1e-12)
    xs = np.linspace(0.0, 1.0, 21)
    vals, ders = traj(xs)
    assert np.allclose(vals, np.sin(np.pi * xs / 2) / (np.pi / 2), atol=1e-11)
    assert np.allclose(ders, np.cos(np.pi * xs / 2), atol=1e-11)
    assert traj.endpoint.value == pytest.approx(2 / np.pi, abs=1e-11)
    assert traj.endpoint.derivative == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("theta, gz", [(-np.pi ** 2 / 4, 0.0),
                                       (-3.0, 0.5 + 1.0j)],
                         ids=["resonant", "complex"])
def test_solve_psi_reads_the_taylor_series(theta, gz):
    # psi = sin(k x)/k, k^2 = gz - theta: the reads are the Taylor series of
    # psi alone, near machine precision at the default tol, and the
    # endpoint is the DOP853 shot's, within that tol
    traj = ode.solve_psi(potential.square(), theta, 1.0, gz)
    k = np.sqrt(complex(gz - theta))
    xs = np.linspace(0.0, 1.0, 41)
    val, der = traj(xs)
    assert val.dtype == (complex if np.imag(gz) else float)
    assert np.max(np.abs(val - np.sin(k * xs) / k)) <= 1e-13
    assert np.max(np.abs(der - np.cos(k * xs))) <= 1e-13
    end = traj.endpoint
    assert end.x == traj.x_end == 1.0
    assert abs(end.value - np.sin(k) / k) <= 1e-9
    assert abs(end.derivative - np.cos(k)) <= 1e-9


def test_positive_coupling_closed_form():
    # theta = 4: psi(x) = sinh(2x)/2
    V = potential.square()
    traj = ode.solve_psi(V, 4.0, tol=1e-12)
    assert traj.endpoint.value == pytest.approx(np.sinh(2.0) / 2, rel=1e-11)
    assert traj.endpoint.derivative == pytest.approx(np.cosh(2.0), rel=1e-11)


def test_wronskian_is_minus_one():
    V = potential.piecewise((0.0, 0.4, 1.0),
                            [(1.0, -2.0, 0.0, 0.0), (0.5, 0.0, 1.0, 0.0)])
    tol = 1e-11
    # at eps = 1 the basis views are psi and psi_tilde themselves
    psi, chi = ode.solve_uv(V, -17.0, 1.0, 0.0, tol=tol)
    xs = np.linspace(0.0, 1.0, 13)
    pv, pd = psi(xs)
    cv, cd = chi(xs)
    w = pv * cd - pd * cv
    assert np.all(np.abs(w + 1.0) < 100 * tol)


def test_wronskian_complex_energy():
    V = potential.square()
    z = 1.5 + 2.0j
    psi, chi = ode.solve_uv(V, -3.0, 1.0, z, tol=1e-11)
    xs = np.linspace(0.0, 1.0, 7)
    pv, pd = psi(xs)
    cv, cd = chi(xs)
    assert np.all(np.abs(pv * cd - pd * cv + 1.0) < 1e-9)
    assert pv.dtype == complex


def test_linearity_in_initial_data():
    # any Cauchy solution is a combination of psi and psi_tilde
    V = potential.linear(0.6)
    theta = -11.0
    psi, chi = ode.solve_uv(V, theta, 1.0, 0.0, tol=1e-12)
    a, b = 0.3, -1.7

    def rhs(x, y):
        return [y[1], theta * V(x) * y[0]]

    direct, _ = _dop853(V, rhs, np.array([b, a]), 1e-12)
    xs = np.linspace(0.0, 1.0, 9)
    combo = a * psi(xs)[0] + b * chi(xs)[0]
    assert np.allclose(direct(xs)[0], combo, atol=1e-10)


def test_scaling_identity_against_direct_integration():
    # u(x) = eps * psi_{eps^2 lam, eps^2}(x/eps) solves the unscaled problem
    V, lam, eps, z = potential.square(), -30.0, 0.3, 1.0j
    u, _ = ode.solve_uv(V, lam, eps, z, tol=1e-12)

    def rhs(x, y):
        return [y[1], (lam * V(x / eps) - z) * y[0]]

    sol = solve_ivp(rhs, (0.0, eps), np.array([0.0, 1.0], dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    xs = np.linspace(0.05 * eps, eps, 7)
    uv, ud = u(xs)
    assert np.allclose(uv, sol.sol(xs)[0], atol=1e-11)
    assert np.allclose(ud, sol.sol(xs)[1], atol=1e-11)
    assert u.x_end == pytest.approx(eps)


def test_v_initial_data():
    V = potential.square()
    _, v = ode.solve_uv(V, -5.0, 0.25, 2.0j, tol=1e-12)
    val, der = v(1e-9)
    assert val == pytest.approx(1.0, abs=1e-7)
    assert abs(der) < 1e-6
    # derivative consistency by finite differences at an interior point
    h = 1e-6
    x0 = 0.1
    fd = (v(x0 + h)[0] - v(x0 - h)[0]) / (2 * h)
    assert fd == pytest.approx(v(x0)[1], rel=1e-5)


def test_accuracy_improves_with_tol():
    V = potential.square()
    exact = 2 / np.pi
    errs = [abs(ode.solve_psi(V, -np.pi ** 2 / 4, tol=t).endpoint.value - exact)
            for t in (1e-6, 1e-9, 1e-12)]
    assert errs[0] > errs[1] > errs[2]


def test_invalid_tol():
    # a nan tol passed the old "tol <= 0" test, and DOP853 then never ended
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            ode.solve_psi(potential.square(), -1.0, tol=tol)


def test_invalid_eps():
    with pytest.raises(ValueError):
        ode.solve_uv(potential.square(), -1.0, 0.0, 1.0j)


def test_scaled_views_wronskian_and_endpoints():
    # u (value factor eps) and v (slope divisor eps) keep W(u, v) = -1 on
    # [0, eps*M]; a wrong factor or divisor scales it by eps or 1/eps
    V, lam, eps, z = potential.square(), -30.0, 0.3, 1.0j
    u, v = ode.solve_uv(V, lam, eps, z, tol=1e-12)
    xs = np.linspace(0.05 * eps, 0.95 * eps, 9)
    uv, ud = u(xs)
    vv, vd = v(xs)
    assert np.all(np.abs(uv * vd - ud * vv + 1.0) < 1e-9)
    ue, ve = u.endpoint, v.endpoint
    assert ue.x == ve.x == pytest.approx(eps)
    assert abs(ue.value * ve.derivative - ue.derivative * ve.value + 1.0) < 1e-9


def test_basis_u_matches_rescaled_shot():
    # u is eps*psi(x/eps) with psi shot at (eps^2*lam, eps^2); its slope is
    # psi'(x/eps).  The oracle shoots that psi with scipy's DOP853
    V, lam, eps, z = potential.linear(0.6), -30.0, 0.1, 0.5 + 1.0j
    theta, gz = eps * eps * lam, eps * eps * z

    def rhs(x, y):
        return [y[1], (theta * V(x) - gz) * y[0]]

    psi, end_psi = _dop853(V, rhs, np.array([0.0, 1.0], dtype=complex), 1e-12)
    u, _ = ode.solve_uv(V, lam, eps, z, tol=1e-12)
    xs = np.linspace(0.0, eps, 11)
    want = psi(xs / eps)
    for got, w in zip(u(xs), (eps * want[0], want[1])):
        assert np.allclose(got, w, rtol=0.0, atol=1e-10)
    end = u.endpoint
    assert end.x == pytest.approx(eps)
    assert abs(end.value - eps * end_psi[0]) < 1e-10
    assert abs(end.derivative - end_psi[1]) < 1e-10


def _two_piece():
    return potential.piecewise((0.0, 0.4, 1.0),
                               [(1.0, -2.0, 0.0, 0.0), (0.5, 0.0, 1.0, 0.0)])


@pytest.mark.parametrize("z", [0.5 + 1.0j, -2.0], ids=["nonreal", "real"])
@pytest.mark.parametrize("make_V, theta", [
    (potential.square, -np.pi ** 2 / 4),
    (lambda: potential.linear(0.6), -10.0),
    (_two_piece, -17.0),
], ids=["square", "linear", "two_piece"])
def test_stacked_basis_matches_one_pair_marches(make_V, theta, z):
    # each eps of a critical schedule reads its own rows of one stacked
    # march; they agree with the march of that pair alone at the
    # integration error and keep W(u, v) = -1 on their own [0, eps*M]
    V, tol = make_V(), 1e-12
    eps = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    lams = [theta / e ** 2 + 2.0 / e for e in eps]
    stacked = ode.solve_uv(V, lams, eps, z, tol)
    assert len(stacked) == len(eps)
    for e, lam, views in zip(eps, lams, stacked):
        alone = ode.solve_uv(V, lam, e, z, tol)
        xs = np.linspace(0.0, e, 11)
        for got, want in zip(views, alone):
            assert got.eps == e and got.x_end == want.x_end
            for g, w in zip(got(xs), want(xs)):
                assert g.dtype == w.dtype
                assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))
            ge, we = got.endpoint, want.endpoint
            assert abs(ge.value - we.value) <= 1e-9 * abs(we.value)
            assert abs(ge.derivative - we.derivative) <= 1e-9 * abs(we.derivative)
        (uv, ud), (vv, vd) = views[0](xs), views[1](xs)
        assert np.all(np.abs(uv * vd - ud * vv + 1.0) < 1e-9)
        ue, ve = views[0].endpoint, views[1].endpoint
        assert abs(ue.value * ve.derivative - ue.derivative * ve.value + 1.0) < 1e-9


# -- the Taylor transfer of stacked zero-energy endpoints -------------------

def _relative_gap(theta, got, want):
    """Largest gap of (psi(M), psi'(M)) from the reference, with psi weighed
    by sqrt|theta|, relative to sqrt(psi'^2 + |theta| psi^2) of the
    reference: the state's amplitude, not its value near a zero."""
    root = np.sqrt(np.abs(theta))
    scale = np.hypot(want[1], root * want[0])
    return np.max(np.maximum(root * np.abs(got[0] - want[0]),
                             np.abs(got[1] - want[1])) / scale)


def test_taylor_square_well_closed_forms():
    V = potential.square()
    theta = -np.concatenate([np.geomspace(0.1, 2e4, 150),
                             np.linspace(0.1, 2e4, 401)])
    k = np.sqrt(-theta)
    got = ode.taylor_endpoints(V, theta, 1e-12)
    assert _relative_gap(theta, got, (np.sin(k) / k, np.cos(k))) <= 1e-13
    theta = np.geomspace(1e-3, 400.0, 60)
    k = np.sqrt(theta)
    psi, dpsi = ode.taylor_endpoints(V, theta, 1e-12)
    assert np.max(np.abs(psi * k / np.sinh(k) - 1.0)) <= 1e-13
    assert np.max(np.abs(dpsi / np.cosh(k) - 1.0)) <= 1e-13
    # theta = 0 is one exact step: psi = x
    psi, dpsi = ode.taylor_endpoints(V, np.array([0.0]), 1e-12)
    assert psi.tolist() == [1.0] and dpsi.tolist() == [1.0]


@pytest.mark.parametrize("xi", [0.7, 1.5, -0.4])
def test_taylor_linear_matches_airy_closed_form(xi):
    theta = np.concatenate([-np.geomspace(0.5, 2e4, 80),
                            np.geomspace(0.5, 400.0, 20)])
    got = ode.taylor_endpoints(potential.linear(xi), theta, 1e-12)
    want = np.array([airy.psi_linear_closed(xi, t, 1.0) for t in theta]).T
    assert _relative_gap(theta, got, want) <= 5e-13


@pytest.mark.parametrize("V", [
    potential.piecewise((0.0, 0.45, 1.2), [(1.0, -0.5, 0.8, -1.2),
                                           (0.6, 0.3, -0.2, 0.4)]),
    # max|V| = 1 would allow one step at theta = -9, but |V| reaches 8 on
    # that step's disc: counted from the real maximum, psi'(1) is 5e-3 off
    potential.piecewise((0.0, 1.0), [(0.0, 4.0, -4.0, 0.0)]),
], ids=["cubic", "bump"])
def test_taylor_polynomial_pieces_match_the_march(V):
    # no closed form here: the DOP853 march at 1e-13 is the oracle, and its
    # own error, near 3e-13 of the amplitude, sets the bound
    theta = np.array([-800.0, -200.0, -30.0, -9.0, -1.0, 0.0, 5.0, 40.0])
    got = ode.taylor_endpoints(V, theta, 1e-12)
    want = []
    for t in theta:
        def rhs(x, y, t=t):
            return [y[1], t * V(x) * y[0]]
        want.append(ode.march(V, rhs, np.array([0.0, 1.0]), 1e-13))
    assert _relative_gap(theta, got, np.array(want).T) <= 1e-12


def test_taylor_values_do_not_depend_on_the_stack():
    # steps are fixed by the largest |theta|, and order by tol, so a small
    # coupling stacked with a deep one only takes more, shorter exact steps;
    # an error control shared over the stack would move it by ~1e-13
    V = potential.square()
    theta = np.array([-2e4, -1.0, -0.1, 0.0, 3.0])
    psi, dpsi = ode.taylor_endpoints(V, theta, 1e-12)
    for t, p, d in zip(theta, psi, dpsi):
        alone = ode.taylor_endpoints(V, np.array([t]), 1e-12)
        assert abs(p - alone[0][0]) <= 1e-14 and abs(d - alone[1][0]) <= 1e-14


def _basis_reads(V):
    """u and v of a three-pair solve_uv on V, read at 41 points and at the
    end, as one list."""
    eps = [1e-1, 1e-2, 1e-3]
    lams = [t / e ** 2 for t, e in zip((-2e4, -300.0, -17.0), eps)]
    reads, xs = [], np.linspace(0.0, 1.0, 41)
    for e, views in zip(eps, ode.solve_uv(V, lams, eps, 0.5 + 1.0j, 1e-12)):
        for view in views:
            end = view.endpoint
            reads += [*view(e * xs * V.support_end), end.value, end.derivative]
    return np.hstack(reads).tolist()


def test_taylor_blocks_change_nothing(monkeypatch):
    # the transfers of a piece are built a block of steps at a time, for the
    # endpoints and for the dense basis alike; any block size gives the same
    # bits (the square well's constant piece is one transfer at any size)
    V, theta = potential.linear(0.7), -np.linspace(1.0, 2e4, 9)
    Vs = [V, potential.piecewise((0.0, 0.45, 1.2), [(1.0, -0.5, 0.8, -1.2),
                                                   (0.6, 0.3, -0.2, 0.4)]),
          potential.square()]
    whole = ode.taylor_endpoints(V, theta, 1e-12)
    bases = [_basis_reads(W) for W in Vs]
    monkeypatch.setattr(ode, "_TAYLOR_BLOCK", 20)
    for got, want in zip(ode.taylor_endpoints(V, theta, 1e-12), whole):
        assert got.tolist() == want.tolist()
    for W, want in zip(Vs, bases):
        assert _basis_reads(W) == want


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
def test_taylor_invalid_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        ode.taylor_endpoints(potential.square(), np.array([-1.0]), tol)


@pytest.mark.parametrize("theta", [float("nan"), -float("inf")])
def test_taylor_invalid_coupling(theta):
    with pytest.raises(ValueError, match="couplings must be finite"):
        ode.taylor_endpoints(potential.square(), np.array([-1.0, theta]), 1e-12)


def test_taylor_overflow_names_its_piece():
    V = potential.piecewise((0.0, 0.5, 1.0), [(0.0, 0, 0, 0), (1.0, 0, 0, 0)])
    with pytest.raises(NonConvergence, match=r"\[0\.5, 1\.0\]"):
        ode.taylor_endpoints(V, np.array([-1.0, 1e7]), 1e-12)


def test_solve_ivp_has_one_call_site():
    # every ODE solve goes through ode.march; no module keeps its own loop
    src = Path(ode.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if "solve_ivp" in p.read_text(encoding="utf-8"))
    assert users == ["ode.py"]


@pytest.mark.parametrize("theta, tol", [(-10.0, 1e-10), (-10.0, 1e-12),
                                        (-200.0, 1e-10), (-3000.0, 1e-10)])
def test_march_keeps_each_piece_to_itself(theta, tol):
    # V = 1 on [0, 1/2), 3 on [1/2, 1]: a march makes exactly the RHS
    # evaluations of two separate solves of the constant pieces, whose last
    # stage would otherwise read V's jump at x = 1/2 and shrink the steps
    V = potential.piecewise((0.0, 0.5, 1.0), [(1.0, 0, 0, 0), (3.0, 0, 0, 0)])
    calls = []

    def rhs(x, y):
        calls.append(x)
        return [y[1], theta * V(x) * y[0]]

    y = ode.march(V, rhs, np.array([0.0, 1.0]), tol)
    separate, y_sep = 0, np.array([0.0, 1.0])
    for lo, hi, vj in ((0.0, 0.5, 1.0), (0.5, 1.0, 3.0)):
        sol = solve_ivp(lambda x, y, vj=vj: [y[1], theta * vj * y[0]],
                        (lo, hi), y_sep, method="DOP853",
                        rtol=tol, atol=tol * 1e-3)
        separate, y_sep = separate + sol.nfev, sol.y[:, -1]
    assert len(calls) == separate
    # psi = sin(k1 x)/k1 up to 1/2, then the k2 = sqrt(3) k1 wave it matches
    k1 = np.sqrt(-theta)
    k2 = np.sqrt(3.0) * k1
    p, d = np.sin(k1 / 2) / k1, np.cos(k1 / 2)
    want = (p * np.cos(k2 / 2) + d * np.sin(k2 / 2) / k2,
            d * np.cos(k2 / 2) - k2 * p * np.sin(k2 / 2))
    assert max(abs(y[0] - want[0]), abs(y[1] - want[1]) / k2) <= 100 * tol


def _uv_march(V, theta, z, eps, tol=1e-10):
    """The four-row (psi, psi', psi~, psi~') basis of every eps at
    theta_k = eps_k^2*lam_k, gamma_k = eps_k^2, stacked in one DOP853 oracle
    march (the interior basis itself is a Taylor transfer)."""
    eps = np.asarray(eps)
    lam = theta / eps ** 2 + 2.0 / eps
    thetas, gz = np.repeat(eps * eps * lam, 2), np.repeat(eps * eps * z, 2)

    def rhs(x, y):
        dy = np.empty_like(y)
        dy[0::2] = y[1::2]
        dy[1::2] = (thetas * V(x) - gz) * y[0::2]
        return dy

    y0 = np.tile(np.array([0.0, 1.0, 1.0, 0.0], dtype=gz.dtype), eps.size)
    return _dop853(V, rhs, y0, tol)[0]


# -- the dense Taylor basis (u, v) of solve_uv --------------------------------

def _basis_points(u, rng):
    """Step starts, breakpoints, 0, x_end and random points of a basis view,
    in its own [0, eps*M]."""
    e = u.eps
    return np.concatenate([e * u.base.starts, [0.0, u.x_end],
                           rng.uniform(0.0, u.x_end, 60)])


@pytest.mark.parametrize("z", [0.5 + 1.0j, -2.0], ids=["complex", "real"])
@pytest.mark.parametrize("theta", [-2e4, -500.0, -30.0, -1.0, 0.0, 5.0, 400.0])
@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_taylor_basis_square_well_closed_form(theta, eps, z):
    # u = eps*sinh(k x/eps)/k and v = cosh(k x/eps), k^2 = eps^2*(lam - z)
    lam = theta / eps ** 2
    u, v = ode.solve_uv(potential.square(), lam, eps, z, tol=1e-12)
    k = np.sqrt(complex(eps * eps * (lam - z)))
    xs = _basis_points(u, np.random.default_rng(2))
    a = k * xs / eps
    want = {u: (eps * np.sinh(a) / k if k else xs, np.cosh(a)),
            v: (np.cosh(a), k * np.sinh(a) / eps)}
    for view, (val, der) in want.items():
        got = view(xs)
        assert got[0].dtype == (complex if np.imag(z) else float)
        for g, w in zip(got, (val, der)):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
        end = view.endpoint
        assert abs(end.value - val[-61]) <= 1e-12 * np.max(np.abs(val))
        assert abs(end.derivative - der[-61]) <= 1e-12 * np.max(np.abs(der))
        assert end.x == view.x_end == eps


@pytest.mark.parametrize("z", [0.5 + 1.0j, -2.0], ids=["complex", "real"])
def test_taylor_basis_matches_a_tight_march(z):
    # no closed form on the two-piece V: the stacked DOP853 basis march at
    # tol 1e-13 is the oracle, for every eps of a critical schedule
    V, theta, eps = _two_piece(), -17.0, [1e-1, 1e-2, 1e-3]
    read = _uv_march(V, theta, z, eps, tol=1e-13)
    bases = ode.solve_uv(V, [theta / e ** 2 + 2.0 / e for e in eps], eps, z,
                         tol=1e-12)
    xs = np.linspace(0.0, 1.0, 41)
    rows = read(xs)
    for k, (e, views) in enumerate(zip(eps, bases)):
        for j, view in enumerate(views):
            val, der = rows[4 * k + 2 * j:4 * k + 2 * j + 2]
            want = (view.factor * val, der / view.divisor)
            for g, w in zip(view(e * xs), want):
                assert np.max(np.abs(g - w)) <= 1e-11 * np.max(np.abs(w))


@pytest.mark.parametrize("make_V", [potential.square, _two_piece,
                                    lambda: potential.linear(0.7)],
                         ids=["square", "two_piece", "linear"])
def test_taylor_basis_keeps_the_wronskian(make_V):
    # Liouville: W(u, v) = -1 on [0, eps*M], at every read and at the end
    V, eps, rng = make_V(), 1e-2, np.random.default_rng(4)
    for theta in (-2e4, -300.0, -17.0, -1.0, 0.0, 4.0):
        u, v = ode.solve_uv(V, theta / eps ** 2, eps, 0.5 + 1.0j, tol=1e-12)
        xs = _basis_points(u, rng)
        (uv, ud), (vv, vd) = u(xs), v(xs)
        assert np.max(np.abs(uv * vd - ud * vv + 1.0)) <= 1e-12
        ue, ve = u.endpoint, v.endpoint
        assert abs(ue.value * ve.derivative - ue.derivative * ve.value + 1.0) \
            <= 1e-12


def test_taylor_basis_does_not_depend_on_the_stack():
    # each pair gets the basis it gets alone: a deep coupling stacked with
    # shallow ones only gives them more, shorter exact steps
    V, z = _two_piece(), 0.5 + 1.0j
    thetas, eps = [-2e4, -17.0, 0.0, 3.0], [1e-1, 3e-2, 1e-2, 1e-3]
    lams = [t / e ** 2 for t, e in zip(thetas, eps)]
    stacked = ode.solve_uv(V, lams, eps, z)
    rng = np.random.default_rng(6)
    for lam, e, views in zip(lams, eps, stacked):
        alone = ode.solve_uv(V, lam, e, z)
        xs = rng.uniform(0.0, e, 40)
        for got, want in zip(views, alone):
            for g, w in zip(got(xs), want(xs)):
                assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
            ge, we = got.endpoint, want.endpoint
            assert abs(ge.value - we.value) <= 1e-13 * abs(we.value)


def test_taylor_basis_overflow_names_its_piece():
    V = potential.piecewise((0.0, 0.5, 1.0), [(0.0, 0, 0, 0), (1.0, 0, 0, 0)])
    with pytest.raises(NonConvergence, match=r"\[0\.5, 1\.0\]"):
        ode.solve_uv(V, [-1.0, 1e7], [1.0, 1.0], 0.5 + 1.0j)
