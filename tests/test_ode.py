from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from deltalim import ode, potential


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
    psi = ode.solve_psi(V, -17.0, tol=tol)
    chi = ode.solve_psi_tilde(V, -17.0, tol=tol)
    xs = np.linspace(0.0, 1.0, 13)
    pv, pd = psi(xs)
    cv, cd = chi(xs)
    w = pv * cd - pd * cv
    assert np.all(np.abs(w + 1.0) < 100 * tol)


def test_wronskian_complex_energy():
    V = potential.square()
    z = 1.5 + 2.0j
    psi = ode.solve_psi(V, -3.0, gamma=1.0, z=z, tol=1e-11)
    chi = ode.solve_psi_tilde(V, -3.0, gamma=1.0, z=z, tol=1e-11)
    xs = np.linspace(0.0, 1.0, 7)
    pv, pd = psi(xs)
    cv, cd = chi(xs)
    assert np.all(np.abs(pv * cd - pd * cv + 1.0) < 1e-9)
    assert pv.dtype == complex


def test_linearity_in_initial_data():
    # any Cauchy solution is a combination of psi and psi_tilde
    V = potential.linear(0.6)
    theta = -11.0
    psi = ode.solve_psi(V, theta, tol=1e-12)
    chi = ode.solve_psi_tilde(V, theta, tol=1e-12)
    a, b = 0.3, -1.7
    direct = ode._solve_second_order(V, theta, 0.0, 0.0, 1e-12, (b, a))
    xs = np.linspace(0.0, 1.0, 9)
    combo = a * psi(xs)[0] + b * chi(xs)[0]
    assert np.allclose(direct(xs)[0], combo, atol=1e-10)


def test_scaling_identity_against_direct_integration():
    # u(x) = eps * psi_{eps^2 lam, eps^2}(x/eps) solves the unscaled problem
    V, lam, eps, z = potential.square(), -30.0, 0.3, 1.0j
    u = ode.solve_u(V, lam, eps, z, tol=1e-12)

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


def test_u_tilde_initial_data():
    V = potential.square()
    v = ode.solve_u_tilde(V, -5.0, 0.25, 2.0j, tol=1e-12)
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
    with pytest.raises(ValueError):
        ode.solve_psi(potential.square(), -1.0, tol=0.0)


def test_invalid_eps():
    with pytest.raises(ValueError):
        ode.solve_u(potential.square(), -1.0, 0.0, 1.0j)


def test_scaled_views_wronskian_and_endpoints():
    # u (value factor eps) and v (slope divisor eps) keep W(u, v) = -1 on
    # [0, eps*M]; a wrong factor or divisor scales it by eps or 1/eps
    V, lam, eps, z = potential.square(), -30.0, 0.3, 1.0j
    u = ode.solve_u(V, lam, eps, z, tol=1e-12)
    v = ode.solve_u_tilde(V, lam, eps, z, tol=1e-12)
    xs = np.linspace(0.05 * eps, 0.95 * eps, 9)
    uv, ud = u(xs)
    vv, vd = v(xs)
    assert np.all(np.abs(uv * vd - ud * vv + 1.0) < 1e-9)
    ue, ve = u.endpoint, v.endpoint
    assert ue.x == ve.x == pytest.approx(eps)
    assert abs(ue.value * ve.derivative - ue.derivative * ve.value + 1.0) < 1e-9


def test_solve_ivp_has_one_call_site():
    # every ODE solve goes through ode.march; no module keeps its own loop
    src = Path(ode.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if "solve_ivp" in p.read_text(encoding="utf-8"))
    assert users == ["ode.py"]
