import numpy as np
import pytest
import scipy.special

from deltalim import airy, ode, potential, quadrature, resonance
from deltalim.errors import AiryRangeError, NotAResonance


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
    direct = quadrature.integrate(
        lambda x: V(x) * np.real(traj(x)[0]) ** 2, 0.0, 1.0, n=20,
        max_panel=0.25)
    assert closed == pytest.approx(direct, rel=1e-9)


def test_not_a_resonance_guard():
    with pytest.raises(NotAResonance):
        airy.alpha_linear(0.5, -3.0, 1.0)


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
    airy.linear_weighted_square_integral])
def test_closed_forms_read_one_airy_pair(monkeypatch, closed_form):
    theta = airy.find_linear_resonances(0.7, (-30.0, -0.5), max_hits=1)[0]
    args = []
    inner = airy.airy_quad

    def counting(x):
        args.append(x)
        return inner(x)

    monkeypatch.setattr(airy, "airy_quad", counting)
    closed_form(0.7, theta)
    s = airy.sigma_parameter(0.7, theta)
    assert args == [s, s * (1.0 - 0.7)]


def test_root_refinement_reuses_scanned_ends(monkeypatch):
    # 201 scanned couplings read 402 Airy values; Brent's method starts from
    # the scanned bracket ends and reads only its interior iterates
    args = []
    inner = airy.airy_quad

    def counting(x):
        args.append(x)
        return inner(x)

    monkeypatch.setattr(airy, "airy_quad", counting)
    roots = airy.find_linear_resonances(0.7, (-80.0, -0.5), grid_cells=200)
    assert len(roots) == 2
    assert len(args) == 420
    assert len(set(args)) == len(args)
