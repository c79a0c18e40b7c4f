import numpy as np
import pytest

from deltalim import ode, potential, resonance
from deltalim.errors import BracketScanTooCoarse, NonConvergence
from deltalim.resonance import LimitDescriptor, ScalingLaw


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
        var = resonance.dG_dtheta_variational(V, h.theta)
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
        var = resonance.dG_dtheta_variational(V, h.theta)
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


def test_no_resonances_for_zero_potential():
    assert resonance.find_resonances(potential.zero(), (-50.0, -0.5)) == []


def test_shoot_residual_matches_trajectory():
    V = potential.linear(0.5)
    val, der = resonance.shoot_residual(V, -9.0, 1e-12)
    end = ode.solve_psi(V, -9.0, tol=1e-12).endpoint
    assert val == pytest.approx(np.real(end.value))
    assert der == pytest.approx(np.real(end.derivative))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_failure_names_its_segment():
    # psi grows like exp(sqrt(theta)) here, so the stacked scan cannot finish;
    # the overflow warns inside the integrator before march raises
    with pytest.raises(NonConvergence, match=r"\[0\.0, 1\.0\]"):
        resonance.find_resonances(potential.square(), (1e5, 1e6))


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_large_root_passes_theta_scaled_gate():
    hits = resonance.find_resonances(potential.square(), (-2200.0, -1960.0))
    exact = -(14.5 * np.pi) ** 2
    assert len(hits) == 1
    assert abs(hits[0].theta - exact) <= 1e-9 * abs(exact)


def test_residual_gate_scales_with_theta(monkeypatch):
    # hand the gate a theta off the root by a multiple of the stopping width
    V = potential.square()
    exact, root_tol = -(14.5 * np.pi) ** 2, 1e-10
    width = root_tol * (1.0 + abs(exact))

    def certify_at(offset):
        monkeypatch.setattr(resonance, "brentq",
                            lambda *args, **kwargs: exact + offset * width)
        return resonance._certify(V, exact - 1.0, exact + 1.0, root_tol, 1e-12)

    hit = certify_at(0.2)
    assert hit.residual > root_tol          # an absolute gate rejects this
    assert hit.residual <= root_tol * abs(hit.dG_dtheta) * (1.0 + abs(exact))
    with pytest.raises(BracketScanTooCoarse, match=r"exceeds .* = \d"):
        certify_at(2.0)


def test_certify_shoot_budget(monkeypatch):
    shoots = _count_calls(monkeypatch, resonance, "shoot_residual")
    hits = resonance.find_resonances(potential.square(), (-150.0, -100.0),
                                     root_tol=1e-8)
    exact = -(3.5 * np.pi) ** 2
    assert [h.theta for h in hits] == [pytest.approx(exact, rel=1e-9)]
    assert len(shoots) <= 8


def test_max_hits_certifies_only_what_it_returns(monkeypatch):
    certified = _count_calls(monkeypatch, resonance, "_certify")
    hits = resonance.find_resonances(potential.square(), (-2e4, -30.0),
                                     max_hits=3)
    exact = [-(np.pi * (k + 0.5)) ** 2 for k in (2, 3, 4)]
    assert [h.theta for h in hits] == [pytest.approx(e, rel=1e-9)
                                       for e in exact]
    assert len(certified) == 3


def test_max_hits_straddling_zero_keeps_the_nearest(monkeypatch):
    # V = -1 then +1 has resonances of both signs.  The cell (-3, 25) holds
    # 0 and the root near 22.03, so it comes first; (-31, -3) may still hold
    # a nearer root (it does: -3.516) and must be certified too.
    V = potential.piecewise((0.0, 0.5, 1.0), [(-1.0, 0, 0, 0), (1.0, 0, 0, 0)])
    every = resonance.find_resonances(V, (-31.0, 25.0), grid_cells=2)
    certified = _count_calls(monkeypatch, resonance, "_certify")
    one = resonance.find_resonances(V, (-31.0, 25.0), grid_cells=2, max_hits=1)
    assert len(every) == 2 and every[0].theta < 0.0 < every[1].theta
    assert [h.theta for h in one] == [every[0].theta]
    assert len(certified) == 2


def test_membership_shoots_no_coupling_twice(monkeypatch):
    # the bracket ends shot for the sign test are handed to Brent's method
    shoots = _count_calls(monkeypatch, resonance, "shoot_residual")
    for theta in (-np.pi ** 2 / 4 + 1e-8, -(1.5 * np.pi) ** 2 * (1 + 3e-7)):
        shoots.clear()
        hit = resonance.resonance_membership(potential.square(), theta, 1e-6)
        assert hit is not None
        thetas = [args[1] for args in shoots]
        assert len(set(thetas)) == len(thetas)
