import math

import numpy as np
import pytest

from deltalim import potential, radial3d, resonance
from deltalim.errors import NotResonant

THETA0 = -np.pi ** 2 / 4


def test_resonant_classification():
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    assert case.verdict == "resonant"
    assert case.alpha_per_omega == pytest.approx(0.5, rel=1e-8)
    assert case.alpha == pytest.approx(0.5, rel=1e-8)


def test_nonresonant_classification():
    case = radial3d.classify_3d(potential.square(), -1.0, 1.0)
    assert case.verdict == "nonresonant"
    assert math.isinf(case.alpha_per_omega)
    assert case.profile_r == ()


def test_zero_potential_never_resonant():
    case = radial3d.classify_3d(potential.zero(), -7.0, 1.0)
    assert case.verdict == "nonresonant"


def test_alpha_identical_to_1d_path():
    V = potential.square()
    case = radial3d.classify_3d(V, THETA0, 2.0)
    hit = resonance.resonance_membership(V, THETA0, 1e-6)
    assert case.alpha == resonance.robin_alpha(V, hit, 2.0)  # bit-for-bit


def test_profile_closed_form():
    # Psi(r) = sin(pi r/2)/((pi/2) r) inside, (2/pi)/r outside
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    r = np.array([0.2, 0.5, 0.999, 1.5, 8.0])
    psi = radial3d.resonance_profile(case, r)
    exact = np.where(r <= 1, np.sin(np.pi * r / 2) / ((np.pi / 2) * r),
                     (2 / np.pi) / r)
    assert np.max(np.abs(psi - exact)) < 1e-8


def test_profile_tail_is_c_over_r():
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    r = np.array([2.0, 4.0, 8.0])
    psi = radial3d.resonance_profile(case, r)
    assert np.allclose(psi * r, psi[0] * 2.0, rtol=1e-10)


def test_profile_near_origin():
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    rs = np.array([1e-1, 1e-2, 1e-3])
    vals = rs * radial3d.resonance_profile(case, rs)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 2e-3


def test_profile_requires_resonance():
    case = radial3d.classify_3d(potential.square(), -1.0, 1.0)
    with pytest.raises(NotResonant):
        radial3d.resonance_profile(case, [1.0])
    with pytest.raises(NotResonant):
        radial3d.tail_mass(case, 5.0)


def test_profile_rejects_nonpositive_radii():
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    with pytest.raises(ValueError):
        radial3d.resonance_profile(case, [0.0, 1.0])
    with pytest.raises(ValueError, match="positive, got nan"):
        radial3d.resonance_profile(case, [np.nan, 0.5])


def test_tail_mass_grows_linearly():
    # int_M^R Psi^2 r^2 dr = psi(M)^2 (R - M): the non-L^2 witness
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    m1 = radial3d.tail_mass(case, 2.0)
    m2 = radial3d.tail_mass(case, 11.0)
    assert m2 / m1 == pytest.approx(10.0, rel=1e-12)
    assert m1 == pytest.approx((2 / np.pi) ** 2, rel=1e-8)
    with pytest.raises(ValueError):
        radial3d.tail_mass(case, 0.5)
    with pytest.raises(ValueError, match="got nan"):
        radial3d.tail_mass(case, np.nan)


def test_profile_grid_is_log_spaced():
    case = radial3d.classify_3d(potential.square(), THETA0, 1.0)
    r = np.asarray(case.profile_r)
    ratios = r[1:] / r[:-1]
    assert np.allclose(ratios, ratios[0])
    assert r[0] > 0 and r[-1] == pytest.approx(10.0)
