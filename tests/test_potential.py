import json
import warnings

import numpy as np
import pytest

from deltalim import potential
from deltalim.potential import Potential


def test_square_values():
    V = potential.square()
    assert V(0.0) == 1.0
    assert V(0.999) == 1.0
    assert V(1.5) == 0.0
    assert V.support_end == 1.0


def test_linear_values():
    V = potential.linear(0.7)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(V(xs), 1.0 - 0.7 * xs)
    assert V(2.0) == 0.0


def test_piecewise_global_coordinates():
    # cubic on [0, 0.5], constant on [0.5, 2]
    V = potential.piecewise((0.0, 0.5, 2.0),
                            [(0.0, 0.0, 0.0, 8.0), (1.0, 0.0, 0.0, 0.0)])
    assert V(0.25) == pytest.approx(8 * 0.25 ** 3)
    assert V(1.0) == 1.0
    assert V(2.0 + 1e-9) == 0.0


def test_vectorized_matches_scalar():
    V = potential.piecewise((0.0, 0.3, 1.0),
                            [(1.0, 2.0, 0.0, 0.0), (0.5, 0.0, -1.0, 0.0)])
    xs = np.linspace(0.0, 1.5, 37)
    vec = V(xs)
    assert vec.shape == xs.shape
    assert np.allclose(vec, [V(float(x)) for x in xs])


def test_negative_argument_rejected():
    V = potential.square()
    with pytest.raises(ValueError):
        V(-0.1)
    with pytest.raises(ValueError):
        V(np.array([0.5, -1.0]))


def test_validation():
    with pytest.raises(ValueError):
        Potential((0.5, 1.0), ((1.0, 0.0, 0.0, 0.0),))     # must start at 0
    with pytest.raises(ValueError):
        Potential((0.0, 1.0, 0.5), ((1.0,) * 4, (1.0,) * 4))  # not increasing
    with pytest.raises(ValueError):
        Potential((0.0, 1.0), ())                          # missing coeffs
    with pytest.raises(ValueError):
        Potential((0.0, 1.0), ((1.0, 2.0),))               # wrong arity


@pytest.mark.parametrize("bp, coeffs, bad", [
    ((0.0, float("nan"), 1.0), ((1.0,) * 4, (1.0,) * 4), "breakpoint nan"),
    ((0.0, float("inf")), ((1.0,) * 4,), "breakpoint inf"),
    ((0.0, 1.0), ((1.0, float("inf"), 0.0, 0.0),), "coefficient inf"),
    ((0.0, 0.5, 1.0), ((1.0,) * 4, (0.0, 0.0, -float("inf"), 0.0)),
     "coefficient -inf"),
    ((0.0, 1.0), ((float("nan"), 0.0, 0.0, 0.0),), "coefficient nan"),
])
def test_non_finite_values_are_rejected(bp, coeffs, bad):
    # JSON specs may hold NaN and Infinity, which json.load parses
    with pytest.raises(ValueError, match=f"^{bad} is not finite$"):
        Potential(bp, coeffs)
    with pytest.raises(ValueError, match=f"^{bad} is not finite$"):
        Potential.from_dict({"kind": "piecewise", "breakpoints": list(bp),
                             "coeffs": [list(c) for c in coeffs]})


@pytest.mark.parametrize("V", [potential.square(), potential.linear(0.3),
                               potential.piecewise((0.0, 0.4, 1.0),
                                                   [(1.0, 0.0, 0.0, 0.0),
                                                    (0.0, 1.0, 0.0, 0.0)])])
def test_json_round_trip(V, tmp_path):
    path = tmp_path / "pot.json"
    V.dump(path)
    W = Potential.load(path)
    assert W.kind == V.kind
    xs = np.linspace(0.0, 1.2, 25)
    assert np.allclose(W(xs), V(xs))


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Potential.from_dict({"kind": "gaussian"})
    # a malformed spec is a ValueError that names the problem, never a
    # KeyError, TypeError or AttributeError
    for spec, problem in [([1, 2], "JSON object, got list"),
                          ({"kind": "linear"}, "lacks 'xi'"),
                          ({"kind": "linear", "xi": None}, "malformed linear"),
                          ({"kind": "piecewise", "coeffs": [[1, 0, 0, 0]]},
                           "lacks 'breakpoints'"),
                          ({"kind": "piecewise", "breakpoints": [0, 1]},
                           "lacks 'coeffs'")]:
        with pytest.raises(ValueError, match=problem):
            Potential.from_dict(spec)


def test_dict_schema_field_names(tmp_path):
    V = potential.piecewise((0.0, 1.0), [(1.0, 0.0, 0.0, 0.0)])
    path = tmp_path / "pot.json"
    V.dump(path)
    spec = json.loads(path.read_text())
    assert set(spec) == {"kind", "breakpoints", "coeffs"}
    assert potential.linear(0.5).to_dict() == {"kind": "linear", "xi": 0.5}
    assert potential.square().to_dict() == {"kind": "square"}


@pytest.mark.parametrize("V", [potential.square(), potential.linear(0.7),
                               potential.piecewise((0.0, 0.3, 0.8, 1.5),
                                                   [(1.0, -2.0, 0.5, 3.0),
                                                    (0.2, 1.0, -4.0, 1.5),
                                                    (-0.7, 0.3, 0.1, -0.05)])])
def test_scalar_branch_bit_identical_to_array_path(V):
    M = V.support_end
    pts = [0.0, M, np.nextafter(M, np.inf)]
    for b in V.breakpoints:
        pts += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
    pts += list(np.random.default_rng(5).uniform(0.0, M, 50))
    pts = np.array([p for p in pts if p >= 0.0])
    ref = V(pts)
    for x, want in zip(pts, ref):
        for arg in (float(x), np.float64(x)):
            got = V(arg)
            assert type(got) is float
            assert got == want


def test_scalar_branch_domain_and_special_values():
    V = potential.linear(0.7)
    with pytest.raises(ValueError):
        V(-0.1)
    with pytest.raises(ValueError):
        V(np.float64(-0.1))
    assert np.isnan(V(float("nan")))
    assert V(np.inf) == 0.0


def test_array_path_infinite_entry_is_silent():
    V = potential.linear(0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = V(np.array([0.5, np.inf]))
    assert out.tolist() == [V(0.5), 0.0]
