import numpy as np
import pytest

from deltalim import quadrature
from deltalim.errors import QuadratureFailure


def _weighted_sum(f, a, b, breakpoints=(), n=16, max_panel=None):
    nodes, weights = quadrature.gauss_nodes(
        quadrature.panel_edges(a, b, breakpoints, max_panel), n)
    return np.sum(weights * np.asarray(f(nodes)))


def test_polynomial_exactness():
    # n-point Gauss-Legendre is exact to degree 2n-1
    val = _weighted_sum(lambda x: x ** 7 - 3 * x ** 2 + 1, 0.0, 2.0, n=4)
    exact = 2.0 ** 8 / 8 - 2.0 ** 3 + 2.0
    assert val == pytest.approx(exact, rel=1e-14)


def test_breakpoint_split_handles_jump():
    f = lambda x: np.where(x < 1.0, 1.0, 3.0)
    val = _weighted_sum(f, 0.0, 2.0, breakpoints=(1.0,), n=8)
    assert val == pytest.approx(4.0, rel=1e-14)


def test_max_panel_subdivision():
    val = _weighted_sum(np.sin, 0.0, 20.0, n=8, max_panel=0.5)
    assert val == pytest.approx(1.0 - np.cos(20.0), rel=1e-12)


def test_empty_interval():
    assert _weighted_sum(np.exp, 1.0, 1.0) == 0.0


def test_budget_exceeded():
    with pytest.raises(QuadratureFailure):
        quadrature.gauss_nodes(quadrature.panel_edges(0.0, 100.0,
                                                      max_panel=1e-4),
                               n=16, panel_budget=1000)


def test_nodes_respect_interior_breakpoints_only():
    nodes, weights = quadrature.gauss_nodes(
        quadrature.panel_edges(0.0, 1.0, breakpoints=(0.5, 7.0)), n=4)
    assert nodes.size == 8          # 7.0 lies outside and is ignored
    assert weights.sum() == pytest.approx(1.0)


def test_edges_hold_every_cut_exactly():
    cuts = (0.1, 1 / 3, 2.0000000001, 5.0, -1.0)
    edges = quadrature.panel_edges(0.0, 2.5, cuts, max_panel=0.4)
    assert edges[0] == 0.0 and edges[-1] == 2.5
    assert np.all(np.diff(edges) > 0) and np.all(np.diff(edges) <= 0.4)
    assert set(cuts[:3]) <= set(edges.tolist())
    assert quadrature.panel_edges(1.0, 1.0).size == 0


def test_nodes_grouped_by_panel():
    edges = quadrature.panel_edges(0.0, 3.0, (0.25, 1.0), max_panel=0.5)
    nodes, weights = quadrature.gauss_nodes(edges, n=5)
    rows, w = nodes.reshape(-1, 5), weights.reshape(-1, 5)
    assert np.all(rows.min(axis=1) > edges[:-1])
    assert np.all(rows.max(axis=1) < edges[1:])
    assert np.allclose(w.sum(axis=1), np.diff(edges), rtol=1e-14, atol=0.0)
    with pytest.raises(QuadratureFailure):
        quadrature.gauss_nodes(edges, n=5, panel_budget=5 * edges.size - 6)


def _edges_by_linspace(a, b, breakpoints=(), max_panel=None):
    """The per-cut np.linspace loop that panel_edges vectorizes."""
    if b <= a:
        return np.empty(0)
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    edges = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        parts = 1 if max_panel is None else max(1, int(np.ceil((hi - lo) / max_panel)))
        edges.extend(np.linspace(lo, hi, parts + 1)[:-1])
    edges.append(b)
    return np.array(edges)


def test_edges_equal_the_linspace_loop():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.uniform(-5.0, 5.0, 2) * 10.0 ** rng.integers(-3, 3)
        cuts = list(rng.uniform(min(a, b) - 1.0, max(a, b) + 1.0,
                                rng.integers(0, 10)))
        if rng.random() < 0.3:       # cuts on a and b, and a duplicate
            cuts += [a, b, cuts[0] if cuts else a]
        max_panel = (None if rng.random() < 0.2
                     else abs(b - a) * 10.0 ** rng.uniform(-3.0, 0.5))
        got = quadrature.panel_edges(
            a, b, np.array(cuts) if rng.random() < 0.5 else cuts, max_panel)
        want = _edges_by_linspace(a, b, cuts, max_panel)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("max_panel", [0.0, -1.0, float("nan")])
def test_edges_reject_a_nonpositive_max_panel(max_panel):
    with pytest.raises(ValueError, match="max_panel"):
        quadrature.panel_edges(0.0, 1.0, (0.5,), max_panel)
