"""Self-tests of the benchmark harness: python -m pytest bench/test_bench.py"""
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SQUARE = ((0.0, 1.0), ((1.0, 0.0, 0.0, 0.0),))


# -- percentile rule ---------------------------------------------------------

def test_tail_is_the_70th_percentile():
    stats = run.latency_stats([float(i) for i in range(40)], [True] * 40)
    assert stats["tail"] == 27.0 and stats["tail_beyond"] == 12
    assert stats["p50"] == 19.5
    stats = run.latency_stats([float(i) for i in range(200)], [True] * 200)
    assert stats["tail"] == 139.0 and stats["tail_beyond"] == 60


def test_failures_count_as_infinite_latency():
    times = [float(i) for i in range(40)]
    ok = [True] * 40
    ok[0] = ok[1] = False               # the two fastest tasks failed
    stats = run.latency_stats(times, ok)
    assert stats["tail"] == 29.0        # 30..39 and two +inf lie beyond it
    assert stats["p50"] == 21.5         # not 19.5: failures never read as speed
    ok = [False] * 13 + [True] * 27
    assert math.isinf(run.latency_stats(times, ok)["tail"])
    assert run._finite(math.inf) == run.INF_SECONDS


def test_three_tasks_report_the_largest():
    stats = run.latency_stats([3.0, 1.0, 2.0], [True] * 3)
    assert stats["tail"] == 3.0 and stats["tail_beyond"] == 0


# -- failure accounting --------------------------------------------------------

def test_probes_count_failures_and_lost_roots(monkeypatch):
    def probe(exact, found, error=None):
        def call():
            if error:
                raise error
            return _hits(exact[:found])
        task = _square_scan(-140.0, -0.5)
        task.call = call
        task.check = lambda hits: workloads._check_scan(task, hits)
        return task

    exact = oracles.square_roots(-140.0, -0.5)
    probes = {"raises": probe(exact, 0, RuntimeError("x")),
              "loses": probe(exact, 2), "fine": probe(exact, 4)}
    monkeypatch.setattr(workloads, "defect_probes", lambda: probes)
    assert run.probe_defects() == {"resonance.probes_failed": 2,
                                   "resonance.probe_roots_lost": 2}


def _hits(thetas):
    # a hit that satisfies the identity theta I + int psi'^2 = 0
    return [SimpleNamespace(theta=t, integral_I=1.0, dpsi_sq_integral=-t)
            for t in thetas]


def _square_scan(lo, hi):
    params = dict(kind="square", xi=None, breakpoints=SQUARE[0], coeffs=SQUARE[1],
                  window=(lo, hi), options={})
    return workloads.Task("scan", 0, params, None, None)


def test_scan_check_classifies_missing_and_wrong_roots():
    exact = oracles.square_roots(-140.0, -0.5)
    assert len(exact) == 4
    task = _square_scan(-140.0, -0.5)
    assert workloads._check_scan(task, _hits(exact)) == "ok"
    assert workloads._check_scan(task, _hits(exact[:2])) == "missing_roots"
    assert task.missing_roots == 2
    assert workloads._check_scan(task, _hits(exact[:3] + [-50.0])) == "wrong_root"
    # a root returned twice matches no second reference root
    assert workloads._check_scan(task, _hits(exact + [exact[0]])) == "wrong_root"


def test_every_workload_counts_a_raised_error_as_failed():
    task = workloads.scan_task(0, 0)
    assert run.outcome(task, ValueError("boom")) == "ValueError"


# -- oracles -------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi", [(-500.0, -0.5), (-2e4, -0.1), (-30.0, -20.0),
                                    (-20.0, -3.0)])
def test_prufer_count_matches_square_well_closed_form(lo, hi):
    assert oracles.prufer_count(*SQUARE, lo, hi) == len(oracles.square_roots(lo, hi))


def test_prufer_offset_vanishes_only_at_resonances():
    root = -(math.pi * 3.5) ** 2
    assert oracles.prufer_offset(*SQUARE, root) < 1e-9
    assert oracles.prufer_offset(*SQUARE, root * 1.05) > 0.1


def test_prufer_count_on_a_two_piece_well():
    # V = 4 on [0, 1/2], 1 on [1/2, 1]: psi'(1) in closed form by matching
    # sines and cosines at 1/2; count its sign changes on a fine grid
    bp, co = (0.0, 0.5, 1.0), ((4.0, 0, 0, 0), (1.0, 0, 0, 0))

    def slope(theta):
        k1, k2 = 2.0 * math.sqrt(-theta), math.sqrt(-theta)
        psi, dpsi = math.sin(0.5 * k1) / k1, math.cos(0.5 * k1)
        return -psi * k2 * math.sin(0.5 * k2) + dpsi * math.cos(0.5 * k2)

    grid = [-0.5 - 0.01 * i for i in range(30000)]
    changes = sum(slope(a) * slope(b) < 0 for a, b in zip(grid, grid[1:]))
    assert oracles.prufer_count(bp, co, grid[-1], grid[0]) == changes == 8


def test_linear_oracle_agrees_with_square_well_limit():
    roots = oracles.linear_roots(1e-4, -100.0, -0.5)
    exact = oracles.square_roots(-100.0, -0.5)
    assert len(roots) == len(exact)
    assert all(abs(a - b) < 1e-2 for a, b in zip(roots, exact))


# -- generators ----------------------------------------------------------------

def test_inputs_depend_only_on_seed_and_index():
    for make in workloads.MAKERS.values():
        assert make(7, 3).params.keys() == make(7, 3).params.keys()
        assert repr(make(7, 3).params) == repr(make(7, 3).params)
        assert repr(make(7, 3).params) != repr(make(8, 3).params)


def test_scan_windows_hold_the_planned_number_of_resonances():
    for i, (kind, _, shape) in enumerate(workloads.SCAN_STRATA):
        p = workloads.scan_task(5, i).params
        lo, hi = p["window"]
        if kind == "piecewise":
            count = oracles.prufer_count(p["breakpoints"], p["coeffs"], lo, hi)
        elif kind == "linear":
            count = len(oracles.linear_roots(p["xi"], lo, hi))
        else:
            count = len(oracles.square_roots(lo, hi))
        assert count == {"one": 1, "none": 0}[shape], (i, kind, shape)
    lows = [workloads.scan_task(5, i).params["window"][0]
            for i in range(len(workloads.SCAN_STRATA))]
    assert min(lows) < -2000


def test_defect_probe_windows():
    probes = workloads.defect_probes()
    assert len(oracles.square_roots(*probes["bracket"].params["window"])) == 1
    # four resonances, two of them in the last of four grid cells
    lo, hi = probes["coarse"].params["window"]
    roots = oracles.square_roots(lo, hi)
    cells = probes["coarse"].params["options"]["grid_cells"]
    edge = hi - (hi - lo) / cells
    assert len(roots) == 4 and sum(r > edge for r in roots) == 2


# -- tracer --------------------------------------------------------------------

def test_tracer_counts_at_boundaries_and_restores_bindings():
    import deltalim
    from deltalim import ode, potential, resonance

    before = (resonance.solve_psi, ode.solve_ivp, deltalim.find_resonances,
              potential.Potential.__call__)
    tracer = Tracer()
    tracer.install()
    try:
        resonance.shoot_residual(potential.square(), -3.0)
    finally:
        tracer.uninstall()
    assert (resonance.solve_psi, ode.solve_ivp, deltalim.find_resonances,
            potential.Potential.__call__) == before
    m = tracer.layer_metrics()
    assert m["ode.solves"] == 1 and m["resonance.shoots"] == 1
    assert m["potential.calls"] == m["ode.rhs_evals"] > 0
    assert m["airy.quad_calls"] == 0 and m["resolvent.kernels"] == 0
    assert m["ode.self_s"] > 0 and m["potential.self_s"] > 0


def test_tracer_counts_repeat_exactly():
    def counts():
        tracer = Tracer()
        tasks = [workloads.scan_task(2, i) for i in (3, 6, 10)]  # cheap windows
        tracer.install()
        try:
            run.run_tasks(tasks, tracer)
        finally:
            tracer.uninstall()
        return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith("_s")}

    assert counts() == counts()
