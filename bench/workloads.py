"""The three workloads: seeded task generators, the call each task makes
into the public deltalim API, and the check of its output.

Task ``i`` of a workload fills slot ``i`` of a fixed cycle of slots with
values drawn from ``default_rng([seed, i])`` (the three dualpath tasks of one
case share theirs).  A slot fixes what its task costs (potential kind,
resonance index, grid sizes) and the seed draws the values inside it, so
every seed gives the same mix and a run of any length repeats it.

A check returns ``"ok"`` or a failure class; any failure means the program
raised or gave a wrong answer.  ``defect_probes`` holds the two known
certification defects of the baseline, which no workload task hits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import deltalim
from deltalim import airy, potential
from deltalim.resonance import ScalingLaw

import oracles


@dataclass
class Task:
    workload: str
    index: int
    params: dict
    call: object = field(repr=False)      # () -> output, the timed part
    check: object = field(repr=False)     # output -> "ok" | failure class
    missing_roots: int = 0                # set by a scan check


class Indicator:
    """f(y) = 1 on [a, b], 0 elsewhere."""

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def __call__(self, y):
        y = np.asarray(y)
        return ((y >= self.a) & (y <= self.b)).astype(float)


def _potential(kind: str, rng, pieces: int = 2):
    """(Potential, breakpoints, coeffs, xi) of the given kind."""
    if kind == "square":
        return potential.square(), (0.0, 1.0), ((1.0, 0.0, 0.0, 0.0),), None
    if kind == "linear":
        xi = float(rng.uniform(0.1, 1.2))
        return potential.linear(xi), (0.0, 1.0), ((1.0, -xi, 0.0, 0.0),), xi
    return _random_piecewise(rng, pieces) + (None,)


def _random_piecewise(rng, pieces: int):
    """A positive piecewise polynomial of degree <= 2 on [0, M]."""
    M = float(rng.uniform(0.9, 1.1))
    inner = (np.arange(1, pieces) + rng.uniform(-0.15, 0.15, pieces - 1)) * M / pieces
    bp = (0.0, *map(float, inner), M)
    while True:
        coeffs = []
        for lo, hi in zip(bp[:-1], bp[1:]):
            a, b, c = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)
            m = 0.5 * (lo + hi)       # a + b (x - m) + c (x - m)^2 in global x
            coeffs.append((a - b * m + c * m * m, b - 2 * c * m, c, 0.0))
        x = np.linspace(0.0, M, 401)
        if np.min(oracles.poly_value(bp, coeffs, x)) >= 0.2:
            break
    coeffs = tuple(tuple(float(v) for v in row) for row in coeffs)
    return potential.piecewise(bp, coeffs), bp, coeffs


# ---------------------------------------------------------------------------
# scan: one find_resonances call over a seeded window
# ---------------------------------------------------------------------------

# A cycle of 15 scans, as (potential kind, resonance index k, window).
# "one" (11 slots): a window around resonance k (counted from 0); certifying
# it takes almost all of the task's time.  k is fixed per kind so that most
# of these tasks cost about the same -- a shooting solve restarts on every
# piece, so a two-piece potential at k = 0 costs about twice a square well at
# k = 3 -- and one square-well window reaches resonance 14, near -2075.
# "none" (4 slots): a window between resonances k and k + 1, one stacked
# grid pass.
# Every scan asks for its roots to SCAN_ROOT_TOL, the accuracy its check
# holds them to.  With the default root_tol the baseline rejects correct
# roots at random (its residual gate is absolute, below the solver's floor
# from |theta| ~ 100 on); that defect, and the roots lost when two share a
# grid cell, are measured by DEFECT_PROBES instead of failing tasks here.
_SQ, _LIN, _PW = ("square", 3, "one"), ("linear", 2, "one"), ("piecewise", 0, "one")
SCAN_STRATA = (
    _SQ, _LIN, _PW, ("square", 0, "none"), _SQ, _LIN, ("linear", 9, "none"),
    ("square", 14, "one"), _LIN, _SQ, ("piecewise", 4, "none"), _PW, _LIN,
    _SQ, ("piecewise", 11, "none"),
)
ROOT_RTOL = 1e-8            # position of a returned resonance, relative
SCAN_ROOT_TOL = ROOT_RTOL   # the root_tol every scan task asks for
IDENTITY_RTOL = 1e-8        # theta int V psi^2 + int psi'^2 = 0
PHASE_TOL = 1e-6            # Pruefer angle offset at a returned resonance


def _phases(kind, xi, S, k):
    """WKB phases sqrt(|theta|) S of resonances k and k + 1.  They are exact
    for the square well and within 0.12 pi for the piecewise potentials
    here; for the linear family (whose turning point shifts them by up to
    pi/4) they come from the Airy roots."""
    if kind != "linear":
        return math.pi * (k + 0.5), math.pi * (k + 1.5)
    deepest = -((math.pi * (k + 3)) / S) ** 2
    phases = sorted(math.sqrt(-t) * S for t in oracles.linear_roots(xi, deepest, -0.05))
    return phases[k], phases[k + 1]


def scan_task(seed: int, i: int) -> Task:
    rng = np.random.default_rng([seed, i])
    kind, k, shape = SCAN_STRATA[i % len(SCAN_STRATA)]
    # three pieces only where a window costs one grid pass
    V, bp, coeffs, xi = _potential(kind, rng, pieces=2 if shape == "one" else 3)
    S = oracles.wkb_action(bp, coeffs)
    here, after = _phases(kind, xi, S, k)
    gap = after - here
    if shape == "one":
        low = here - rng.uniform(0.3, 0.45) * gap
        high = here + rng.uniform(0.3, 0.45) * gap
    else:
        low = here + rng.uniform(0.22, 0.35) * gap
        high = after - rng.uniform(0.22, 0.35) * gap
    lo, hi = -(high / S) ** 2, -(low / S) ** 2
    return _scan(i, V, kind, xi, bp, coeffs, (lo, hi), root_tol=SCAN_ROOT_TOL)


def _scan(i, V, kind, xi, bp, coeffs, window, **options) -> Task:
    params = dict(kind=kind, xi=xi, breakpoints=bp, coeffs=coeffs,
                  window=window, options=options)
    task = Task("scan", i, params, None, None)

    def call():
        return deltalim.find_resonances(V, window, **options)

    task.call = call
    task.check = lambda hits: _check_scan(task, hits)
    return task


# The baseline's two certification defects (ROADMAP item 3), each on fixed
# inputs with the library's default root_tol.  The traced run makes both
# scans and reports how many still fail; a fix moves these to 0.
#   bracket: the square-well resonance near -2075, which the baseline
#     rejects as BracketScanTooCoarse although it is a correct root (on
#     this window; whether it does depends on the bisection path).
#   coarse: a 4-cell grid over (-140, -0.5), where -2.47 and -22.2 share a
#     cell and are silently lost.
def defect_probes() -> dict[str, Task]:
    sq = potential.square()
    square = ((0.0, 1.0), ((1.0, 0.0, 0.0, 0.0),))
    return {"bracket": _scan(0, sq, "square", None, *square, (-2200.0, -1960.0)),
            "coarse": _scan(1, sq, "square", None, *square, (-140.0, -0.5),
                            grid_cells=4)}


def _check_scan(task: Task, hits) -> str:
    p = task.params
    lo, hi = p["window"]
    if any(not lo <= h.theta <= hi for h in hits):
        return "wrong_root"
    thetas = sorted(h.theta for h in hits)
    if p["kind"] == "piecewise":
        for h in hits:
            if abs(h.theta * h.integral_I + h.dpsi_sq_integral) \
                    > IDENTITY_RTOL * h.dpsi_sq_integral:
                return "identity"
        expected = oracles.prufer_count(p["breakpoints"], p["coeffs"], lo, hi)
        for t in thetas:
            if oracles.prufer_offset(p["breakpoints"], p["coeffs"], t) > PHASE_TOL:
                return "wrong_root"
        if len(set(thetas)) != len(thetas):
            return "wrong_root"
    else:
        if p["kind"] == "linear":
            ref = oracles.linear_roots(p["xi"], lo, hi)
        else:
            ref = oracles.square_roots(lo, hi)
        unmatched = list(ref)
        for t in thetas:
            near = [r for r in unmatched if abs(t - r) <= ROOT_RTOL * (1 + abs(r))]
            if not near:
                return "wrong_root"
            unmatched.remove(near[0])
        expected = len(ref)
    if len(thetas) > expected:
        return "extra_roots"
    task.missing_roots = expected - len(thetas)
    return "missing_roots" if task.missing_roots else "ok"


# ---------------------------------------------------------------------------
# resolvent: one convergence_study per task
# ---------------------------------------------------------------------------

# (potential kind, schedule, resonance index k, number of eps, number of x
# points).  The sizes make every task cost about the same, so the median and
# the tail never sit on a gap between cost levels.
RESOLVENT_STRATA = (
    ("square", "robin", 0, 5, 80), ("linear", "robin", 1, 5, 50),
    ("square", "dirichlet", 2, 5, 50), ("linear", "remainder", 0, 4, 80),
    ("square", "remainder", 1, 5, 60), ("linear", "dirichlet", 2, 6, 50),
)
MIN_ROBIN_ORDER = 0.8


def _roots_near_zero(kind: str, xi, count: int) -> list[float]:
    """The first ``count`` resonances, closest to 0 first."""
    depth = 50.0
    while True:
        roots = (oracles.square_roots(-depth, -0.05) if kind == "square"
                 else oracles.linear_roots(xi, -depth, -0.05))
        if len(roots) >= count:
            return sorted(roots, reverse=True)[:count]
        depth *= 2.0


def resolvent_task(seed: int, i: int) -> Task:
    rng = np.random.default_rng([seed, i])
    kind, schedule, k, n_eps, n_x = RESOLVENT_STRATA[i % len(RESOLVENT_STRATA)]
    V, _, _, xi = _potential(kind, rng)
    roots = _roots_near_zero(kind, xi, k + 2)
    if schedule == "dirichlet":
        theta = roots[k] + rng.uniform(0.3, 0.7) * (roots[k + 1] - roots[k])
    else:
        theta = roots[k]
    remainder = float(rng.uniform(1.2, 1.6)) if schedule == "remainder" else None
    law = ScalingLaw(float(theta), float(rng.uniform(0.5, 3.0)), remainder)
    z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
    eps = tuple(np.geomspace(rng.uniform(0.05, 0.1), 1e-3, n_eps))
    a = float(rng.uniform(0.8, 1.2))
    b = a + float(rng.uniform(0.8, 1.2))
    xs = np.linspace(0.1, rng.uniform(4.0, 6.0), n_x)
    f = Indicator(a, b)
    expected = "robin" if schedule == "robin" else "dirichlet"
    params = dict(kind=kind, xi=xi, law=law, z=z, eps=eps, f=(a, b), n_x=n_x,
                  expected=expected)

    def call():
        return deltalim.convergence_study(V, law, z, f, eps, xs,
                                          f_breakpoints=(a, b), y_max=b + 0.5)

    def check(rows):
        if len(rows) != len(eps):
            return "row_count"
        if any(r.reference_kind != expected for r in rows):
            return "limit_kind"
        errs = np.array([r.error_L2 for r in rows])
        if not np.all(np.isfinite(errs)) or not np.all(np.diff(errs) < 0):
            return "not_decreasing"
        if expected == "robin" and \
                np.polyfit(np.log(eps), np.log(errs), 1)[0] < MIN_ROBIN_ORDER:
            return "order"
        return "ok"

    return Task("resolvent", i, params, call, check)


# ---------------------------------------------------------------------------
# dualpath: the linear family through the Airy closed forms and the ODE route
# ---------------------------------------------------------------------------

# Each seeded (xi, resonance) is three consecutive tasks on the same inputs:
# the Airy path (scan of the closed-form residual, closed-form alpha), the
# ODE path (local certification, quadrature alpha, eps-extrapolated alpha)
# and the radial 3D verdicts at the resonance and off it.  All three are
# checked against one scipy.special.airy reference, so the two paths agree
# with each other to the sum of their tolerances.
DUALPATH_ROLES = ("airy", "ode", "radial3d")
# (index of the resonance counted from 0, range of xi), one per (xi, resonance)
# Every case keeps the Airy arguments within |x| <= 9, where airy_quad sums
# its series, so the Airy tasks cost about the same and make a third of the
# tasks.  The fourth resonance comes twice, so that more than half of the
# tasks cost 0.8-0.9 s and the median falls among them, not on the gap below.
DUALPATH_CASES = ((0, (0.25, 0.35)), (3, (1.05, 1.15)), (1, (0.65, 0.75)),
                  (2, (0.45, 0.55)), (3, (1.05, 1.15)))
AIRY_GRID_CELLS = 1000
ALPHA_EPS = (1e-2, 1e-3, 1e-4)
MEMBERSHIP_TOL = 1e-8
THETA_TOL = 5e-8            # each path's resonance against the reference
ALPHA_RTOL = 1e-6           # quadrature and 3D alpha against the reference
ESTIMATE_TOL = 1e-6         # estimate_alpha against the reference
SCIPY_RTOL = 1e-8           # closed-form alpha against scipy's Airy functions


def dualpath_task(seed: int, i: int) -> Task:
    group, role = divmod(i, len(DUALPATH_ROLES))
    role = DUALPATH_ROLES[role]
    rng = np.random.default_rng([seed, group])
    k, (xi_lo, xi_hi) = DUALPATH_CASES[group % len(DUALPATH_CASES)]
    xi = float(rng.uniform(xi_lo, xi_hi))
    V = potential.linear(xi)
    roots = _roots_near_zero("linear", xi, k + 2)     # closest to 0 first
    root = roots[k]
    above = roots[k - 1] if k else 0.0
    upper = root + rng.uniform(0.25, 0.45) * (above - root)
    lower = root - rng.uniform(0.25, 0.45) * (root - roots[k + 1])
    if rng.uniform() < 0.5:
        detuned = root + rng.uniform(0.2, 0.35) * (above - root)
    else:
        detuned = root - rng.uniform(0.2, 0.35) * (root - roots[k + 1])
    omega = float(rng.uniform(0.5, 3.0))
    alpha = oracles.linear_alpha(xi, root, omega)
    params = dict(role=role, xi=xi, window=(lower, upper), root=root,
                  detuned=detuned, omega=omega)

    if role == "airy":
        def call():
            return [(r, airy.alpha_linear(xi, r, omega))
                    for r in airy.find_linear_resonances(
                        xi, (lower, upper), grid_cells=AIRY_GRID_CELLS)]

        def check(out):
            if len(out) != 1:
                return "root_count"
            r, closed = out[0]
            if abs(r - root) > THETA_TOL:
                return "airy_root"
            if abs(closed - alpha) > SCIPY_RTOL * abs(alpha):
                return "airy_alpha"
            return "ok"
    elif role == "ode":
        def call():
            hit = deltalim.resonance.resonance_membership(V, root, tol=MEMBERSHIP_TOL)
            quad = deltalim.robin_alpha(V, hit, omega) if hit is not None else None
            return hit, quad, deltalim.estimate_alpha(V, root, omega, ALPHA_EPS)

        def check(out):
            hit, quad, est = out
            if hit is None or abs(hit.theta - root) > THETA_TOL:
                return "ode_root"
            if abs(quad - alpha) > ALPHA_RTOL * abs(alpha):
                return "alpha_quadrature"
            if abs(est.extrapolated - alpha) > ESTIMATE_TOL * max(1.0, abs(alpha)):
                return "alpha_estimate"
            return "ok"
    else:
        def call():
            return (deltalim.classify_3d(V, root, omega),
                    deltalim.classify_3d(V, detuned, omega))

        def check(out):
            at_root, off_root = out
            if at_root.verdict != "resonant" or off_root.verdict != "nonresonant":
                return "verdict_3d"
            if abs(at_root.alpha - alpha) > ALPHA_RTOL * abs(alpha):
                return "alpha_3d"
            return "ok"

    return Task("dualpath", i, params, call, check)


# ---------------------------------------------------------------------------

MAKERS = {"scan": scan_task, "resolvent": resolvent_task, "dualpath": dualpath_task}
# tasks in one cycle of each workload's strata
CYCLE = {"scan": len(SCAN_STRATA), "resolvent": len(RESOLVENT_STRATA),
         "dualpath": len(DUALPATH_CASES) * len(DUALPATH_ROLES)}


def warm_up(workload: str) -> None:
    """One small untimed call that fills the lazy caches the workload uses
    (Gauss-Legendre rules, Airy asymptotic coefficients)."""
    if workload == "scan":
        deltalim.find_resonances(potential.square(), (-5.0, -0.5))
    elif workload == "resolvent":
        deltalim.convergence_study(
            potential.square(), ScalingLaw(-math.pi ** 2 / 4, 1.0), 1j,
            Indicator(1.0, 2.0), (0.1, 0.03, 0.01), np.linspace(0.1, 3.0, 8),
            f_breakpoints=(1.0, 2.0), y_max=2.5)
    else:
        airy.airy_quad(-10.0)
        airy.airy_quad(10.0)
        root = airy.find_linear_resonances(0.5, (-6.0, -1.0), grid_cells=20)[0]
        deltalim.classify_3d(potential.linear(0.5), root, 1.0)
