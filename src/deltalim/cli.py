"""Command-line front end.

Subcommands: resonances, alpha, kernel, converge, airy-table, classify3d,
scan-xi.  All numeric output is printed with 15 significant digits; tabular
output is CSV (readable back via read_table).  Exit codes: 0 success,
1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import airy, potential, radial3d, resolvent, resonance
from .errors import DeltaLimError
from .potential import Potential
from .resonance import ScalingLaw

__all__ = ["main", "run", "read_table"]

FMT = "%.15g"


def _fmt(v) -> str:
    return FMT % float(v)


def _parse_potential(text: str) -> Potential:
    if text == "square":
        return potential.square()
    if text.startswith("linear:"):
        return potential.linear(float(text.split(":", 1)[1]))
    return Potential.load(text)


def _parse_z(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"z must be given as 're,im', got {text!r}")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be given as 'lo:hi', got {text!r}")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _table(header: list[str], rows: list[list],
           output: str | None) -> None:
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row)
              for row in rows]
    _emit(lines, output)


def _cell(tok: str):
    try:
        return float(tok)
    except ValueError:
        return tok


def read_table(path) -> tuple[list[str], list[list]]:
    """Read back a CSV emitted by this CLI: (header, rows); numeric cells
    come back as floats, labels (e.g. reference_kind) as strings."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[_cell(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _cmd_resonances(args) -> None:
    V = _parse_potential(args.potential)
    hits = resonance.find_resonances(V, args.theta_range, max_hits=args.max,
                                     root_tol=args.root_tol,
                                     grid_cells=args.grid_cells)
    rows = [[h.theta, h.residual, h.psi_at_M, h.integral_I, h.dG_dtheta,
             resonance.robin_alpha(V, h, 1.0)] for h in hits]
    _table(["theta", "residual", "psi_M", "integral_I", "dG_dtheta",
            "alpha_per_omega"], rows, args.output)


def _cmd_alpha(args) -> None:
    V = _parse_potential(args.potential)
    hit = resonance.resonance_membership(V, args.theta, args.tol)
    if hit is None:
        raise DeltaLimError(
            f"theta = {_fmt(args.theta)} is not resonant within "
            f"tol = {_fmt(args.tol)}; the limit is Dirichlet")
    _emit([_fmt(resonance.robin_alpha(V, hit, args.omega))], args.output)


def _cmd_kernel(args) -> None:
    V = _parse_potential(args.potential)
    xs, ys = args.x, args.y
    if len(xs) != len(ys):
        raise DeltaLimError("need the same number of --x and --y values")
    kern = resolvent.kernel_scaled(V, args.lam, args.eps, args.z, args.tol)
    rows = []
    for x, y in zip(xs, ys):
        g = kern(x, y)
        rows.append([x, y, g.real, g.imag])
    _table(["x", "y", "ReG", "ImG"], rows, args.output)


def _cmd_converge(args) -> None:
    V = _parse_potential(args.potential)
    law = ScalingLaw(theta=args.theta, omega=args.omega,
                     remainder_exponent=args.remainder)
    a, b = args.f_window

    def f(y):
        return ((y >= a) & (y <= b)).astype(float)

    xs = np.linspace(args.x_range[0], args.x_range[1], args.x_count)
    rows = resolvent.convergence_study(V, law, args.z, f, args.eps, xs,
                                       f_breakpoints=(a, b),
                                       y_max=b + 0.5)
    _table(["epsilon", "lambda", "error_L2", "alpha_estimate",
            "reference_kind"],
           [[r.epsilon, r.lam, r.error_L2, r.alpha_estimate,
             r.reference_kind] for r in rows],
           args.output)


def _cmd_airy_table(args) -> None:
    xs = np.linspace(args.x_range[0], args.x_range[1], args.count)
    tab = airy.airy_table(xs)
    rows = [[x, *vals] for x, vals in zip(xs, tab)]
    _table(["x", "Ai", "dAi", "Bi", "dBi"], rows, args.output)


def _cmd_classify3d(args) -> None:
    V = _parse_potential(args.potential)
    case = radial3d.classify_3d(V, args.theta, args.omega, args.tol)
    lines = [f"verdict: {case.verdict}",
             "alpha_per_omega: " + ("inf" if math.isinf(case.alpha_per_omega)
                                    else _fmt(case.alpha_per_omega))]
    _emit(lines, args.output)
    if args.profile_out is not None:
        if case.verdict != "resonant":
            raise DeltaLimError("no profile for a nonresonant coupling")
        _table(["r", "Psi"],
               [[r, p] for r, p in zip(case.profile_r, case.profile_Psi)],
               args.profile_out)


def _cmd_scan_xi(args) -> None:
    rows = []
    for xi in args.xi:
        roots = airy.find_linear_resonances(xi, args.theta_range,
                                            max_hits=args.max)
        V = potential.linear(xi)
        for th in roots:
            hit = resonance.resonance_membership(V, th, 1e-8)
            th_ode = hit.theta if hit is not None else math.nan
            disc = abs(th - th_ode) if hit is not None else math.inf
            rows.append([xi, th, th_ode, disc,
                         airy.alpha_linear(xi, th, 1.0)])
    _table(["xi", "theta_airy", "theta_ode", "discrepancy",
            "alpha_per_omega"], rows, args.output)


def _nonreal(z: complex, parser: argparse.ArgumentParser) -> complex:
    if z.imag == 0.0:
        parser.error("z must have a nonzero imaginary part")
    return z


# let values like "-120:-0.1" or "-2,-3" pass as arguments, not flags
_NEGATIVE_VALUE = re.compile(r"^-\d[\d.:,eE+-]*$")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="deltalim")
    p._negative_number_matcher = _NEGATIVE_VALUE
    sub = p.add_subparsers(dest="command", required=True)

    def add_potential(sp):
        sp.add_argument("--potential", required=True,
                        help="'square', 'linear:XI', or a JSON file path")

    def add_output(sp):
        sp.add_argument("--output", "-o", default=None,
                        help="write to file instead of stdout")

    sp = sub.add_parser("resonances", help="scan for resonant couplings")
    add_potential(sp)
    sp.add_argument("--theta-range", type=_parse_range, required=True)
    sp.add_argument("--max", type=int, default=None)
    sp.add_argument("--root-tol", type=float, default=1e-10)
    sp.add_argument("--grid-cells", type=int, default=400)
    add_output(sp)

    sp = sub.add_parser("alpha", help="Robin parameter at a resonance")
    add_potential(sp)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    add_output(sp)

    sp = sub.add_parser("kernel", help="evaluate the scaled resolvent kernel")
    add_potential(sp)
    sp.add_argument("--lam", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--z", type=_parse_z, required=True, help="'re,im'")
    sp.add_argument("--x", type=_parse_floats, required=True)
    sp.add_argument("--y", type=_parse_floats, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    add_output(sp)

    sp = sub.add_parser("converge", help="epsilon-convergence study")
    add_potential(sp)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--remainder", type=float, default=None,
                    help="sub-critical remainder exponent in (1,2)")
    sp.add_argument("--z", type=_parse_z, required=True, help="'re,im'")
    sp.add_argument("--eps", type=_parse_floats, required=True)
    sp.add_argument("--f-window", type=_parse_floats, default=[1.0, 2.0],
                    help="indicator test function support 'a,b'")
    sp.add_argument("--x-range", type=_parse_range, default=(0.1, 5.0))
    sp.add_argument("--x-count", type=int, default=50)
    add_output(sp)

    sp = sub.add_parser("airy-table", help="tabulate Ai, Ai', Bi, Bi'")
    sp.add_argument("--x-range", type=_parse_range, required=True)
    sp.add_argument("--count", type=int, default=101)
    add_output(sp)

    sp = sub.add_parser("classify3d", help="3D radial dichotomy")
    add_potential(sp)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--profile-out", default=None,
                    help="write the resonance profile CSV here")
    add_output(sp)

    sp = sub.add_parser("scan-xi", help="dual-path scan of the linear family")
    sp.add_argument("--xi", type=_parse_floats, required=True)
    sp.add_argument("--theta-range", type=_parse_range, required=True)
    sp.add_argument("--max", type=int, default=2)
    add_output(sp)

    for child in sub.choices.values():
        child._negative_number_matcher = _NEGATIVE_VALUE
    return p


_HANDLERS = {
    "resonances": _cmd_resonances,
    "alpha": _cmd_alpha,
    "kernel": _cmd_kernel,
    "converge": _cmd_converge,
    "airy-table": _cmd_airy_table,
    "classify3d": _cmd_classify3d,
    "scan-xi": _cmd_scan_xi,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("kernel", "converge"):
        args.z = _nonreal(args.z, parser)
    if args.command == "converge":
        eps = args.eps
        if any(e <= 0 for e in eps) or any(a <= b for a, b
                                           in zip(eps, eps[1:])):
            parser.error("--eps must be positive and strictly decreasing")
    try:
        _HANDLERS[args.command](args)
    except (DeltaLimError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
