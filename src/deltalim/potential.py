"""Compactly supported potentials on the half-line.

A potential is piecewise polynomial (degree <= 3) on [0, M] and identically
zero beyond M.  Breakpoints are exposed so that integrators and quadrature
rules never straddle a kink or jump.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Potential", "square", "linear", "piecewise", "zero"]


@dataclass(frozen=True)
class Potential:
    """Piecewise-polynomial potential with support in [0, M].

    ``breakpoints`` are strictly increasing, starting at 0 and ending at M.
    ``coeffs[i]`` holds (c0, c1, c2, c3) of the polynomial, in the global
    coordinate x, valid on [breakpoints[i], breakpoints[i+1]).
    """

    breakpoints: tuple[float, ...]
    coeffs: tuple[tuple[float, float, float, float], ...]
    kind: str = "piecewise"
    xi: float | None = field(default=None)

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.coeffs) != bp.size - 1:
            raise ValueError("need one coefficient row per interval")
        if any(len(c) != 4 for c in self.coeffs):
            raise ValueError("each piece takes exactly 4 coefficients")
        for name, values in (("breakpoint", bp),
                             ("coefficient", np.ravel(self.coeffs))):
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValueError(f"{name} {bad[0]} is not finite")

    @property
    def support_end(self) -> float:
        return self.breakpoints[-1]

    def __call__(self, x):
        """Evaluate V(x).  Exactly 0 for x > M; x < 0 is out of domain.

        A float x (np.float64 included, as the ODE right-hand sides pass it)
        takes a pure-Python Horner branch that is bit-identical to the array
        path: the same piece choice, the same IEEE operations in the same
        order, the same support rule and NaN propagation.
        """
        if isinstance(x, float):
            x = float(x)
            if x < 0:
                raise ValueError("potential is defined on the positive half-line")
            if x > self.breakpoints[-1]:
                return 0.0
            # x >= 0 = breakpoints[0], so the index is never below 0
            i = min(bisect_right(self.breakpoints, x) - 1, len(self.coeffs) - 1)
            c0, c1, c2, c3 = self.coeffs[i]
            return c0 + x * (c1 + x * (c2 + x * c3))
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise ValueError("potential is defined on the positive half-line")
        bp = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(self.coeffs) - 1)
        c = np.asarray(self.coeffs)[idx]
        outside = xs > self.support_end
        xs = np.where(outside, 0.0, xs)   # so that x = inf forms no inf*0
        out = c[..., 0] + xs * (c[..., 1] + xs * (c[..., 2] + xs * c[..., 3]))
        out = np.where(outside, 0.0, out)
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out

    def to_dict(self) -> dict:
        if self.kind == "square":
            return {"kind": "square"}
        if self.kind == "linear":
            return {"kind": "linear", "xi": self.xi}
        return {
            "kind": "piecewise",
            "breakpoints": list(self.breakpoints),
            "coeffs": [list(c) for c in self.coeffs],
        }

    @staticmethod
    def from_dict(spec: dict) -> "Potential":
        """The potential a ``to_dict`` spec describes; ValueError if not."""
        if not isinstance(spec, dict):
            raise ValueError("potential spec must be a JSON object, got "
                             f"{type(spec).__name__}")
        kind = spec.get("kind")
        try:
            if kind == "square":
                return square()
            if kind == "linear":
                return linear(float(spec["xi"]))
            if kind == "piecewise":
                return piecewise(spec["breakpoints"], spec["coeffs"])
        except KeyError as exc:
            raise ValueError(f"{kind} potential spec lacks {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed {kind} potential spec: {exc}") from None
        raise ValueError(f"unknown potential kind: {kind!r}")

    @staticmethod
    def load(path) -> "Potential":
        with open(path, "r", encoding="utf-8") as fh:
            return Potential.from_dict(json.load(fh))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def square() -> Potential:
    """V(x) = 1 on [0, 1]."""
    return Potential((0.0, 1.0), ((1.0, 0.0, 0.0, 0.0),), kind="square")


def linear(xi: float) -> Potential:
    """V(x) = 1 - xi*x on [0, 1]."""
    return Potential((0.0, 1.0), ((1.0, -float(xi), 0.0, 0.0),), kind="linear", xi=float(xi))


def piecewise(breakpoints, coeffs) -> Potential:
    bp = tuple(float(b) for b in breakpoints)
    cs = tuple(tuple(float(v) for v in row) for row in coeffs)
    return Potential(bp, cs, kind="piecewise")


def zero(support_end: float = 1.0) -> Potential:
    """The identically-zero potential (support tag [0, support_end])."""
    return Potential((0.0, float(support_end)), ((0.0, 0.0, 0.0, 0.0),))
