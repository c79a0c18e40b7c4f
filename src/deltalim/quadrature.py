"""Composite Gauss-Legendre quadrature on breakpoint-respecting panels."""
from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

__all__ = ["panel_edges", "gauss_nodes"]

_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _rule_cache:
        _rule_cache[n] = np.polynomial.legendre.leggauss(n)
    return _rule_cache[n]


def panel_edges(a: float, b: float, breakpoints=(),
                max_panel: float | None = None) -> np.ndarray:
    """Sorted panel edges of [a, b]: a, b and every breakpoint strictly
    inside, each exactly, with panels longer than ``max_panel`` subdivided
    uniformly.  Empty when b <= a.

    Edge k of a cut [lo, hi] split into n parts is lo + k*((hi - lo)/n), as
    ``np.linspace(lo, hi, n + 1)`` computes it, for all cuts at once."""
    if max_panel is not None and not max_panel > 0:
        raise ValueError(f"max_panel must be positive, got {max_panel}")
    if b <= a:
        return np.empty(0)
    p = np.asarray(breakpoints, dtype=float).ravel()
    cuts = np.unique(np.concatenate(([a, b], p[(a < p) & (p < b)])))
    lo, width = cuts[:-1], np.diff(cuts)
    parts = (np.ones(lo.size, dtype=int) if max_panel is None
             else np.maximum(1, np.ceil(width / max_panel).astype(int)))
    k = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.append(np.repeat(lo, parts) + k * np.repeat(width / parts, parts),
                     b)


def gauss_nodes(edges, n: int = 16, panel_budget: int = 100_000):
    """n-point Gauss-Legendre nodes/weights on every panel
    [edges[j], edges[j+1]], flat and in panel order: reshaped to (panels, n),
    row j holds panel j."""
    edges = np.asarray(edges, dtype=float)
    panels = max(edges.size - 1, 0)
    if panels * n > panel_budget:
        raise QuadratureFailure(
            f"quadrature needs {panels * n} nodes, budget {panel_budget}")
    x, w = _rule(n)
    lo = edges[:-1, None]
    h = 0.5 * np.diff(edges)[:, None]
    return (lo + h * (x + 1.0)).ravel(), (h * w).ravel()

