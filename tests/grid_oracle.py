"""Brute-force grid oracle: a float cross-check of the certified verdicts.

A grid of candidate initial points over the eps-ball around y_0 is run
forward in numpy floats, each candidate granted a slack that grows with
the map's Lipschitz constant. It decides nothing the package ships; the
tests compare it with the exact propagation on short one-dimensional
horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from shadowing import (AnnulusSpiral, DomainError, PiecewiseLinearMap,
                       UsageError)
from shadowing.pseudotraj import Pseudotrajectory

from reference import piece_values


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the grid search over candidate initial points.

    ``found`` grants each candidate a slack of lipschitz^n * resolution at
    step n (so a true witness is never missed); ``strict`` reports whether
    some candidate passed with zero slack.
    """

    found: bool
    strict: bool
    candidate: float | None
    max_slack: float

    def __bool__(self) -> bool:
        return self.found


def _apply_array(system, xs: np.ndarray) -> np.ndarray:
    if isinstance(system, PiecewiseLinearMap):
        bps = np.array([float(b) for b in system.breakpoints])
        slopes = np.array([float(s) for s in system.slopes])
        values = np.array([float(v) for v in piece_values(system)[:-1]])
        idx = np.clip(np.searchsorted(bps, xs, side="right") - 1,
                      0, len(slopes) - 1)
        out = values[idx] + slopes[idx] * (xs - bps[idx])
        return out % 1.0 if system.space.kind == "circle" else out
    raise UsageError("grid oracle supports one-dimensional maps only")


def _dist_array(system, xs: np.ndarray, y: float) -> np.ndarray:
    if system.space.kind == "circle":
        t = np.abs((xs - y) % 1.0)
        return np.minimum(t, 1.0 - t)
    return np.abs(xs - y)


def brute_force_oracle(system, traj: Pseudotrajectory, eps,
                       grid_resolution) -> BruteForceResult:
    """Grid search for a shadowing initial point, with growing slack.

    Candidates are the grid of spacing ``grid_resolution`` over the closed
    eps-ball around y_0 (endpoints included, so halving the resolution
    refines the grid in place). Intended as a statistical cross-check for
    short horizons on one-dimensional spaces.
    """
    if grid_resolution <= 0:
        raise DomainError("grid resolution must be positive")
    if isinstance(system, AnnulusSpiral):
        raise UsageError("grid oracle supports one-dimensional maps only")
    eps_f = float(eps)
    res = float(grid_resolution)
    y = [float(p[0]) for p in traj.points]
    lo = y[0] - eps_f
    k = math.floor(2 * eps_f / res)
    grid = lo + res * np.arange(k + 1)
    if grid[-1] < y[0] + eps_f:
        grid = np.append(grid, y[0] + eps_f)
    if system.space.kind == "circle":
        grid = grid % 1.0
    else:
        grid = np.clip(grid, 0.0, 1.0)
    lip = float(system.lipschitz)

    alive = np.ones(grid.shape, dtype=bool)
    strict_alive = alive.copy()
    xs = grid.copy()
    slack = res
    max_slack = 0.0
    for n, yn in enumerate(y):
        if n > 0:
            xs = _apply_array(system, xs)
            slack = min(slack * lip, 1.0)
        dist = _dist_array(system, xs, yn)
        max_slack = max(max_slack, min(slack, 1.0))
        alive &= dist <= eps_f + slack
        strict_alive &= dist <= eps_f
        if not alive.any():
            break
    found = bool(alive.any())
    candidate = float(grid[int(np.argmax(alive))]) if found else None
    return BruteForceResult(found, bool(strict_alive.any()), candidate,
                            max_slack)
