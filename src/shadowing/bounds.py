"""Constructive quantities behind the shadowing dichotomy and attractor bounds.

Everything here is a closed-form or finitely-searched quantity used to turn
the qualitative statements (a random pseudotrajectory follows any given
tube with positive probability; an absorbing band traps pseudotrajectories)
into checkable numbers: the uniform-continuity radius delta, the ball
measure ratio eta, cover times of transitive orbits, the geometric block
bound 1 - (1 - eta^L)^k, and the absorbing-band data for the annulus
contraction.

Two records collect them: ``dichotomy_quantities`` for transitive maps and
``attractor_quantities`` for the annulus. ``shadowing bounds`` prints
them, and the experiment reports embed the same records (the rotation
branch's ``diagnostics``, the attractor run's ``quantities``).

The cover search puts its start on the map's lattice with
``scaled_point(point, base)`` and reads the delta1-net only through
``Space.net_runs``: open balls around each orbit point for the scan,
closed balls around each image fragment for the test of a ball outside
the image. Neither knows where the net's centers lie.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .enclosure import _normalize_segs, ball_set
from .errors import DomainError, SearchFailure, UsageError
from .rationals import frac, jsonable, point_text
from .spaces import Space, scaled_point


def delta_for_inclusion(system, d) -> Fraction:
    """Radius delta = d / (2 (1 + Lipschitz)).

    Guarantees: for any x, any z within delta of x and any y within d/2 of
    f(x), the closed delta-ball around y lies inside the closed d-ball
    around f(z), via dist(., f(z)) <= delta + d/2 + Lipschitz * delta <= d.
    """
    d = frac(d)
    if d <= 0:
        raise DomainError("d must be positive")
    return d / (2 * (1 + system.lipschitz))


def tube_delta(system, d, eps) -> Fraction:
    """Tube radius used by the dichotomy diagnostics:
    min(eps/4, delta_for_inclusion), so tube neighbors of a non-shadowable
    sequence are themselves non-shadowable at half the scale."""
    return min(frac(eps) / 4, delta_for_inclusion(system, d))


def eta(space: Space, delta, d) -> Fraction:
    """Ratio of the smallest delta-ball measure to the largest d-ball measure.

    A ball truncated to the space is a segment, an arc, or on the annulus
    a segment of the band times an arc. In a segment of length L (hi -
    lo; 2w on the annulus) a radius-r ball spans at least min(r, L), at
    an end, and at most min(2r, L); an arc always spans min(2r, 1). So
    eta is min(delta, L) / min(2d, L) on an interval, min(2 delta, 1) /
    min(2d, 1) on the circle and their product on the annulus.
    """
    delta = frac(delta)
    d = frac(d)
    if delta <= 0:
        raise DomainError("delta must be positive")
    if delta > d:
        raise DomainError("expected delta <= d")
    value = Fraction(1)
    if space.kind != "circle":  # the segment
        lo, hi = space.ends
        value *= min(delta, hi - lo) / min(2 * d, hi - lo)
    if space.kind != "interval":  # the arc
        value *= min(2 * delta, Fraction(1)) / min(2 * d, Fraction(1))
    return value


class CoverTime(NamedTuple):
    k1: int
    k2: int
    k: int


def cover_time(system, r, delta1, horizon: int = 10 ** 6) -> CoverTime:
    """Visitation times of the orbit of r over the delta1-net of a circle
    or interval map.

    k1 is the first time by which the orbit has entered every open
    delta1-ball of the net; k2 repeats the search restarted at step k1 + 1;
    k = k1 + k2 + 1. Fails loudly, naming an unvisited ball, if the horizon
    is exhausted (finite arithmetic cannot certify transitivity) or the
    orbit is seen to cycle: a scan keeps its point at each power-of-two
    step (Brent, *BIT* 20, 1980), and a return to it means that only
    points already scanned follow. An annulus map is a ``UsageError``:
    its bounds are ``attractor_quantities``. A negative horizon is a
    ``DomainError``.

    Every orbit point from step 1 on lies in the image f(X) of the whole
    space, which is computed exactly first: a net ball whose closure f(X)
    misses can never be entered by the restarted scan, so the search fails
    at once, naming the first such ball, without scanning
    (``_first_missed_center``).

    The orbit runs on integers (``scaled_point(point, base)`` with the
    lattice base, ``apply_scaled``), each point over the smallest unit
    that is a multiple of the lattice base, so the cycle check compares
    (numerator, unit) pairs; ``Space.net_runs`` gives the open net balls
    around each point.
    """
    delta1 = frac(delta1)
    space = system.space
    size = space.net_size(delta1)
    if horizon < 0:
        raise DomainError(f"the cover search's step budget (horizon) must "
                          f"be nonnegative, got {horizon}")
    point = space.canonical(r)
    image = system.apply_set(ball_set(space, point, space.diameter))
    missed = _first_missed_center(image, delta1, size)
    if missed is not None:
        c = space.net_center(missed, size)
        raise SearchFailure(
            f"the image of the space misses the open {delta1}-ball "
            f"around net center {point_text(c)}, so no orbit point "
            "after the first can enter it",
            target=c, radius=delta1, horizon=0)
    base, apply = system.lattice_base, system.apply_scaled

    def step(x, unit):
        (x,), out = apply((x,), unit)
        g = math.gcd(x, out // base)
        return x // g, out // g

    def scan(x, unit, budget):
        unvisited = set(range(size))
        saved = x, unit
        cycle = ""
        for n in range(budget + 1):
            for first, last in space.net_runs(x, x, unit, delta1, size,
                                              closed=False):
                unvisited.difference_update(range(first, last + 1))
            if not unvisited:
                return n, x, unit
            x, unit = step(x, unit)
            if (x, unit) == saved:
                cycle = f"; it cycles by step {n + 1}, so it never will"
                break
            if n & (n + 1) == 0:  # keep the point at each power-of-two step
                saved = x, unit
        c = space.net_center(min(unvisited), size)
        raise SearchFailure(
            f"orbit never entered the open {delta1}-ball around net center "
            f"{point_text(c)} within {budget} steps{cycle}",
            target=c, radius=delta1, horizon=budget)

    (x,), unit = scaled_point(point, base)
    k1, x, unit = scan(x, unit, horizon)
    k2, *_ = scan(*step(x, unit), horizon)  # restarted at f^(k1+1)(r)
    return CoverTime(k1, k2, k1 + k2 + 1)


def _first_missed_center(image, delta1, n: int) -> int | None:
    """The least index k of the n net centers (``Space.net_center``) whose
    closed delta1-ball the image misses, or None if every ball meets it.

    A fragment meets the closed ball around c exactly when c lies within
    delta1 of it, so each fragment covers the runs of centers that
    ``Space.net_runs`` gives for closed balls. Merged as half-open
    segments (first, last + 1), the runs leave index 0 uncovered unless
    the first merged run starts there, and then its end is the answer.
    The cost grows with the fragments, not with n.
    """
    space = image.space
    frags = image.nums if space.kind == "interval" \
        else ((s, s + length) for s, length in image.nums)
    runs = _normalize_segs(
        (first, last + 1) for lo, hi in frags
        for first, last in space.net_runs(lo, hi, image.unit, delta1, n,
                                          closed=True))
    missed = runs[0][1] if runs and runs[0][0] == 0 else 0
    return missed if missed < n else None


def nonshadow_lower_bound(eta_value, block_length: int, k: int) -> Fraction:
    """1 - (1 - eta^L)^k: lower bound on the probability that the length-kL
    prefix of a random pseudotrajectory is not shadowable at the halved
    scale. Nondecreasing in k, with limit 1."""
    eta_value = frac(eta_value)
    if not 0 < eta_value <= 1:
        raise DomainError("eta must lie in (0, 1]")
    if block_length < 1:
        raise DomainError("block length must be at least 1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    return 1 - (1 - eta_value ** block_length) ** k


class _Record:
    def to_json(self) -> dict:
        """The fields with Fractions as 'a/b' strings; None is left out."""
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None}


@dataclass(frozen=True)
class DichotomyQuantities(_Record):
    """Constructive quantities of the transitive-map branch: the tube
    radius delta, the net radius delta1 = delta/4, eta (exact, in both
    ``eta_lo`` and ``eta_hi``), the cover time and, on a rotation, the
    drift tail N and the block length L = K + N + 1. A value that was not
    computed is None."""

    delta: Fraction
    delta1: Fraction
    eta_lo: Fraction
    eta_hi: Fraction
    cover_k1: int | None = None
    cover_k2: int | None = None
    cover_k: int | None = None
    tail_n: int | None = None
    block_length: int | None = None


def dichotomy_quantities(system, d, eps=None, y0=None,
                         cover_horizon: int = 10 ** 6) -> DichotomyQuantities:
    """Quantities behind the block bound 1 - (1 - eta^L)^k.

    delta is tube_delta(d, eps) when eps is given, else
    delta_for_inclusion(d). eta is the exact value of ``eta``, written to
    both ``eta_lo`` and ``eta_hi``. The cover time needs a start point y0
    (and searches ``cover_horizon`` steps); the drift tail and the block
    length need a rotation and eps < 1/4, the range of the drift
    construction (and y0 for L).
    """
    delta = (delta_for_inclusion(system, d) if eps is None
             else tube_delta(system, d, eps))
    delta1 = delta / 4
    q = dict.fromkeys(("eta_lo", "eta_hi"), eta(system.space, delta, d))
    if y0 is not None:
        cov = cover_time(system, y0, delta1, cover_horizon)
        q["cover_k1"], q["cover_k2"], q["cover_k"] = cov
    if system.kind == "rotation" and eps is not None \
            and frac(eps) < Fraction(1, 4):
        # the drift construction's horizon (worst_case_pseudotrajectory)
        q["tail_n"] = math.ceil(4 * frac(eps) / frac(d)) + 1
        if y0 is not None:
            q["block_length"] = q["cover_k"] + q["tail_n"] + 1
    return DichotomyQuantities(delta, delta1, **q)


# Share of the absorbing band's noise ceiling held back: d0 is this much
# below the largest noise level that keeps the band forward-invariant.
BAND_MARGIN = Fraction(1, 10)


@dataclass(frozen=True)
class ProofQuantities(_Record):
    """Absorbing-band data of an attractor run (see attractor_quantities):
    the working noise level d, its inclusion radius delta, the quarter
    scale eps0, the band half-width rho with its ends, the entry time n0,
    the noise ceiling d0, the settling time S (``settle_s``), the
    contraction lam, the margin and the canonical start point y0."""

    d: Fraction
    delta: Fraction
    eps0: Fraction
    rho: Fraction
    band_lo: Fraction
    band_hi: Fraction
    n0: int
    d0: Fraction
    settle_s: int
    lam: Fraction
    margin: Fraction
    y0: tuple


def attractor_quantities(system, eps, y0, d=None) -> ProofQuantities:
    """Absorbing-band data for the annulus contraction-rotation.

    The invariant circle r = 1 attracts the whole annulus. With
    rho = min(eps/4, w/2) the band W = {|r - 1| <= rho} absorbs: its image
    is the band of half-width lam * rho, and pseudotrajectories re-enter
    because |r_{n+1} - 1| <= lam |r_n - 1| + d. lam is the slope of the
    spiral's radial factor and w the half-length of its interval.

    Returns rho, the entry time n0, the noise ceiling d0 = (1 -
    BAND_MARGIN) * min(eps/4, (1 - lam) rho) that keeps the band
    forward-invariant for every d < d0, and the settling time S (first n
    with lam^n rho <= delta/4, the time by which true orbits started in W
    are delta/4-close to the invariant circle). Unrolling the step gives
    |r_n - 1| <= lam^n |r0 - 1| + d/(1 - lam), nonincreasing in n, so n0 is
    the first n with lam^n |r0 - 1| + d/(1 - lam) <= rho: every point from
    step n0 on lies in the band. n0, S and delta are evaluated at the
    working noise level ``d`` (default d0/2); as d < d0 < (1 - lam) rho,
    the search ends.

    The record is memoized on values (lam, w, the Lipschitz constant, eps,
    canonical y0, d) once d is resolved, so a call with d=None and one
    with the d it resolved to share one record; it is immutable.
    Arguments are checked before the cache is asked, so a refused d
    raises at every call.
    """
    if system.space.kind != "annulus":
        raise UsageError("attractor quantities are defined for annulus spirals")
    radial = system.factors[0]
    lam = radial.slopes[0]
    lo, hi = radial.space.ends
    w = (hi - lo) / 2
    eps = frac(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    y0 = system.space.canonical(tuple(frac(c) for c in y0))
    rho, d0 = _band(lam, w, eps)
    if d is None:
        d_used = d0 / 2
    else:
        d_used = frac(d)
        if not 0 < d_used < d0:
            raise DomainError(f"need 0 < d < d0 = {d0}, got {d_used}")
    return _band_record(lam, w, system.lipschitz, eps, y0, d_used)


def _band(lam, w, eps) -> tuple:
    """(rho, d0): the band's half-width and the noise ceiling."""
    rho = min(eps / 4, w / 2)
    return rho, (1 - BAND_MARGIN) * min(eps / 4, (1 - lam) * rho)


@functools.lru_cache(maxsize=64)
def _band_record(lam, w, lipschitz, eps, y0, d_used) -> ProofQuantities:
    """``attractor_quantities`` once its arguments are checked and d is
    resolved."""
    rho, d0 = _band(lam, w, eps)
    n0 = 0
    gap = abs(y0[0] - 1)
    room = rho - d_used / (1 - lam)
    while gap > room:
        gap *= lam
        n0 += 1

    delta = d_used / (2 * (1 + lipschitz))  # delta_for_inclusion's radius
    settle = 0
    reach = rho
    while reach > delta / 4:
        reach *= lam
        settle += 1

    return ProofQuantities(
        d=d_used, delta=delta, eps0=eps / 4, rho=rho,
        band_lo=1 - rho, band_hi=1 + rho, n0=n0, d0=d0, settle_s=settle,
        lam=lam, margin=BAND_MARGIN, y0=y0)
