"""The ``Fraction`` reference semantics that the tests hold the package to.

The package computes on integer numerators over a common denominator, its
scale. Every routine here computes on ``Fraction`` values directly: the
metric, nets, ball measures and uniform samples of the spaces, map
evaluation from a piecewise-linear map's breakpoints, values and slopes,
pointwise preimages, orbits, prefixes and splicing of pseudotrajectories,
set representatives, the rotations' deviation lift and the closed-form
verdicts. The tests compare the integer paths with
these; nothing in the package calls them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from shadowing import (AnnulusSpiral, DomainError, SearchFailure,
                       UsageError, decide_horizons, rotation_first_failure)
from shadowing.pseudotraj import Provenance, Pseudotrajectory
from shadowing.rationals import frac, point_text
from shadowing.spaces import TWO53, circ_dist, scaled_point


# -- spaces ------------------------------------------------------------------

def signed_circ_diff(a, b):
    """Signed representative of a - b in [-1/2, 1/2)."""
    return (a - b + Fraction(1, 2)) % 1 - Fraction(1, 2)


def dist(space, a, b):
    """The distance of two points of the space."""
    if len(a) != space.ndim or len(b) != space.ndim:
        raise UsageError(f"points {a!r}, {b!r} do not belong to a {space.kind}")
    return dist_over(space, a, b, 1)


def dist_over(space, a, b, unit):
    """dist of two points given as numerators over a common unit, as a
    numerator over that unit."""
    if space.kind == "circle":
        return circ_dist(a[0], b[0], unit)
    if space.kind == "interval":
        return abs(a[0] - b[0])
    return max(abs(a[0] - b[0]), circ_dist(a[1], b[1], unit))


def epsilon_net(space, delta1):
    """Centers of a finite cover of the circle or interval by open
    delta1-balls: the ``Space.net_size(delta1)`` centers
    ``Space.net_center``, which ``bounds.cover_time`` scans."""
    n = space.net_size(frac(delta1))
    return [space.net_center(k, n) for k in range(n)]


def ball_measure(space, center, radius):
    """Measure of the radius-ball around center, truncated to the space."""
    if radius <= 0:
        raise DomainError("ball radius must be positive")
    if space.kind == "circle":
        return min(2 * radius, Fraction(1))
    if space.kind == "interval":
        c = center[0]
        return min(c + radius, 1) - max(c - radius, 0)
    rc = center[0]
    radial = min(rc + radius, 1 + space.w) - max(rc - radius, 1 - space.w)
    return radial * min(2 * radius, Fraction(1))


def uniform(draws) -> Fraction:
    """The next double k / 2**53 of a stream of integers k
    (``trial_stream``), exactly."""
    return Fraction(next(draws), TWO53)


def sample_uniform_ball(space, center, radius, draws):
    """A point drawn uniformly (w.r.t. the reference measure) from the
    radius-ball around center intersected with the space.

    Consumes exactly one uniform double per coordinate, so prefixes of a
    stream reproduce regardless of later draws. Coordinates are exact
    Fractions of the drawn doubles; ``Space.sample_scaled`` draws the same
    point on the integer lattice.
    """
    if radius <= 0:
        raise DomainError("ball radius must be positive")
    if space.kind == "circle":
        return (_sample_arc(center[0], radius, draws),)
    if space.kind == "interval":
        lo = max(center[0] - radius, 0)
        hi = min(center[0] + radius, 1)
        return (lo + (hi - lo) * uniform(draws),)
    rc = center[0]
    lo = max(rc - radius, 1 - space.w)
    hi = min(rc + radius, 1 + space.w)
    r = lo + (hi - lo) * uniform(draws)
    theta = _sample_arc(center[1], radius, draws)
    return (r, theta)


def _sample_arc(center, radius, draws):
    u = uniform(draws)
    if 2 * radius >= 1:
        return u
    return (center - radius + 2 * radius * u) % 1


def random_point(space, draws):
    """Uniform point of the whole space."""
    if space.kind in ("circle", "interval"):
        return (uniform(draws),)
    r = 1 - space.w + 2 * space.w * uniform(draws)
    return (r, uniform(draws))


def grid_centers(space, h):
    """Centers of a grid whose open h-balls cover the space: the circle
    and interval nets of ``epsilon_net``, and on the annulus their
    product with an interval grid over the radial band."""
    if space.kind != "annulus":
        return epsilon_net(space, h)
    n = max(math.ceil(1 / h), 1)
    nr = max(math.ceil(2 * space.w / h), 1)
    radial = [1 - space.w + Fraction(2 * k + 1, 2 * nr) * 2 * space.w
              for k in range(nr)]
    return [(r, Fraction(k, n)) for r in radial for k in range(n)]


# -- maps --------------------------------------------------------------------

def piece_values(system) -> tuple:
    """A piecewise-linear map's values at its breakpoints and at 1."""
    values = [system.offset]
    ends = list(system.breakpoints[1:]) + [Fraction(1)]
    for b, e, s in zip(system.breakpoints, ends, system.slopes):
        values.append(values[-1] + s * (e - b))
    return tuple(values)


def apply(system, point):
    """The map at a point, on its ``Fraction`` parameters: on piece i a
    piecewise-linear map sends x to values[i] + slopes[i] * (x -
    breakpoints[i]); the spiral sends (r, theta) to (1 + lam (r - 1),
    theta + alpha)."""
    if isinstance(system, AnnulusSpiral):
        r, theta = point
        return (1 + system.lam * (r - 1), (theta + system.alpha) % 1)
    bps, vals = system.breakpoints, piece_values(system)
    x = point[0]
    i = bisect_right(bps, x) - 1
    v = vals[i] + system.slopes[i] * (x - bps[i])
    return (v % 1,) if system.space.kind == "circle" else (v,)


def preimages(system, point) -> list:
    """All solutions of apply(x) == point, canonical and sorted: the
    map's ``preimages_scaled`` over the lcm of the point's denominators
    and the lattice base, read back as Fractions."""
    nums, scale = scaled_point(point)
    unit = math.lcm(scale, system.lattice_base)
    found, out = system.preimages_scaled(
        tuple(c * (unit // scale) for c in nums), unit)
    return [tuple(Fraction(c, out) for c in t) for t in found]


def orbit(system, x0, n: int) -> list:
    """[x0, f(x0), ..., f^n(x0)] as canonical points."""
    if n < 0:
        raise DomainError("orbit length must be nonnegative")
    pts = [system.space.canonical(x0)]
    for _ in range(n):
        pts.append(apply(system, pts[-1]))
    return pts


# -- sets --------------------------------------------------------------------

def pick_point(s):
    """Midpoint of the largest fragment of s, ties going to the smallest
    start: ``EnclosureSet.pick_scaled`` as Fractions."""
    nums, scale = s.pick_scaled()
    return tuple(Fraction(c, scale) for c in nums)


# -- pseudotrajectories ------------------------------------------------------

def prefix(traj: Pseudotrajectory, m: int) -> Pseudotrajectory:
    """The points y_0, ..., y_m of traj, with its step bound."""
    if not 0 <= m <= traj.horizon:
        raise UsageError(f"prefix horizon {m} outside [0, {traj.horizon}]")
    return Pseudotrajectory(traj.scaled[:m + 1], traj.d, traj.provenance)


def exact_orbit(system, x0, n: int) -> Pseudotrajectory:
    """The true orbit of x0, packaged as a 0-error pseudotrajectory."""
    return Pseudotrajectory(tuple(orbit(system, x0, n)), Fraction(0),
                            Provenance("exact_orbit"))


def validate(system, points, d) -> bool:
    """True iff every consecutive pair satisfies dist(y_{n+1}, f(y_n)) <= d."""
    return all(dist(system.space, points[k + 1], apply(system, points[k]))
               <= d for k in range(len(points) - 1))


def splice(system, r, z0, tail: Pseudotrajectory, delta1,
           horizon: int = 10 ** 6) -> Pseudotrajectory:
    """Connect z0 to the tail through the orbit of a transit point r.

    Finds the first n1 with dist(z0, f^n1(r)) < 2*delta1 and the first
    n2 >= n1 with dist(tail_0, f^n2(r)) < 2*delta1, then returns the orbit
    segment f^n1(r), ..., f^(n2-1)(r) followed by the tail. The result is
    validated as a pseudotrajectory with bound 2 * tail.d and construction
    fails loudly if the bound does not hold (it does whenever
    2*delta1 <= tail.d).
    """
    if delta1 <= 0:
        raise DomainError("net radius delta1 must be positive")
    space = system.space
    z0 = space.canonical(z0)
    target = tail.points[0]
    bound = 2 * delta1

    point = space.canonical(r)
    n1 = None
    n = 0
    while n <= horizon:
        if n1 is None and dist(space, z0, point) < bound:
            n1 = n
        if n1 is not None and dist(space, target, point) < bound:
            n2 = n
            break
        point = apply(system, point)
        n += 1
    else:
        missing = z0 if n1 is None else target
        raise SearchFailure(
            f"transit orbit never entered the {bound}-ball around "
            f"{point_text(missing)} within {horizon} steps",
            target=missing, radius=bound, horizon=horizon)

    segment = orbit(system, r, n2)[n1:n2]
    points = tuple(segment) + tail.points
    d = 2 * tail.d
    out = Pseudotrajectory(points, d, Provenance("spliced"))
    if not validate(system, out.points, d):
        raise DomainError(
            f"spliced sequence violates the step bound {d}; "
            f"need 2*delta1 <= tail step bound (got delta1={delta1}, "
            f"tail d={tail.d})")
    return out


# -- verdicts and bounds -----------------------------------------------------

def first_empty_step(system, traj: Pseudotrajectory, eps) -> int | None:
    """Smallest n with A_n empty, or None; prefix verdicts derive from it."""
    return decide_horizons(system, traj, eps, ()).first_empty


def rotation_oracle(system, traj: Pseudotrajectory, eps) -> bool:
    """Closed-form shadowability of a rotation pseudotrajectory: the
    deviation lift has span at most 2*eps (``rotation_first_failure``)."""
    return rotation_first_failure(system, traj, eps) is None


def rotation_deviations(system, points) -> list:
    """Continuous lift of the deviations of points from the rotation flow.

    w_0 = 0 and w_{n+1} - w_n is the signed representative of
    y_{n+1} - y_n - alpha in [-1/2, 1/2).
    """
    w = [Fraction(0)]
    for a, b in zip(points[1:], points):
        w.append(w[-1] + signed_circ_diff(a[0], b[0] + system.alpha))
    return w


def rotation_lift_first_failure(system, traj: Pseudotrajectory,
                                eps) -> int | None:
    """``rotation_first_failure`` on the ``Fraction`` lift: the first n at
    which w_0, ..., w_n span more than 2*eps, or None."""
    w = rotation_deviations(system, traj.points)
    lo = hi = w[0]
    for n, v in enumerate(w):
        lo, hi = min(lo, v), max(hi, v)
        if hi - lo > 2 * eps:
            return n
    return None


def in_absorbing_band(point, rho) -> bool:
    """Membership in the band {|r - 1| <= rho} of an annulus point."""
    return abs(point[0] - 1) <= rho
