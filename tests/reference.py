"""The ``Fraction`` reference semantics that the tests hold the package to.

The package computes on integer numerators over a common denominator, its
scale. Every routine here computes on ``Fraction`` values directly: the
metric, nets, ball measures and uniform samples of the spaces, map
evaluation from a piecewise-linear map's breakpoints, values and slopes,
the image of a fragment and of a set, pointwise preimages, orbits,
prefixes and splicing of pseudotrajectories, set representatives and
membership, the tube bound eta^L, the rotations' deviation lift and the
closed-form verdicts. Sets are built from ``Fraction`` fragments
(``make``) and intersected pairwise (``intersect``) through the package's
normal form; the cover search's scan for a net ball outside the image
takes one ball and one such intersection per center. The spiral has an
oracle of its own (``spiral_oracle``): ``Fraction`` boxes, a radial
segment times arcs, propagated jointly with their own meet and normal
form, which use none of the package's set or product code. The tests
compare the integer paths with these; nothing in the package calls them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from shadowing import (DomainError, SearchFailure, UsageError,
                       decide_horizons, rotation_first_failure)
from shadowing import enclosure
from shadowing.enclosure import ball_set
from shadowing.pseudotraj import Provenance, Pseudotrajectory
from shadowing.rationals import frac, point_text
from shadowing.spaces import TWO53, scaled_point


# -- spaces ------------------------------------------------------------------

def circ_dist(a, b, unit=1):
    """Arc-length distance on the circle, inputs canonical in [0, unit)."""
    t = (a - b) % unit
    return min(t, unit - t)


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
        c, (lo, hi) = center[0], space.ends
        return min(c + radius, hi) - max(c - radius, lo)
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
    Fractions of the drawn doubles; ``LatticeWalk`` draws the same
    point on the integer lattice.
    """
    if radius <= 0:
        raise DomainError("ball radius must be positive")
    if space.kind == "circle":
        return (_sample_arc(center[0], radius, draws),)
    if space.kind == "interval":
        lo = max(center[0] - radius, space.ends[0])
        hi = min(center[0] + radius, space.ends[1])
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
    if space.kind == "circle":
        return (uniform(draws),)
    if space.kind == "interval":
        lo, hi = space.ends
        return (lo + (hi - lo) * uniform(draws),)
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
    """A piecewise-linear map's values at its breakpoints and at 1, or
    at the upper end of its interval."""
    hi = system.space.ends[1] if system.space.kind == "interval" else 1
    values = [system.offset]
    ends = list(system.breakpoints[1:]) + [Fraction(hi)]
    for b, e, s in zip(system.breakpoints, ends, system.slopes):
        values.append(values[-1] + s * (e - b))
    return tuple(values)


def apply(system, point):
    """The map at a point, on its ``Fraction`` parameters: on piece i a
    piecewise-linear map sends x to values[i] + slopes[i] * (x -
    breakpoints[i]); a product map sends each coordinate by its factor."""
    factors = getattr(system, "factors", None)
    if factors is not None:
        return tuple(apply(f, (c,))[0] for f, c in zip(factors, point))
    bps, vals = system.breakpoints, piece_values(system)
    x = point[0]
    i = bisect_right(bps, x) - 1
    v = vals[i] + system.slopes[i] * (x - bps[i])
    return (v % 1,) if system.space.kind == "circle" else (v,)


def lattice_apply(system, point):
    """The map's ``apply_scaled`` at a point of rationals, over the lcm of
    the point's denominators and the lattice base, read back as
    Fractions; a product map's factors' at each coordinate."""
    factors = getattr(system, "factors", None)
    if factors is not None:
        return tuple(lattice_apply(f, (c,))[0]
                     for f, c in zip(factors, point))
    image, out = system.apply_scaled(
        *scaled_point(point, system.lattice_base))
    return tuple(Fraction(c, out) for c in image)


def image_pieces(system, frag) -> list:
    """The image of one arc or segment of ``Fraction`` coordinates, as raw
    fragments: a piecewise-linear map's arc or segment is cut at every
    breakpoint inside it (on the circle's lift over two turns) and each
    part goes to the arc or segment between its ends' values under
    ``apply``'s lines, lifted by the degree per turn."""
    bps, vals, slopes = system.breakpoints, piece_values(system), system.slopes
    circle = system.space.kind == "circle"

    def lifted(x):
        turn, r = divmod(x, 1) if circle else (0, x)
        i = bisect_right(bps, r) - 1
        return vals[i] + slopes[i] * (r - bps[i]) + turn * (
            vals[-1] - vals[0])

    lo, hi = (frag[0], frag[0] + frag[1]) if circle else frag
    cuts = [b + turn for turn in ((0, 1) if circle else (0,)) for b in bps]
    ends = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    pieces = []
    for a, b in zip(ends, ends[1:]):
        fa, fb = sorted((lifted(a), lifted(b)))
        pieces.append((fa % 1, fb - fa) if circle else (fa, fb))
    if circle:
        return pieces
    return [(min(p[0] for p in pieces), max(p[1] for p in pieces))]


def image_set(system, s):
    """f(s) in normal form, from ``image_pieces`` of every arc or segment,
    over the unit that the package gives an image of s: s's unit, lifted
    to a multiple of the lattice base, times q, the lcm of the slope
    denominators."""
    q = math.lcm(*(Fraction(sl).denominator for sl in system.slopes))
    unit = math.lcm(s.unit, system.lattice_base) * q

    def over_unit(values):
        nums = tuple(c * unit for c in values)
        assert all(c.denominator == 1 for c in nums), (values, unit)
        return tuple(int(c) for c in nums)

    pieces = [over_unit(piece) for frag in s.nums
              for piece in image_pieces(
                  system, tuple(Fraction(c, s.unit) for c in frag))]
    return enclosure._make(system.space, pieces, unit)


def preimages(system, point) -> list:
    """All solutions of apply(x) == point, canonical and sorted. On piece
    i a piecewise-linear map takes every value between values[i] and
    values[i + 1] once, so a value y + J (J = 0 on the interval, any
    integer winding on the circle) in that range has the one preimage
    breakpoints[i] + (y + J - values[i]) / slopes[i] there."""
    y = point[0]
    circle = system.space.kind == "circle"
    vals = piece_values(system)
    found = set()
    for b, v, v_end, sl in zip(system.breakpoints, vals, vals[1:],
                               system.slopes):
        lo, hi = min(v, v_end), max(v, v_end)
        windings = (range(math.ceil(lo - y), math.floor(hi - y) + 1)
                    if circle else (0,) if lo <= y <= hi else ())
        for J in windings:
            x = b + (y + J - v) / sl
            found.add(x % 1 if circle else x)
    return [(x,) for x in sorted(found)]


def orbit(system, x0, n: int) -> list:
    """[x0, f(x0), ..., f^n(x0)] as canonical points."""
    if n < 0:
        raise DomainError("orbit length must be nonnegative")
    pts = [system.space.canonical(x0)]
    for _ in range(n):
        pts.append(apply(system, pts[-1]))
    return pts


# -- sets --------------------------------------------------------------------

def make(space, fragments):
    """The normal form (``enclosure._make``) of fragments of rational
    coordinates, segments or arcs, over the lcm of their denominators."""
    frags = [tuple(f) for f in fragments]
    nums, unit = scaled_point([c for f in frags for c in f])
    coords = iter(nums)
    frags = [tuple(next(coords) for _ in f) for f in frags]
    return enclosure._make(space, frags, unit)


def lift(s, factor):
    """The set s over a unit ``factor`` times its own."""
    return enclosure.EnclosureSet(s.space, enclosure._lift(s.nums, factor),
                                  s.unit * factor)


def intersect_arcs(a, b, unit) -> list:
    """The meet of two arcs (start, length) over ``unit``: at most two
    arcs, the one from b's start first."""
    s1, l1 = a
    s2, l2 = b
    if l1 >= unit:
        return [b]
    if l2 >= unit:
        return [a]
    t = (s2 - s1) % unit  # b starts t into a, or t - unit before it
    out = []
    hi = min(t + l2, l1)
    if t <= hi:
        out.append(((s1 + t) % unit, hi - t))
    hi = min(t - unit + l2, l1)
    if hi >= 0:
        out.append((s1 % unit, hi))
    return out


def intersect_segs(a, b, unit=None) -> list:
    """The meet of two segments (lo, hi): one segment or none."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return [(lo, hi)] if lo <= hi else []


def meet(space, piece, ball, unit) -> list:
    """The meet of an image segment or arc and a ball's over ``unit``, as
    ``shadow_sets`` clips one: arcs start in [0, unit)."""
    if space.kind == "interval":
        return intersect_segs(piece, ball)
    return [(s % unit, l) for s, l in intersect_arcs(piece, ball, unit)]


def intersect(a, b):
    """A & B: the normal form of the pairwise meets of their segments or
    arcs, over the lcm of their units."""
    if a.space != b.space:
        raise UsageError("cannot intersect sets over different spaces")
    unit = math.lcm(a.unit, b.unit)
    a, b = lift(a, unit // a.unit), lift(b, unit // b.unit)
    meet = intersect_segs if a.space.kind == "interval" else intersect_arcs
    pieces = [p for x in a.nums for y in b.nums for p in meet(x, y, unit)]
    return enclosure._make(a.space, pieces, unit)


def pick_point(s):
    """Midpoint of the largest fragment of s, ties going to the smallest
    start: ``EnclosureSet.pick_scaled`` as Fractions."""
    nums, scale = s.pick_scaled()
    return tuple(Fraction(c, scale) for c in nums)


def contains(s, point) -> bool:
    """Whether the point of rationals lies in the enclosure set s, read
    from its ``Fraction`` fragments: the set membership that
    ``shadowcheck.pull_back_witness`` decides on integers."""
    circle = s.space.kind == "circle"
    for f in s.fragments:
        if ((point[0] - f[0]) % 1 <= f[1] if circle
                else f[0] <= point[0] <= f[1]):
            return True
    return False


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


def tube_probability_bound(eta_value, length: int) -> Fraction:
    """eta^length: lower bound on the probability that a random
    d-pseudotrajectory stays in the delta-tube around a given sequence for
    ``length`` consecutive steps."""
    eta_value = frac(eta_value)
    if not 0 < eta_value <= 1:
        raise DomainError("eta must lie in (0, 1]")
    if length < 0:
        raise DomainError("length must be nonnegative")
    return eta_value ** length


def first_missed_center_by_scan(image, delta1) -> int | None:
    """The least net center index k whose closed delta1-ball misses the
    set ``image``, by one ``ball_set`` and one ``intersect`` per center in
    turn, or None if every ball meets it (``bounds._first_missed_center``
    finds it from the image's fragments)."""
    space = image.space
    size = space.net_size(frac(delta1))
    for k in range(size):
        c = space.net_center(k, size)
        if intersect(image, ball_set(space, c, delta1)).is_empty():
            return k
    return None


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


# -- the spiral's joint oracle -------------------------------------------------

def arc_segments(arc) -> list:
    """An arc (start, length) of the circle as segments of [0, 1]."""
    s, l = arc
    if l >= 1:
        return [(Fraction(0), Fraction(1))]
    s %= 1
    if s + l <= 1:
        return [(s, s + l)]
    return [(s, Fraction(1)), (Fraction(0), s + l - 1)]


def normal_arcs(segments) -> list:
    """The arcs (start, length) of a union of segments of [0, 1], merged
    where they overlap or touch and joined across 0, sorted by start; the
    whole circle is [(0, 1)]."""
    merged = []
    for lo, hi in sorted(segments):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    if merged == [(0, 1)]:
        return [(Fraction(0), Fraction(1))]
    if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == 1:
        (_, head), (tail, _) = merged.pop(0), merged.pop()
        merged.append((tail, head + 1))
    return sorted((lo, hi - lo) for lo, hi in merged)


def spiral_oracle(lam, alpha, w, points, eps):
    """The spiral (r, theta) -> (1 + lam (r - 1), theta + alpha) on the
    annulus of half-width w, decided on ``Fraction`` boxes alone: A_0 is
    the eps-box around y_0 cut to the band, and A_{n+1} the image box of
    A_n met with the eps-box around y_{n+1}, the radial segment's meet
    times the arcs' meets, to the first empty box. Returns (first empty
    step or None, witness at the last horizon that is Yes, or None): the
    witness is the midpoint of the last box's radial segment and of its
    longest arc (the first such by start), pulled back through the boxes,
    each of which it must lie in."""
    boxes = []
    for r, theta in points:
        lo, hi = max(r - eps, 1 - w), min(r + eps, 1 + w)
        ball = arc_segments((theta - eps, 2 * eps))
        if boxes:
            (plo, phi), arcs = boxes[-1]
            lo = max(lo, 1 + lam * (plo - 1))
            hi = min(hi, 1 + lam * (phi - 1))
            image = [seg for s, l in arcs
                     for seg in arc_segments((s + alpha, l))]
            ball = [(max(a, c), min(b, d)) for a, b in image
                    for c, d in ball if max(a, c) <= min(b, d)]
        boxes.append(((lo, hi), normal_arcs(ball) if lo <= hi else []))
        if not boxes[-1][1]:
            break
    first_empty = len(boxes) - 1 if not boxes[-1][1] else None
    m = len(boxes) - 1 if first_empty is None else first_empty - 1
    if m < 0:
        return first_empty, None
    (lo, hi), arcs = boxes[m]
    s, l = max(arcs, key=lambda a: (a[1], -a[0]))
    r, theta = (lo + hi) / 2, (s + l / 2) % 1
    for n in range(m - 1, -1, -1):
        r, theta = 1 + (r - 1) / lam, (theta - alpha) % 1
        (lo, hi), arcs = boxes[n]
        assert lo <= r <= hi and any((theta - s) % 1 <= l for s, l in arcs)
    return first_empty, (r, theta)
