"""Certified finite-horizon shadowability decisions.

The decision propagates the shadow set forward: A_0 is the closed eps-ball
around y_0 and A_{n+1} = f(A_n) intersected with the closed eps-ball around
y_{n+1}. A point lies in A_n exactly when it is the n-th iterate of some
orbit that has stayed within eps of the pseudotrajectory so far, so the
trajectory is eps-shadowable over its horizon iff every A_n is nonempty.

All arithmetic is exact and the sets are exact. The verdict is Yes, with a
certified witness re-checked against its orbit, or No, with the first
empty step; ``horizon_verdicts`` is the one routine that reaches either.
Propagation, pull-back and re-check run on Python integers over a per-step
common denominator, the scale (see ``shadow_sets``), and so does the
rotations' closed form below; Fractions appear only in the witness and
when a caller reads a set's ``fragments``.
A propagation step builds A_{n+1} from A_n and the ball around y_{n+1}
alone, on bare integers, in one loop (``shadow_sets``): the map's step for
the two units (``image_step``), kept while they stay, walks the linear
pieces of each fragment of A_n and returns its image pieces, each clipped
to the ball as it is made. One piece or none is the next set as it
stands, the touching pieces of an interval set, always one segment, give
their hull, and only other pieces are put in normal form. Besides the ball, a step builds
nothing but the new set's record.
A pull-back step takes the preimages of its point on a scale that grows
by the slope numerators, and reads each on the shadow set's own unit by
one division, comparing it inline with the set's arc, segment or box, so
no fragment is lifted to the growing scale. A re-check step applies the
map on the integer lattice and compares the orbit point with the
trajectory point by cross-multiplying their scales (``orbit_tracks``),
inline: no gcd, no table and no lifted point.
A shadow set whose normal form has more fragments than the fragment cap
raises ``EnclosureCapError`` instead of giving a verdict; the image
f(A_n) alone is never put in normal form, so its size does not count.

A closed-form span criterion for rotations (``rotation_first_failure``)
cross-checks the propagation. The tests keep a float grid search
(``tests/grid_oracle.py``) and ``Fraction`` copies of the preimages, the
set representative and membership, the rotations' deviation lift and the
verdict helpers (``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import enclosure
from .enclosure import EnclosureSet
from .errors import DomainError, InvariantViolation, UsageError
from .pseudotraj import Pseudotrajectory
from .rationals import frac
from .spaces import ScaledPoints, scaled_point


class Verdict(str, Enum):
    YES = "Yes"
    NO = "No"


@dataclass(frozen=True)
class ShadowVerdict:
    verdict: Verdict
    witness: tuple | None
    n_empty: int | None
    final_set: EnclosureSet

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": None if self.witness is None
            else [str(c) for c in self.witness],
            "n_empty": self.n_empty,
            "set_stats": {
                "fragments": self.final_set.fragment_count(),
                "measure": str(self.final_set.measure()),
                "variant": "exact",  # every set is exact; kept in the output
            },
        }


@dataclass(frozen=True)
class HorizonVerdicts:
    """What ``horizon_verdicts`` found: a verdict per horizon, the first
    empty step (None if every A_n is nonempty), the witness of the longest
    Yes prefix (None if no horizon is Yes) and the shadow sets it read."""

    verdicts: tuple
    first_empty: int | None
    witness: tuple | None
    sets: list


def shadow_sets(system, points, eps) -> list:
    """The shadow sets A_0, A_1, ..., up to and including the first empty
    one, of points given as (numerators, scale) pairs. A point is read only
    when its set is built, so a ``LatticeWalk`` samples none after that.

    The ball around y_n is taken over P_n = lcm(scale of y_n, den(eps),
    lattice_base of the map) and lifted to W_n, the lcm of P_n and the
    unit of the image of A_{n-1}. The map's step for the unit of A_{n-1}
    and P_n (``image_step``) is made again only when either changes, so
    doubling and the rotations make it once per trajectory, and the
    spiral at every step. Every fragment of A_{n-1} goes through it, and
    it returns the fragment's image pieces, each clipped to the ball as
    it is made; the one-piece circle maps and the spiral clip their one
    image arc or box inline (``systems._clip_arc``). A one-fragment
    A_{n-1}, as in every shipped run, is stepped without building a list
    of pieces. One clipped piece or none is the next set as it stands,
    the touching pieces of an interval set, always one segment, give
    their hull, and only other pieces are normalized (``enclosure._make``), which raises
    ``EnclosureCapError`` carrying A_n when A_n has more fragments than
    the cap, read at every call. Each step builds the ball
    (``enclosure._ball``) and the set's record and nothing else. A
    generated trajectory's scales nest, so W_n is P_n, with no gcd on an
    untruncated step, and no set is reduced. Where a point's scale is a
    multiple of the one before it and that one was P_{n-1}, P_n is the
    scale and the ball's radius eps * P_n is carried across the change by
    the quotient, with no division by eps's denominator; on the annulus
    and the non-integer slopes that is every step. Otherwise (points read
    from a file, say) A_n is reduced by one gcd, so its unit never
    exceeds the lcm of the denominators that A_{n-1} and the ball really
    carry. eps is converted to integers once.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    eps = frac(eps)
    space, image_step = system.space, system.image_step
    interval = space.kind == "interval"
    eps_num, eps_den = eps.numerator, eps.denominator
    base = math.lcm(eps_den, system.lattice_base)
    sets, nums = [], None
    point_scale = step_u = step_unit = None
    lift = 0  # no radius to carry yet
    for y, s in points:
        if s != point_scale:
            g, rem = divmod(s, point_scale) if lift == 1 else (0, 1)
            if rem:
                unit = s if s % base == 0 else math.lcm(s, base)
                lift, radius = unit // s, eps_num * (unit // eps_den)
            else:  # the scales nest, as a generated trajectory's do
                unit, radius = s, radius * g
            point_scale = s
        if lift != 1:
            y = tuple(c * lift for c in y)
        ball = enclosure._ball(space, y, radius, unit)
        if nums is None:
            nums, u = (ball,), unit
        else:
            # the map's step for these units, kept while they stay
            if u != step_u or unit != step_unit:
                step_u, step_unit = u, unit
                step, w = image_step(u, unit)
            if unit != w:
                ball = tuple(c * (w // unit) for c in ball)
            if len(nums) == 1:  # no list of pieces to build
                pieces = step(nums[0], ball)
            else:
                pieces = [p for f in nums for p in step(f, ball)]
            if len(pieces) < 2:
                nums = pieces  # the record makes it a tuple
            elif interval:
                # an interval shadow set is one segment (the image of a
                # segment met with a ball), and the clipped pieces of its
                # image touch, so their union is their hull
                los, his = zip(*pieces)
                nums = ((min(los), max(his)),)
            else:
                nums = enclosure._make(space, pieces, w).nums
            u = w
        nxt = EnclosureSet(space, nums, u)
        if u != unit:
            nxt = nxt.reduced(base)
            nums, u = nxt.nums, nxt.unit
        sets.append(nxt)
        if not nums:
            break
    return sets


def shadow_set_forward(system, traj: Pseudotrajectory,
                       eps) -> list[EnclosureSet]:
    """The N + 1 shadow sets A_0, ..., A_N: ``shadow_sets``, with the first
    empty set repeated for the remaining steps (an empty set stays empty)."""
    points = traj.scaled
    sets = shadow_sets(system, zip(points.nums, points.scales), eps)
    sets.extend([sets[-1]] * (len(points) - len(sets)))
    return sets


def orbit_tracks(system, points, x0, eps) -> bool:
    """Direct re-check: does the orbit of x0 stay within eps of points.

    The orbit runs on the integer lattice (``apply_scaled``) from x0 over
    the lcm of its denominator and the map's lattice base. Point n, over
    its scale s, is compared with the orbit point over z_scale * s *
    den(eps), by cross-multiplying: no step takes a gcd or builds a lifted
    point. The map multiplies z_scale by the same q at every step (the lcm
    of its slope denominators). Where s grows by q too, as on every
    untruncated step of a generated spiral or tent trajectory, the lifts
    of the two points stay and the common unit and the bound are carried
    by q; at any other change of either scale the products are made
    again. The distance is compared inline. ``Fraction`` points are put on
    scales first."""
    space = system.space
    if not isinstance(points, ScaledPoints):
        points = ScaledPoints.from_points(points)
    eps = frac(eps)
    eps_num, eps_den = eps.numerator, eps.denominator
    z, z_scale = scaled_point(space.canonical(x0), system.lattice_base)
    apply = system.apply_scaled
    circle, annulus = space.kind == "circle", space.kind == "annulus"
    # the map multiplies the orbit's scale by the same q at every step
    q = apply(z, z_scale)[1] // z_scale
    kept_z = kept_s = 0
    for y, s in zip(points.nums, points.scales):
        if s != kept_s or z_scale != kept_z:
            if s == kept_s * q and z_scale == kept_z * q:
                # both scales grew by q: the lifts stay
                common, bound = common * q, bound * q
            else:
                z_lift, y_lift = s * eps_den, z_scale * eps_den
                common, bound = z_scale * z_lift, eps_num * z_scale * s
            kept_z, kept_s = z_scale, s
        if circle:
            t = (z[0] * z_lift - y[0] * y_lift) % common
            if t > bound and common - t > bound:
                return False
        elif annulus:
            t = z[0] * z_lift - y[0] * y_lift
            if t > bound or -t > bound:
                return False
            t = (z[1] * z_lift - y[1] * y_lift) % common
            if t > bound and common - t > bound:
                return False
        else:  # the interval
            t = z[0] * z_lift - y[0] * y_lift
            if t > bound or -t > bound:
                return False
        z, z_scale = apply(z, z_scale)
    return True


def pull_back_witness(system, sets, m):
    """Candidate witness: a point of A_0 pulled back from a point of A_m
    through per-step preimages, staying inside each recorded shadow set.
    Preimages are tried in increasing order and the first one inside the
    set is kept. Returns None if some pull-back step finds no preimage in
    the set, which exact sets rule out (A_n lies in the image of A_{n-1}).

    A step is the map's ``preimages_scaled``, whose scale grows by the
    slope numerators, and a test of each candidate against the fragments
    of A_n, read inline on A_n's own unit: a coordinate c becomes
    floor(c * unit / scale), one short of its fragment's upper end when
    the division leaves a remainder (the value then lies strictly inside
    the next lattice cell). One loop tests arcs and segments: a lies in
    the arc (s, l) when (a - s) mod unit <= l - short, and in the segment
    (lo, hi), which does not wrap, when lo <= a <= hi - short; a box tests
    both. So no fragment is lifted to the growing scale, and only the
    witness is turned into Fractions."""
    x, scale = sets[m].pick_scaled()
    preimages, kind = system.preimages_scaled, system.space.kind
    circle = kind == "circle"
    for n in range(m - 1, -1, -1):
        candidates, scale = preimages(x, scale)
        frags, unit = sets[n].nums, sets[n].unit
        x = None
        if kind != "annulus":
            for p in candidates:
                a, rem = divmod(p[0] * unit, scale)
                short = 1 if rem else 0
                for s, e in frags:  # an arc (s, l) or a segment (lo, hi)
                    if ((a - s) % unit <= e - short if circle
                            else s <= a <= e - short):
                        x = p
                        break
                if x:
                    break
        else:
            for p in candidates:
                r, rem = divmod(p[0] * unit, scale)
                r_short = 1 if rem else 0
                theta, rem = divmod(p[1] * unit, scale)
                theta_short = 1 if rem else 0
                for rlo, rhi, s, l in frags:
                    if (rlo <= r <= rhi - r_short
                            and (theta - s) % unit <= l - theta_short):
                        x = p
                        break
                if x:
                    break
        if x is None:
            return None
    return tuple(Fraction(c, scale) for c in x)


def horizon_verdicts(system, sets, points: ScaledPoints, eps,
                     horizons) -> HorizonVerdicts:
    """Certified verdicts for eps-shadowability of each horizon prefix,
    from the shadow sets A_0, A_1, ... (all N + 1, or to the first empty
    one) and the points they were built from.

    Horizon m is No when some A_n with n <= m is empty, else Yes. One
    witness is pulled back, at the largest Yes horizon, and its orbit
    re-checked against that prefix of ``points``; it then tracks every
    shorter prefix too, so Yes can turn into No, never back. Exact sets
    always yield a witness that passes, so a failure is a bug and raises
    ``InvariantViolation`` rather than a verdict.
    """
    first_empty = next((n for n, s in enumerate(sets) if not s.nums), None)
    verdicts = tuple(
        Verdict.NO if first_empty is not None and m >= first_empty
        else Verdict.YES for m in horizons)
    yes = [m for m, v in zip(horizons, verdicts) if v is Verdict.YES]
    witness = None
    if yes:
        m = max(yes)
        witness = pull_back_witness(system, sets, m)
        if witness is None or not orbit_tracks(
                system, points[:m + 1], witness, eps):
            raise InvariantViolation(
                f"witness extraction failed at horizon {m}")
    return HorizonVerdicts(verdicts, first_empty, witness, sets)


def decide_horizons(system, traj: Pseudotrajectory, eps,
                    horizons) -> HorizonVerdicts:
    """``horizon_verdicts`` on all N + 1 sets of a whole trajectory, whose
    points are first checked to lie in the space (``Space.check_scaled``)."""
    system.space.check_scaled(traj.scaled)
    return horizon_verdicts(system, shadow_set_forward(system, traj, eps),
                            traj.scaled, eps, horizons)


def decide_shadowable(system, traj: Pseudotrajectory, eps) -> ShadowVerdict:
    """Certified verdict for eps-shadowability over the trajectory horizon.

    Yes always carries a witness initial point whose orbit has been
    re-checked directly against the trajectory; No names the first empty
    step.
    """
    found = decide_horizons(system, traj, eps, (traj.horizon,))
    return ShadowVerdict(found.verdicts[0], found.witness, found.first_empty,
                         found.sets[-1])


# -- closed-form rotation oracle ------------------------------------------

def rotation_first_failure(system, traj: Pseudotrajectory, eps) -> int | None:
    """Closed-form shadowability of a rotation pseudotrajectory: the first
    horizon at which the deviation lift spans more than 2*eps, or None if
    it never does (the whole trajectory is shadowable). Valid for
    eps < 1/4 and step bounds below 1/4, where the lift is unambiguous and
    a span window corresponds to an actual shadowing orbit.

    The lift starts at w_0 = 0, and w_{n+1} - w_n is the representative of
    y_{n+1} - y_n - alpha in [-1/2, 1/2). It runs on integers over the lcm
    of alpha's denominator and the points' scales."""
    _check_oracle_region(traj, eps)
    if system.kind != "rotation":
        raise UsageError("deviation lift is defined for rotations")
    eps, alpha, pts = frac(eps), system.alpha, traj.scaled
    unit = math.lcm(alpha.denominator, *set(pts.scales))
    step = alpha.numerator * (unit // alpha.denominator)
    bound = 2 * eps.numerator * unit
    prev = w = lo = hi = 0
    for n, ((y,), s) in enumerate(zip(pts.nums, pts.scales)):
        y *= unit // s
        if n:
            move = (y - prev - step) % unit
            w += move - unit if 2 * move >= unit else move
            lo, hi = min(lo, w), max(hi, w)
            if (hi - lo) * eps.denominator > bound:
                return n
        prev = y
    return None


def _check_oracle_region(traj, eps):
    if eps <= 0:
        raise DomainError("eps must be positive")
    if eps >= Fraction(1, 4):
        raise DomainError("rotation oracle requires eps < 1/4")
    if traj.d >= Fraction(1, 4):
        raise DomainError("rotation oracle requires step bound below 1/4")

