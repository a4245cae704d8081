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
alone, on bare integers, in one loop (``shadow_sets``) with no call per
step on a map of one linear piece: its constants for the unit
(``line``), carried across each change of unit, map each fragment of A_n
inside the loop. A map with corners hands the loop the image pieces of
each fragment from its step for the two units (``image_step``), kept
while they stay. Every set is a segment factor times an arc factor: an
interval set is one segment, a circle set is arcs, and an annulus set is
one radial segment times arcs. So a step is a segment step, which maps
the segment and cuts it at the ball's, and an arc step, which clips
every image arc to the ball's; the annulus takes both. One arc or none
is the next arc factor as it stands, and only more arcs are put in
normal form. The sets are kept as a ``SetRecord``, each set's bare
fragments, unit and radial segment, and a set object is built only when
a set is read by index.
The pull-back and the re-check are loops that the map runs itself, each
with no call per step (its ``pull_back`` and ``tracks``). A pull-back step
keeps the smallest preimage of its point in [0, 1) that lies in the
shadow set before it, on a scale that grows by the slope numerators. A
circle or interval map solves for it fragment by fragment and, in each,
piece by piece over the pieces the fragment crosses: the point's lift
that lands in a sub-piece's image is read on the set's own unit by one
division of small integers, so only the kept preimage is made and no
fragment is lifted to the growing scale. The spiral has one preimage
per step and compares its radius with the radial segment, then its angle
with the arcs. The witness's orbit is then re-checked in full, whatever
the pull-back: a re-check step applies the map
on the integer lattice and compares the orbit point with the trajectory
point by cross-multiplying their scales (``orbit_tracks``): no gcd, no
table and no lifted point.
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
from .enclosure import EnclosureSet, SetRecord
from .errors import DomainError, InvariantViolation, UsageError
from .pseudotraj import Pseudotrajectory
from .rationals import frac
from .spaces import ScaledPoints


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
    Yes prefix (None if no horizon is Yes) and the record of the shadow
    sets it read."""

    verdicts: tuple
    first_empty: int | None
    witness: tuple | None
    sets: SetRecord


def shadow_sets(system, points, eps) -> SetRecord:
    """The shadow sets A_0, A_1, ..., up to and including the first empty
    one, of points given as (numerators, scale) pairs, as a ``SetRecord``
    of each set's bare fragments, unit and radial segment. A point is
    read only when its set is built, so a ``LatticeWalk`` samples none
    after that.

    The ball around y_n is taken over P_n = lcm(scale of y_n, den(eps),
    lattice_base of the map) and lifted to W_n, the lcm of P_n and the
    unit of the image of A_{n-1}. A map of one linear piece (doubling,
    the rotations, the spiral) hands over its piece for the unit of
    A_{n-1} as constants (``line``): the image of each segment and arc is
    one segment or arc, mapped inside the loop by those constants times
    W_n over the image's unit. They are worked out again only when either
    unit changes, so doubling and the rotations take them once per
    trajectory; the map's own constants are carried to the next set's
    unit by the factor of the step, so they are asked of the map only at
    the first step and after a set is reduced, and the spiral neither
    builds a closure nor divides by alpha's denominator at each step. A
    map with corners makes its step for the two units (``image_step``)
    again only when either changes, and gives the image pieces of each
    fragment by the corner walk. The segment step, on the interval and on
    the annulus's radius, cuts the image segment at the ball's (the
    touching pieces of a segment's image give their hull); the arc step,
    on the circle and the annulus's angle, clips every image arc to the
    ball's by the one arc clip, and has no arcs to clip on the annulus
    once the radial segment is cut empty. One clipped arc or none is the
    next arc factor as it stands, and only more arcs are normalized
    (``enclosure._make``), which raises ``EnclosureCapError`` carrying
    A_n when A_n has more fragments than the cap, read at every call.
    Every ball is built inline, with no call: its arc by one modulo from
    a diameter taken once per unit, its segment by cutting at the ends of
    the interval or of the band [1 - w, 1 + w], taken once per unit. Each
    step appends the set's fragments, unit and radial segment to the
    record and builds no ``EnclosureSet``. A generated trajectory's
    scales nest, so W_n is P_n, with no gcd on an untruncated step, and
    no set is reduced. Where a point's scale is a multiple of the one
    before it and that one was P_{n-1}, P_n is the scale, and the ball's
    radius eps * P_n and the band's half-width w * P_n are carried across
    the change by the quotient, with no division by the denominator of
    eps or of w; on the annulus and the non-integer slopes that is every
    step. Otherwise (points read from a file, say) A_n is reduced by one
    gcd (``enclosure._reduced``), so its unit never exceeds the lcm of
    the denominators that A_{n-1} and the ball really carry. eps is read
    by ``frac`` and converted to integers once.
    """
    eps = frac(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    space, line = system.space, system.line
    circle, interval = space.kind == "circle", space.kind == "interval"
    annulus = not circle and not interval
    w_num, w_den = space.w_ratio if annulus else (0, 1)
    eps_num, eps_den = eps.numerator, eps.denominator
    base = math.lcm(eps_den, system.lattice_base)
    one_piece = line(base) is not None
    if not one_piece:
        image_step = system.image_step
    record = SetRecord(space, [], [], [])
    add_nums, add_unit = record.nums.append, record.units.append
    add_radial = record.radials.append
    nums = radial = None
    point_scale = step_u = step_unit = line_u = None
    lift = 0  # no radius to carry yet
    cs = fs = ca = fa = 0  # the segment's and the arc's constants
    blo = bhi = bs = bl = 0  # the ball's segment and arc
    for y, s in points:
        if s != point_scale:
            g, rem = divmod(s, point_scale) if lift == 1 else (0, 1)
            if rem:
                unit = s if s % base == 0 else math.lcm(s, base)
                lift, radius = unit // s, eps_num * (unit // eps_den)
                width = w_num * (unit // w_den)
            else:  # the scales nest, as a generated trajectory's do
                unit, radius, width = s, radius * g, width * g
            point_scale, diameter = s, 2 * radius
            floor, ceil = (unit - width, unit + width) if annulus \
                else (0, unit)
        if lift != 1:
            y = tuple(c * lift for c in y)
        if not circle:  # the ball's segment, cut at the ends
            blo, bhi = y[0] - radius, y[0] + radius
            if blo < floor:
                blo = floor
            if bhi > ceil:
                bhi = ceil
        if not interval:  # the ball's arc, or the whole circle
            bs, bl = ((0, unit) if diameter >= unit else
                      ((y[-1] - radius) % unit, diameter))
        if nums is None:
            nums, u = ((blo, bhi),) if interval else ((bs, bl),), unit
            radial = (blo, bhi) if annulus else None
            add_nums(nums)
            add_unit(u)
            add_radial(radial)
            continue
        if u != step_u or unit != step_unit:  # new units: W and the image
            step_u, step_unit = u, unit
            if not one_piece:
                step, w = image_step(u, unit)
            else:
                # the map's constants are for line_u: carried from the
                # step before, unless u was reduced since
                if u != line_u:
                    # the segment's constants, then the arc's; a circle
                    # or interval map has one pair, for whichever it has
                    q, *consts = line(u)
                    cs, fs, ca, fa = consts if annulus else consts * 2
                out = u * q
                if unit == out:  # the image's unit: no lift
                    w, m = out, 1
                    cms, fms, cma, fma = cs, fs, ca, fa
                else:
                    w = math.lcm(out, unit)
                    m = w // out
                    cms, fms, cma, fma = cs * m, fs * m, ca * m, fa * m
                g = q * m  # w / u: the next step's u, unless reduced
                if g != 1:
                    cs, ca = cs * g, ca * g
                line_u = w
        if unit != w:
            k = w // unit
            blo, bhi, bs, bl = blo * k, bhi * k, bs * k, bl * k
        if not circle:
            # the segment step: the image of the interval's one segment
            # or of the annulus's radial segment, cut at the ball's
            if one_piece:
                lo, hi = radial if annulus else nums[0]
                lo, hi = cms + fms * lo, cms + fms * hi
                if lo > hi:
                    lo, hi = hi, lo
            else:
                # the image pieces of a segment touch, so their union
                # is their hull
                los, his = zip(*step(nums[0]))
                lo, hi = min(los), max(his)
            if lo < blo:
                lo = blo
            if hi > bhi:
                hi = bhi
            if interval:
                nums = ((lo, hi),) if lo <= hi else ()
            else:
                radial = (lo, hi)
                if lo > hi:  # the empty set, whatever its arcs
                    nums = ()
        if not interval:
            # the arc step: every image arc clipped to the ball's; a
            # one-piece map's arcs are its fragments, mapped here by its
            # constants
            if one_piece:
                pieces = nums
            elif len(nums) == 1:
                pieces = step(nums[0])
            else:
                pieces = [p for f in nums for p in step(f)]
            got = ()
            for fx, fl in pieces:
                if one_piece:
                    fx, fl = cma + fma * fx, fma * fl
                    if fl < 0:
                        fx, fl = fx + fl, -fl
                # the arc from fx over the length fl met with the ball's
                # arc (bs, bl), bs in [0, w): at most two pieces, the one
                # from the ball's start first; t is where the meet begins
                # past fx
                if fl >= w:
                    got += ((bs, bl),)
                    continue
                fx %= w
                if bl >= w:
                    got += ((fx, fl),)
                    continue
                t = (bs - fx) % w
                if t <= fl:
                    got += ((bs, bl if t + bl <= fl else fl - t),)
                t += bl - w
                if t >= 0:
                    got += ((fx, t if t <= fl else fl),)
            nums = got if len(got) < 2 else \
                enclosure._make(space, got, w, radial).nums
        u = w
        if u != unit:
            nums, u, radial = enclosure._reduced(nums, u, base, radial)
        add_nums(nums)
        add_unit(u)
        add_radial(radial)
        if not nums:
            break
    return record


def shadow_set_forward(system, traj: Pseudotrajectory, eps) -> SetRecord:
    """The N + 1 shadow sets A_0, ..., A_N: ``shadow_sets``, with the first
    empty set repeated for the remaining steps (an empty set stays empty)."""
    points = traj.scaled
    sets = shadow_sets(system, zip(points.nums, points.scales), eps)
    more = len(points) - len(sets)
    sets.nums.extend([sets.nums[-1]] * more)
    sets.units.extend([sets.units[-1]] * more)
    sets.radials.extend([sets.radials[-1]] * more)
    return sets


def orbit_tracks(system, points, x0, eps) -> bool:
    """Direct re-check: does the orbit of x0 stay within eps of points.

    The orbit runs on the integer lattice from x0 over the lcm of its
    denominator and the map's lattice base (``Space.lattice_point``,
    which checks x0 and reduces its angle there), stepped inline by the
    map's ``tracks``, which makes no call per step. Point n, over its
    scale s, is compared with the orbit point over z_scale * s *
    den(eps), by cross-multiplying: no step takes a gcd or builds a lifted point. The
    map multiplies z_scale by the same q at every step (the lcm of its
    slope denominators). Where s grows by q too, as on every untruncated
    step of a generated spiral or tent trajectory, the lifts of the two
    points stay and the common unit and the bound are carried by q; at
    any other change of either scale the products are made again.
    ``Fraction`` points are put on scales first."""
    if not isinstance(points, ScaledPoints):
        points = ScaledPoints.from_points(points)
    z, z_scale = system.space.lattice_point(x0, system.lattice_base)
    return system.tracks(z, z_scale, points, frac(eps))


def pull_back_witness(system, sets, m):
    """Candidate witness: a point of A_0 pulled back from a point of A_m
    through per-step preimages, staying inside each recorded shadow set.
    At each step the smallest preimage in [0, 1) that lies in the set is
    kept. Returns None if some pull-back step finds no preimage in the
    set, which exact sets rule out (A_n lies in the image of A_{n-1}).

    The loop is the map's ``pull_back``, which makes no call per step. A
    circle or interval map finds each kept preimage fragment by fragment
    and, in each fragment, piece by piece over the pieces it crosses: the
    image of a sub-piece is a segment on A_n's own unit, and one division
    of small integers says which lift of the point lands in it and how
    far past its start, a remainder taking the point one more cell along.
    The first sub-piece, in increasing order, that holds a preimage holds
    the smallest, and only that preimage is made. On the annulus the
    radius is compared with the radial segment, then the angle with the
    arcs, each read on A_n's unit by one division. So no fragment is
    lifted to the growing scale, and only the witness is turned into
    Fractions. The caller re-checks the witness's orbit in full
    (``orbit_tracks``), however it was found. A plain sequence of
    ``EnclosureSet``s is put in a ``SetRecord`` first."""
    if not isinstance(sets, SetRecord):
        sets = SetRecord.of(sets)
    x, scale = sets[m].pick_scaled()
    found = system.pull_back(x, scale, sets, m)
    if found is None:
        return None
    x, scale = found
    return tuple(Fraction(c, scale) for c in x)


def horizon_verdicts(system, sets, points: ScaledPoints, eps,
                     horizons) -> HorizonVerdicts:
    """Certified verdicts for eps-shadowability of each horizon prefix,
    from the record of the shadow sets A_0, A_1, ... (all N + 1, or to the
    first empty one) and the points they were built from. The first empty
    set is read from the last: when that is nonempty, none is.

    Horizon m is No when some A_n with n <= m is empty, else Yes. One
    witness is pulled back, at the largest Yes horizon, and its orbit
    re-checked against that prefix of ``points``; it then tracks every
    shorter prefix too, so Yes can turn into No, never back. Exact sets
    always yield a witness that passes, so a failure is a bug and raises
    ``InvariantViolation`` rather than a verdict.
    """
    # shadow_sets stops at the first empty set; shadow_set_forward
    # repeats it to the end
    nums = sets.nums
    first_empty = None if nums[-1] else nums.index(())
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
    eps = _check_oracle_region(traj, eps)
    if system.kind != "rotation":
        raise UsageError("deviation lift is defined for rotations")
    alpha, pts = system.alpha, traj.scaled
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


def _check_oracle_region(traj, eps) -> Fraction:
    """eps as a ``Fraction``, once the oracle's region is checked."""
    eps = frac(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    if eps >= Fraction(1, 4):
        raise DomainError("rotation oracle requires eps < 1/4")
    if traj.d >= Fraction(1, 4):
        raise DomainError("rotation oracle requires step bound below 1/4")
    return eps

