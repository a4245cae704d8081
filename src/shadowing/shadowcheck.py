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
while they stay. An interval set is one segment and a circle set is
arcs, so a step is a segment step, which maps the segment and cuts it at
the ball's, or an arc step, which clips every image arc to the ball's.
One arc or none is the next set as it stands, and only more arcs are put
in normal form. The sets are kept as a ``SetRecord``, each set's bare
fragments and unit, and a set object is built only when a set is read
by index.
The pull-back and the re-check are loops that the map runs itself, each
with no call per step (its ``pull_back`` and ``tracks``). A pull-back step
keeps the smallest preimage of its point that lies in the shadow set
before it, on a scale that grows by the slope numerators. The map solves
for it fragment by fragment and, in each, piece by piece over the pieces
the fragment crosses: the point's lift that lands in a sub-piece's image
is read on the set's own unit by one division of small integers, so only
the kept preimage is made and no fragment is lifted to the growing
scale. The witness's orbit is then re-checked in full, whatever the
pull-back: a re-check step applies the map on the integer lattice and
compares the orbit point with the trajectory point by cross-multiplying
their scales (``orbit_tracks``): no gcd, no table and no lifted point.
The spiral is a product map under the max metric (``systems.ProductMap``),
so ``horizon_verdicts`` decides it factor by factor, each with its own
sets, pull-back and re-check, and takes the conjunction.
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
from itertools import islice
from operator import itemgetter

from . import enclosure
from .enclosure import SetRecord
from .errors import DomainError, InvariantViolation, UsageError
from .pseudotraj import Pseudotrajectory
from .rationals import frac
from .spaces import ScaledPoints


class Verdict(str, Enum):
    YES = "Yes"
    NO = "No"


@dataclass(frozen=True)
class ShadowVerdict:
    """A verdict, its witness, its first empty step and the last shadow
    set as one set per factor of the map: their product. ``set_stats``
    counts the last factor's fragments (a spiral set's arcs), none if a
    factor's set is empty, and multiplies the factors' measures."""

    verdict: Verdict
    witness: tuple | None
    n_empty: int | None
    final_sets: tuple

    def to_json(self) -> dict:
        sets = self.final_sets
        empty = any(s.is_empty() for s in sets)
        return {
            "verdict": self.verdict.value,
            "witness": None if self.witness is None
            else [str(c) for c in self.witness],
            "n_empty": self.n_empty,
            "set_stats": {
                "fragments": 0 if empty else sets[-1].fragment_count(),
                "measure": str(math.prod(s.measure() for s in sets)),
                "variant": "exact",  # every set is exact; kept in the output
            },
        }


@dataclass(frozen=True)
class HorizonVerdicts:
    """What ``horizon_verdicts`` found: a verdict per horizon, the first
    empty step (None if every A_n is nonempty), the witness of the longest
    Yes prefix (None if no horizon is Yes) and the records of the shadow
    sets it read, one ``SetRecord`` per factor of the map."""

    verdicts: tuple
    first_empty: int | None
    witness: tuple | None
    records: tuple


def shadow_sets(system, points, eps) -> SetRecord:
    """The shadow sets A_0, A_1, ..., up to and including the first empty
    one, of a map of the circle or an interval, of points given as
    (numerators, scale) pairs, as a ``SetRecord`` of each set's bare
    fragments and unit. A point is read only when its set is built, so a
    ``LatticeWalk`` samples none after that.

    The ball around y_n is taken over P_n = lcm(scale of y_n, den(eps),
    lattice_base of the map) and lifted to W_n, the lcm of P_n and the
    unit of the image of A_{n-1}. A map of one linear piece (doubling,
    the rotations, the radial contraction) hands over its piece for the
    unit of A_{n-1} as constants (``line``): the image of each segment or
    arc is one segment or arc, mapped inside the loop by those constants
    times W_n over the image's unit. They are worked out again only when
    either unit changes, so doubling and the rotations take them once per
    trajectory; the map's own constant is carried to the next set's unit
    by the factor of the step, so it is asked of the map only at the
    first step and after a set is reduced. A map with corners makes its
    step for the two units (``image_step``) again only when either
    changes, and gives the image pieces of each fragment by the corner
    walk. The segment step, on an interval, cuts the image segment at the
    ball's (the touching pieces of a segment's image give their hull);
    the arc step, on the circle, clips every image arc to the ball's by
    the one arc clip. One clipped arc or none is the next set as it
    stands, and only more arcs are normalized (``enclosure._make``),
    which raises ``EnclosureCapError`` carrying A_n when A_n has more
    fragments than the cap, read at every call. Every ball is built
    inline, with no call: its arc by one modulo from a diameter taken
    once per unit, its segment by cutting at the interval's ends, taken
    once per unit. Each step appends the set's fragments and unit to the
    record and builds no ``EnclosureSet``. A generated trajectory's
    scales nest, so W_n is P_n, with no gcd on an untruncated step, and
    no set is reduced. Where a point's scale is a multiple of the one
    before it and that one was P_{n-1}, P_n is the scale, and the ball's
    radius eps * P_n and the interval's ends over P_n are carried across
    the change by the quotient, with no division by the denominator of
    eps or of the ends; on the non-integer slopes that is every step.
    Otherwise (points read from a file, say) A_n is reduced by one gcd
    (``enclosure._reduced``), so its unit never exceeds the lcm of the
    denominators that A_{n-1} and the ball really carry. eps is read by
    ``frac`` and converted to integers once.
    """
    eps = frac(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    space, line = system.space, system.line
    interval = space.kind == "interval"
    lo_num, hi_num, den = space.ends_ratio if interval else (0, 0, 1)
    eps_num, eps_den = eps.numerator, eps.denominator
    base = math.lcm(eps_den, system.lattice_base)
    one_piece = line(base) is not None
    if not one_piece:
        image_step = system.image_step
    record = SetRecord(space, [], [])
    add_nums, add_unit = record.nums.append, record.units.append
    nums = None
    point_scale = step_u = step_unit = line_u = None
    lift = 0  # no radius to carry yet
    c = f = 0  # the map's constants
    blo = bhi = bs = bl = 0  # the ball's segment or arc
    for y, s in points:
        if s != point_scale:
            g, rem = divmod(s, point_scale) if lift == 1 else (0, 1)
            if rem:
                unit = s if s % base == 0 else math.lcm(s, base)
                lift, radius = unit // s, eps_num * (unit // eps_den)
                floor, ceil = lo_num * (unit // den), hi_num * (unit // den)
            else:  # the scales nest, as a generated trajectory's do
                unit, radius = s, radius * g
                floor, ceil = floor * g, ceil * g
            point_scale, diameter = s, 2 * radius
        if lift != 1:
            y = tuple(x * lift for x in y)
        if interval:  # the ball's segment, cut at the ends
            blo, bhi = y[0] - radius, y[0] + radius
            if blo < floor:
                blo = floor
            if bhi > ceil:
                bhi = ceil
        else:  # the ball's arc, or the whole circle
            bs, bl = ((0, unit) if diameter >= unit else
                      ((y[0] - radius) % unit, diameter))
        if nums is None:
            nums, u = ((blo, bhi),) if interval else ((bs, bl),), unit
            add_nums(nums)
            add_unit(u)
            continue
        if u != step_u or unit != step_unit:  # new units: W and the image
            step_u, step_unit = u, unit
            if not one_piece:
                step, w = image_step(u, unit)
            else:
                # the map's constants are for line_u: carried from the
                # step before, unless u was reduced since
                if u != line_u:
                    q, c, f = line(u)
                out = u * q
                if unit == out:  # the image's unit: no lift
                    w, cm, fm = out, c, f
                else:
                    w = math.lcm(out, unit)
                    m = w // out
                    cm, fm = c * m, f * m
                g = w // u  # the next step's u, unless reduced
                if g != 1:
                    c *= g
                line_u = w
        if unit != w:
            k = w // unit
            blo, bhi, bs, bl = blo * k, bhi * k, bs * k, bl * k
        if interval:
            # the segment step: the image of the one segment, cut at the
            # ball's
            if one_piece:
                lo, hi = nums[0]
                lo, hi = cm + fm * lo, cm + fm * hi
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
            nums = ((lo, hi),) if lo <= hi else ()
        else:
            # the arc step: every image arc clipped to the ball's; a
            # one-piece map's arcs are its fragments, mapped here by its
            # constants
            if one_piece:
                pieces = nums
            elif len(nums) == 1:
                pieces = step(nums[0])
            else:
                pieces = [p for x in nums for p in step(x)]
            got = ()
            for fx, fl in pieces:
                if one_piece:
                    fx, fl = cm + fm * fx, fm * fl
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
                enclosure._make(space, got, w).nums
        u = w
        if u != unit:
            nums, u = enclosure._reduced(nums, u, base)
        add_nums(nums)
        add_unit(u)
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
    step of a generated radius or tent trajectory, the lifts of the two
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
    the smallest, and only that preimage is made. So no fragment is
    lifted to the growing scale, and only the witness is turned into
    Fractions. A product map's witness is pulled back factor by factor
    (``horizon_verdicts``). The caller re-checks the witness's orbit in full
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


def horizon_verdicts(system, steps, taken, eps,
                     horizons) -> HorizonVerdicts:
    """The one decision entry: certified verdicts for eps-shadowability
    of each horizon prefix of the points that ``steps`` yields as
    (numerators, scale) pairs, read only as needed, and that ``taken``
    (a ``ScaledPoints``) holds once read, as a ``LatticeWalk`` does. The
    shadow sets are propagated to the first empty one (``shadow_sets``).

    Horizon m is No when some A_n with n <= m is empty, else Yes. One
    witness is pulled back, at the largest Yes horizon, and its orbit
    re-checked against that prefix; it then tracks every shorter prefix
    too. Exact sets always yield a witness that passes, so a failure is a
    bug and raises ``InvariantViolation`` rather than a verdict.

    A product map is decided factor by factor: ``steps`` yields per step
    its factors' points and ``taken`` is their tuple of ``ScaledPoints``
    (a ``systems.ProductWalk``'s). Its shadow sets are the products of its
    factors', so its first empty step is their smallest and each verdict
    their conjunction. The last factor (the spiral's angle) is propagated
    first; the others only on the points that read. Each factor's witness
    is pulled back from the one largest Yes horizon and re-checked.
    """
    factors = getattr(system, "factors", None)
    if factors is None:
        records, factors, taken = ((shadow_sets(system, steps, eps),),
                                   (system,), (taken,))
    else:
        lead = shadow_sets(factors[-1], map(itemgetter(-1), steps), eps)
        records = tuple(
            shadow_sets(f, islice(zip(t.nums, t.scales), len(lead)), eps)
            for f, t in zip(factors[:-1], taken)) + (lead,)
    return _verdicts(factors, records, taken, eps, horizons)


def _verdicts(factors, records, taken, eps, horizons) -> HorizonVerdicts:
    """``horizon_verdicts`` once each factor's shadow sets are in its
    record, to its first empty set or repeated past it."""
    empties = [r.nums.index(()) for r in records if not r.nums[-1]]
    first_empty = min(empties) if empties else None
    verdicts = tuple(
        Verdict.NO if first_empty is not None and m >= first_empty
        else Verdict.YES for m in horizons)
    yes = [m for m, v in zip(horizons, verdicts) if v is Verdict.YES]
    witness = None
    if yes:
        m, witness = max(yes), ()
        for f, sets, points in zip(factors, records, taken):
            part = pull_back_witness(f, sets, m)
            if part is None or not orbit_tracks(f, points[:m + 1], part,
                                                eps):
                raise InvariantViolation(
                    f"witness extraction failed at horizon {m}")
            witness += part
    return HorizonVerdicts(verdicts, first_empty, witness, records)


def decide_horizons(system, traj: Pseudotrajectory, eps,
                    horizons) -> HorizonVerdicts:
    """``horizon_verdicts`` on a whole trajectory, whose points are first
    checked to lie in the space (``Space.check_scaled``): all N + 1 sets
    of ``shadow_set_forward``, or a product's factors on each coordinate
    of the points over their scales."""
    points = traj.scaled
    system.space.check_scaled(points)
    factors = getattr(system, "factors", None)
    if factors is None:
        return _verdicts((system,), (shadow_set_forward(system, traj, eps),),
                         (points,), eps, horizons)
    taken = tuple(points.coordinate(i) for i in range(len(factors)))
    return horizon_verdicts(
        system, zip(*(zip(t.nums, t.scales) for t in taken)), taken, eps,
        horizons)


def decide_shadowable(system, traj: Pseudotrajectory, eps) -> ShadowVerdict:
    """Certified verdict for eps-shadowability over the trajectory horizon.

    Yes always carries a witness initial point whose orbit has been
    re-checked directly against the trajectory; No names the first empty
    step.
    """
    found = decide_horizons(system, traj, eps, (traj.horizon,))
    return ShadowVerdict(found.verdicts[0], found.witness, found.first_empty,
                         tuple(r[-1] for r in found.records))


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

