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
alone: the map walks the linear pieces of each fragment of A_n and clips
each image piece to the ball as it is made, and only when more than one
piece is left are they put in normal form.
A pull-back step takes the preimages of its point on a scale that grows
by the slope numerators, and reads each on the shadow set's own unit by
one division (``EnclosureSet.first_inside``), so no fragment is lifted to
the growing scale. A re-check step applies the map on the integer lattice
and compares the orbit point with the trajectory point by
cross-multiplying their scales (``orbit_tracks``): no gcd, no table and
no lifted point.
A set that outgrows the fragment cap raises ``EnclosureCapError`` instead
of giving a verdict.

A closed-form span criterion for rotations (``rotation_first_failure``)
cross-checks the propagation. The tests keep a float grid search
(``tests/grid_oracle.py``) and ``Fraction`` copies of the preimages, the
set representative, the rotations' deviation lift and the verdict helpers
(``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import enclosure
from .enclosure import EnclosureSet
from .errors import DomainError, EnclosureCapError, UsageError
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


def shadow_sets(system, points, eps):
    """The shadow sets A_0, A_1, ..., up to and including the first empty
    one, of points given as (numerators, scale) pairs. A point is read only
    when its set is built, so a ``LatticeWalk`` samples none after that.

    The ball around y_n is taken over P_n = lcm(scale of y_n, den(eps),
    lattice_base of the map). The map walks the pieces of A_{n-1} and
    clips each image piece to the ball as it is made, over the lcm of the
    image's unit and P_n, W_n (``image_in_ball``); only more than one
    clipped piece is normalized. A generated trajectory's scales nest, so
    W_n is P_n and no step needs a gcd. Otherwise (points read from a
    file, say) A_n is reduced by one gcd, so its unit never exceeds the
    lcm of the denominators that A_{n-1} and the ball really carry. eps
    is converted to integers once.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    eps = frac(eps)
    space = system.space
    eps_num, eps_den = eps.numerator, eps.denominator
    base = math.lcm(eps_den, system.lattice_base)
    prev = point_scale = None
    for y, s in points:
        if s != point_scale:
            # a generated annulus scale doubles every step, and base
            # divides it: no lcm is needed there
            point_scale, unit = s, s if s % base == 0 else math.lcm(s, base)
            lift, radius = unit // s, eps_num * (unit // eps_den)
        if lift != 1:
            y = tuple(c * lift for c in y)
        ball = enclosure._ball(space, y, radius, unit)
        if prev is None:
            nxt = EnclosureSet(space, (ball,), unit)
        else:
            nxt = system.image_in_ball(prev, ball, unit)
            if nxt.unit != unit:
                nxt = nxt.reduced(base)
        yield nxt
        if nxt.is_empty():
            return
        prev = nxt


def shadow_set_forward(system, traj: Pseudotrajectory,
                       eps) -> list[EnclosureSet]:
    """The N + 1 shadow sets A_0, ..., A_N: ``shadow_sets``, with the first
    empty set repeated for the remaining steps (an empty set stays empty)."""
    points = traj.scaled
    sets = list(shadow_sets(system, zip(points.nums, points.scales), eps))
    sets.extend([sets[-1]] * (len(points) - len(sets)))
    return sets


def orbit_tracks(system, points, x0, eps) -> bool:
    """Direct re-check: does the orbit of x0 stay within eps of points.

    The orbit runs on the integer lattice (``apply_scaled``) from x0 over
    the lcm of its denominator and the map's lattice base. Point n, over
    its scale s, is compared with the orbit point over z_scale * s *
    den(eps), by cross-multiplying: no step takes a gcd or builds a lifted
    point. ``Fraction`` points are put on scales first."""
    space = system.space
    if not isinstance(points, ScaledPoints):
        points = ScaledPoints.from_points(points)
    eps = frac(eps)
    eps_num, eps_den = eps.numerator, eps.denominator
    z, z_scale = scaled_point(space.canonical(x0))
    start = math.lcm(z_scale, system.lattice_base)
    z, z_scale = tuple(c * (start // z_scale) for c in z), start
    apply, beyond = system.apply_scaled, space.beyond
    key = None
    for y, s in zip(points.nums, points.scales):
        if key != (z_scale, s):
            key = (z_scale, s)
            z_lift, y_lift = s * eps_den, z_scale * eps_den
            common, bound = z_scale * z_lift, eps_num * z_scale * s
        if beyond(z, z_lift, y, y_lift, common, bound):
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
    slope numerators, and ``first_inside``, which reads each candidate
    over A_n's own unit by one division; only the witness is turned into
    Fractions."""
    x, scale = sets[m].pick_scaled()
    for n in range(m - 1, -1, -1):
        candidates, scale = system.preimages_scaled(x, scale)
        x = sets[n].first_inside(candidates, scale)
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
    always yield a witness that passes, so a failure raises
    ``EnclosureCapError`` rather than a verdict.
    """
    first_empty = next((n for n, s in enumerate(sets) if s.is_empty()), None)
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
            raise EnclosureCapError(
                f"witness extraction failed at horizon {m}", partial=sets[m])
    return HorizonVerdicts(verdicts, first_empty, witness, sets)


def decide_horizons(system, traj: Pseudotrajectory, eps,
                    horizons) -> HorizonVerdicts:
    """``horizon_verdicts`` on all N + 1 sets of a whole trajectory."""
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

