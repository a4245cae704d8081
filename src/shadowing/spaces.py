"""Compact metric measure spaces: circle, interval and annulus.

Points are tuples of numbers, one coordinate for the circle ([0,1) with
wraparound) and for an interval (its ``ends``, [0, 1] unless given), two
for the annulus ((r, theta) with r in [1-w, 1+w], 0 < w < 1, and angular
theta in [0,1)). The annulus carries the max metric, so metric balls are
axis-aligned boxes and uniform sampling inside a ball factorizes per
coordinate: the annulus is the band [1 - w, 1 + w] times the circle, and
its maps are products, stepped factor by factor (``systems.ProductMap``).

Reference measures are length on the circle and on an interval and the
radial-by-angular product on the annulus (total mass 2w). Balls are
truncated at non-periodic boundaries, keeping every ball's measure
strictly positive; the sampling kernel normalizes by the truncated
measure.

Points enter and leave as ``Fraction`` coordinates (``canonical``,
``net_center``). Everything else runs on integer numerators over a
common denominator, the point's *scale*: ``ScaledPoints`` holds a
sequence of such points and builds a point's Fractions only when it is
read, ``scaled_point(point, base)`` puts a point on the lattice of a
map whose parameters live over ``base``, ``Space.lattice_point`` puts
it there in canonical form, checked and reduced on the lattice,
``check_scaled`` tests that points lie in the space and ``net_runs``
finds the net balls around a point or fragment, all by integer floors,
ceilings and cross-multiplied comparisons. The net's grid layout is
known here alone: ``net_center`` builds a center, ``net_runs`` inverts
the layout. An interval's ends are kept as integers too
(``Space.ends_ratio``), so a step at a new scale reads no ``Fraction``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UsageError
from .rationals import frac, point_text

HALF = Fraction(1, 2)

# A uniform draw is the double k / 2**53, read as its integer k
# (``pseudotraj.trial_stream``).
TWO53 = 1 << 53

Point = tuple


def scaled_point(point, base: int = 1) -> tuple:
    """(numerators, scale) of a point of rationals, over the lcm of
    ``base`` and the denominators of its coordinates; a float is read as
    its exact value. A map's point goes on its lattice with the map's
    ``lattice_base`` as ``base``."""
    coords = [Fraction(c) if isinstance(c, float) else c for c in point]
    scale = math.lcm(base, *(c.denominator for c in coords))
    return tuple(c.numerator * (scale // c.denominator) for c in coords), scale


class ScaledPoints(Sequence):
    """Points held as integer numerators over per-point scales.

    Point n is ``nums[n]`` over ``scales[n]``. Indexing builds that point's
    ``Fraction`` coordinates; slicing returns another ScaledPoints and
    builds none.
    """

    __slots__ = ("nums", "scales")

    def __init__(self, nums: list, scales: list):
        self.nums = nums
        self.scales = scales

    @classmethod
    def from_points(cls, points) -> "ScaledPoints":
        """The points over nested scales (see ``nested``); a float is read
        as its exact value."""
        return cls.nested([[c.as_integer_ratio() if isinstance(c, float)
                             else (c.numerator, c.denominator) for c in p]
                            for p in points])

    @classmethod
    def nested(cls, rows) -> "ScaledPoints":
        """Points given as rows of coordinates, each a (numerator,
        denominator) pair with a positive denominator, over nested scales:
        a point whose reduced denominator (the lcm of its coordinates')
        divides the previous point's scale moves to that scale, any other
        point takes its own. So the scale changes only where it must (so a
        shadow-set step meets its ball on the ball's own unit, with no gcd)
        and never exceeds the largest reduced denominator among the
        points. A pair is reduced, by one gcd, only where its denominator
        does not divide the previous scale: where it does, the lifted
        numerator is the same either way."""
        nums, scales = [], []
        scale = 1
        for row in rows:
            y = []
            for num, den in row:
                lift, off = divmod(scale, den)
                if off:
                    own = math.lcm(*[den // math.gcd(num, den)
                                     for num, den in row])
                    if scale % own:
                        scale = own
                    y = [num * scale // den for num, den in row]
                    break
                y.append(num * lift)
            nums.append(tuple(y))
            scales.append(scale)
        return cls(nums, scales)

    @classmethod
    def joined(cls, parts) -> "ScaledPoints":
        """The points whose coordinates are those of the points of
        ``parts`` (ScaledPoints of one length, a factor's each), in turn,
        each point over the lcm of its parts' scales."""
        nums, scales = [], []
        for row in zip(*(zip(p.nums, p.scales) for p in parts)):
            scale = math.lcm(*(s for _, s in row))
            nums.append(tuple(c * (scale // s) for y, s in row for c in y))
            scales.append(scale)
        return cls(nums, scales)

    def coordinate(self, i: int) -> "ScaledPoints":
        """The points' coordinate i, each over its point's scale."""
        return ScaledPoints([(y[i],) for y in self.nums], self.scales)

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScaledPoints(self.nums[i], self.scales[i])
        scale = self.scales[i]
        return tuple(Fraction(c, scale) for c in self.nums[i])


@dataclass(frozen=True)
class Space:
    """A compact metric space with a reference measure.

    kind is one of ``circle``, ``interval``, ``annulus``; ``w`` is the
    annulus half-width (None otherwise). ``ends`` are an interval's ends,
    [0, 1] unless given, or the annulus's radial ends 1 -+ w, and
    ``ends_ratio`` the same as integers (lo, hi, den) over one
    denominator, for the integer kernel. Instances are immutable and safe
    to share across concurrent readers.
    """

    kind: str
    w: Fraction | None = None
    ends: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("circle", "interval", "annulus"):
            raise UsageError(f"unknown space kind {self.kind!r}")
        if self.kind == "annulus":
            if self.w is None or not 0 < self.w < 1:
                raise DomainError("annulus half-width w must satisfy "
                                  "0 < w < 1, so every radius is positive")
            ends = (1 - self.w, 1 + self.w)
        elif self.w is not None:
            raise UsageError(f"{self.kind} space takes no width parameter")
        elif self.kind == "interval":
            ends = tuple(map(frac, self.ends or (0, 1)))
            if not ends[0] < ends[1]:
                raise UsageError(f"interval ends must be lo < hi, got {ends}")
        else:
            return
        den = math.lcm(*(e.denominator for e in ends))
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "ends_ratio", tuple(
            e.numerator * (den // e.denominator) for e in ends) + (den,))

    @property
    def ndim(self) -> int:
        return 2 if self.kind == "annulus" else 1

    @property
    def diameter(self):
        if self.kind == "circle":
            return HALF
        if self.kind == "interval":
            return self.ends[1] - self.ends[0]
        return max(2 * self.w, HALF)

    # -- points ---------------------------------------------------------

    def canonical(self, point) -> Point:
        """Reduce a point to canonical coordinates, validating the domain
        (``check_scaled``): angular coordinates are reduced mod 1 into
        [0,1) (ties at the wrap resolve to 0), twice, since a float just
        below 0 rounds up to 1.0 once. Numeric types are preserved.
        A point bound for the lattice takes ``lattice_point``, which
        builds no ``Fraction``.
        """
        if not isinstance(point, (tuple, list)):
            raise UsageError(f"a point is a tuple, got {point!r}")
        if self.kind == "circle" and len(point) == 1:  # needs only its count
            return (point[0] % 1 % 1,)
        self.check_scaled(ScaledPoints.from_points([point]))
        if self.kind == "interval":
            return tuple(point)
        return (point[0], point[1] % 1 % 1)

    def lattice_point(self, point, base: int = 1) -> tuple:
        """``scaled_point(self.canonical(point), base)``, with the same
        errors, but taken on the lattice: the point goes over the lcm of
        ``base`` and its denominators first, where ``check_scaled`` checks
        it and the angle is reduced modulo the scale, so no ``Fraction``
        is built. A point with a float coordinate takes ``canonical``,
        whose angle is reduced in floating point."""
        if not isinstance(point, (tuple, list)):
            raise UsageError(f"a point is a tuple, got {point!r}")
        if any(isinstance(c, float) for c in point):
            return scaled_point(self.canonical(point), base)
        nums, scale = scaled_point(point, base)
        self.check_scaled(ScaledPoints([nums], [scale]))
        if self.kind == "interval":
            return nums, scale
        return (*nums[:-1], nums[-1] % scale), scale

    def check_scaled(self, points: ScaledPoints) -> None:
        """Raise unless every point, numerators over its scale, lies in the
        space, by integer comparisons: ``UsageError`` for a wrong count of
        coordinates, ``DomainError`` for an interval coordinate outside
        the interval's ends or a radius outside the annulus band [1 - w,
        1 + w]. Angles wrap, so a circle point costs one ``len``."""
        ndim = self.ndim
        for n, y in enumerate(points.nums):
            if len(y) != ndim:
                raise UsageError(f"point {n}: {self.kind} points have "
                                 f"{ndim} coordinate(s), got {len(y)}")
        if self.kind == "circle":
            return
        lo, hi, den = self.ends_ratio
        for n, (y, s) in enumerate(zip(points.nums, points.scales)):
            if not lo * s <= y[0] * den <= hi * s:
                raise DomainError(f"point {n} {point_text(points[n])} lies "
                                  f"outside the {self.kind}")

    # -- covers ----------------------------------------------------------

    def net_size(self, delta1) -> int:
        """The number n = ceil(1 / delta1) of centers (``net_center``) of
        the delta1-net: a cover of the circle or interval by open
        delta1-balls, every point of the space lying strictly within
        delta1 of some center."""
        if self.kind == "annulus":
            raise UsageError("the annulus has no cover net; its bounds come "
                             "from the absorbing band")
        if self.kind == "interval" and self.ends != (0, 1):
            raise UsageError("the cover net is laid on [0, 1], not on "
                             f"[{self.ends[0]}, {self.ends[1]}]")
        if delta1 <= 0:
            raise DomainError("net radius must be positive")
        return max(-(-delta1.denominator // delta1.numerator), 1)

    def net_center(self, k: int, n: int) -> Point:
        """Center k of the net of n centers: k / n on the circle,
        (2k + 1) / 2n on the interval."""
        if self.kind == "circle":
            return (Fraction(k, n),)
        return (Fraction(2 * k + 1, 2 * n),)

    def net_runs(self, lo: int, hi: int, unit: int, delta1, n: int,
                 closed: bool) -> list[tuple[int, int]]:
        """Runs (first, last) of the indices of the centers of the
        delta1-net of n = net_size(delta1) centers that lie within delta1
        of the point or fragment from lo / unit to hi / unit: strictly
        within (the open balls around the centers meet it) unless
        ``closed`` (the closed balls do). A circle arc (start, length) is
        given as lo = start, hi = start + length, and a run past index
        n - 1 wraps to 0, so an arc gives at most two runs. One ceiling
        finds each run's first index and one floor its last, so the cost
        is independent of the net size."""
        a, b = delta1.numerator, delta1.denominator
        ub = unit * b
        # over 2 n ub, center k lies at 2k ub on the circle and at
        # (2k + 1) ub on the interval; an open ball ends one short
        shift = ub if self.kind == "interval" else 0
        strict = 0 if closed else 1
        first = -((shift - strict - 2 * n * (lo * b - a * unit)) // (2 * ub))
        last = (2 * n * (hi * b + a * unit) - shift - strict) // (2 * ub)
        if self.kind == "interval":
            return [(max(first, 0), min(last, n - 1))]
        if last - first + 1 >= n:
            return [(0, n - 1)]
        start = first % n
        end = start + last - first
        return [(start, end)] if end < n else [(start, n - 1), (0, end - n)]


def circle() -> Space:
    return Space("circle")


def interval(lo=0, hi=1) -> Space:
    return Space("interval", ends=(frac(lo), frac(hi)))


def annulus(w) -> Space:
    return Space("annulus", frac(w))

