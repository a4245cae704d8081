"""Compact metric measure spaces: circle, interval and annulus.

Points are tuples of numbers, one coordinate for the circle ([0,1) with
wraparound) and the interval ([0,1]), two for the annulus ((r, theta) with
r in [1-w, 1+w] and angular theta in [0,1)). The annulus carries the max
metric, so metric balls are axis-aligned boxes and uniform sampling inside
a ball factorizes per coordinate.

Reference measures are normalized length on the circle and interval (total
mass 1) and the radial-by-angular product on the annulus (total mass 2w).
Balls are truncated at non-periodic boundaries, keeping every ball's
measure strictly positive; the sampling kernel normalizes by the truncated
measure.

Points enter and leave as ``Fraction`` coordinates (``canonical``,
``net_center``). Everything else runs on integer numerators over a
common denominator, the point's *scale*: ``ScaledPoints`` holds a
sequence of such points and builds a point's Fractions only when it is
read, ``sample_scaled`` draws a point of a ball, ``beyond`` compares a
distance with a bound and ``net_neighbors`` finds the net balls around a
point, all by integer floors, ceilings and cross-multiplied comparisons.
The annulus half-width is kept as an integer pair too (``Space.w_ratio``),
so a step at a new scale reads no ``Fraction``. The tests hold the sampler
to a ``Fraction`` copy of it (``tests/reference.py``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UsageError
from .rationals import frac

HALF = Fraction(1, 2)

# A uniform draw is the double k / 2**53, read as its integer k
# (``pseudotraj.trial_stream``).
TWO53 = 1 << 53

Point = tuple


def circ_dist(a, b, unit=1):
    """Arc-length distance on the circle, inputs canonical in [0, unit)."""
    t = (a - b) % unit
    return min(t, unit - t)


def scaled_point(point) -> tuple:
    """(numerators, scale) of a point of rationals, over the lcm of the
    denominators of its coordinates."""
    coords = [Fraction(c) if isinstance(c, float) else c for c in point]
    scale = math.lcm(*(c.denominator for c in coords))
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
        """The points over nested scales (see ``nested``)."""
        return cls.nested(scaled_point(p) for p in points)

    @classmethod
    def nested(cls, pairs) -> "ScaledPoints":
        """Points given as (numerators, scale) pairs in lowest terms, over
        nested scales: a point whose scale divides the previous point's
        scale moves to that scale, any other point keeps its own. So the
        scale changes only where it must (so a shadow-set step meets its
        ball on the ball's own unit, with no gcd) and never exceeds the
        largest reduced denominator among the points."""
        nums, scales = [], []
        for num, scale in pairs:
            if scales and scales[-1] % scale == 0:
                lift, scale = scales[-1] // scale, scales[-1]
                num = tuple(c * lift for c in num)
            nums.append(num)
            scales.append(scale)
        return cls(nums, scales)

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScaledPoints(self.nums[i], self.scales[i])
        scale = self.scales[i]
        return tuple(Fraction(c, scale) for c in self.nums[i])


def _sample_arc_scaled(center, radius, scale, k):
    if 2 * radius >= scale:
        return k * (scale >> 53)
    return (center - radius + (2 * radius >> 53) * k) % scale


@dataclass(frozen=True)
class Space:
    """A compact metric space with a reference measure.

    kind is one of ``circle``, ``interval``, ``annulus``; ``w`` is the
    annulus half-width (None otherwise) and ``w_ratio`` the same width as
    an integer (numerator, denominator) pair, converted once here for the
    integer kernel. Instances are immutable and safe to share across
    concurrent readers.
    """

    kind: str
    w: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("circle", "interval", "annulus"):
            raise UsageError(f"unknown space kind {self.kind!r}")
        if self.kind == "annulus":
            if self.w is None or self.w <= 0:
                raise DomainError("annulus half-width w must be positive")
            object.__setattr__(self, "w_ratio", self.w.as_integer_ratio())
        elif self.w is not None:
            raise UsageError(f"{self.kind} space takes no width parameter")

    @property
    def ndim(self) -> int:
        return 2 if self.kind == "annulus" else 1

    @property
    def diameter(self):
        if self.kind == "circle":
            return HALF
        if self.kind == "interval":
            return Fraction(1)
        return max(2 * self.w, HALF)

    # -- points ---------------------------------------------------------

    def canonical(self, point) -> Point:
        """Reduce a point to canonical coordinates, validating the domain.

        Angular coordinates are reduced mod 1 into [0,1) (ties at the wrap
        resolve to 0); bounded coordinates must already lie in range.
        Numeric types are preserved.
        """
        if not isinstance(point, (tuple, list)) or len(point) != self.ndim:
            raise UsageError(
                f"{self.kind} points have {self.ndim} coordinate(s), got {point!r}")
        if self.kind == "circle":
            return (point[0] % 1,)
        if self.kind == "interval":
            x = point[0]
            if not 0 <= x <= 1:
                raise DomainError(f"interval coordinate {x} outside [0, 1]")
            return (x,)
        r, theta = point
        if not 1 - self.w <= r <= 1 + self.w:
            raise DomainError(f"radial coordinate {r} outside the annulus band")
        return (r, theta % 1)

    # -- metric ---------------------------------------------------------

    def beyond(self, a: Point, a_lift, b: Point, b_lift, unit, bound) -> bool:
        """Whether a * a_lift and b * b_lift, numerators over unit, lie
        more than bound (a numerator over unit) apart in the space's
        metric, without building the lifted points."""
        if self.kind == "circle":
            t = (a[0] * a_lift - b[0] * b_lift) % unit
            return t > bound and unit - t > bound
        if self.kind == "interval":
            return abs(a[0] * a_lift - b[0] * b_lift) > bound
        if abs(a[0] * a_lift - b[0] * b_lift) > bound:
            return True
        t = (a[1] * a_lift - b[1] * b_lift) % unit
        return t > bound and unit - t > bound

    # -- sampling --------------------------------------------------------

    def sample_scaled(self, center, scale: int, r: int, draws) -> tuple:
        """A point drawn uniformly (w.r.t. the reference measure) from the
        r-ball around center intersected with the space, from one uniform
        double per coordinate.

        ``center`` and the radius ``r`` are integer numerators over
        ``scale``; each uniform is taken from ``draws`` as the integer k of
        its double k / 2**53. Returns the point's numerators and scale:
        lo + (hi - lo) * k / 2**53 on the truncated segment [lo, hi], and
        center - r + 2r * k / 2**53 mod 1 on an arc (k / 2**53 where the
        arc is the whole circle). ``scale`` must be a multiple of 2**53
        and of the denominator of w, which is read from ``w_ratio``, so no
        ``Fraction`` is touched. An untruncated step keeps the scale; a
        step truncated at a boundary multiplies it by the power of two, at
        most 2**53, that keeps the draw exact.
        """
        if self.kind == "circle":
            return (_sample_arc_scaled(center[0], r, scale, next(draws)),), \
                scale
        if self.kind == "interval":
            lo, hi = max(center[0] - r, 0), min(center[0] + r, scale)
        else:
            w_num, w_den = self.w_ratio
            w = w_num * (scale // w_den)
            lo = max(center[0] - r, scale - w)
            hi = min(center[0] + r, scale + w)
        span = hi - lo
        low_bit = span & -span
        grow = TWO53 // low_bit if low_bit < TWO53 else 1
        x = lo * grow + (span * grow >> 53) * next(draws)
        scale *= grow
        if self.kind == "interval":
            return (x,), scale
        theta = _sample_arc_scaled(center[1] * grow, r * grow, scale,
                                   next(draws))
        return (x, theta), scale

    # -- covers ----------------------------------------------------------

    def net_size(self, delta1) -> int:
        """The number n = ceil(1 / delta1) of centers (``net_center``) of
        the delta1-net: a cover of the circle or interval by open
        delta1-balls, every point of the space lying strictly within
        delta1 of some center."""
        if self.kind == "annulus":
            raise UsageError("the annulus has no cover net; its bounds come "
                             "from the absorbing band")
        if delta1 <= 0:
            raise DomainError("net radius must be positive")
        return max(-(-delta1.denominator // delta1.numerator), 1)

    def net_center(self, k: int, n: int) -> Point:
        """Center k of the net of n centers: k / n on the circle,
        (2k + 1) / 2n on the interval."""
        if self.kind == "circle":
            return (Fraction(k, n),)
        return (Fraction(2 * k + 1, 2 * n),)

    def net_neighbors(self, x: int, unit: int, delta1, n: int) -> list[int]:
        """Indices of the centers of the delta1-net of n = net_size(delta1)
        centers that lie strictly within delta1 = a / b of the point
        x / unit, in increasing order. Candidates come from inverting the
        grid layout with integer floor and ceiling, so their count is
        independent of the net size, and each is checked over unit * n * b
        (twice that on the interval)."""
        a, b = delta1.numerator, delta1.denominator
        ub = unit * b
        if self.kind == "circle":
            # over unit * n * b: the point p, the radius rad, center k at
            # k * ub
            p, rad, whole = x * n * b, a * unit * n, n * ub
            return sorted({k % n for k in range((p - rad) // ub,
                                                -((-p - rad) // ub) + 1)
                           if circ_dist(p, k * ub % whole, whole) < rad})
        # over 2 * unit * n * b: center k at (2k + 1) * ub
        p, rad = 2 * x * n * b, 2 * a * unit * n
        lo = (p - rad - ub) // (2 * ub)
        hi = -((ub - p - rad) // (2 * ub))
        return [k for k in range(max(lo, 0), min(hi, n - 1) + 1)
                if abs(p - (2 * k + 1) * ub) < rad]

def circle() -> Space:
    return Space("circle")


def interval() -> Space:
    return Space("interval")


def annulus(w) -> Space:
    return Space("annulus", frac(w))

