"""Canonical finite unions of arcs, segments and boxes.

An ``EnclosureSet`` represents a closed subset of a space as a sorted tuple
of fragments whose interiors are pairwise disjoint:

* interval: segments ``(lo, hi)`` with 0 <= lo <= hi <= 1, sorted and
  merged where they overlap or touch, so no two touch;
* circle: arcs ``(start, length)`` with start in [0,1), length in [0,1]:
  the segment form of the arcs cut at 0, its first and last segments
  joined back into one arc when they meet at 0 (the full circle is the
  single fragment ``(0, 1)``);
* annulus: boxes ``(rlo, rhi, astart, alength)``: one radial segment,
  shared by every box, times the circle's normal form of their arcs (the
  whole circle gives the full ring ``(rlo, rhi, 0, 1)``). Every annulus
  set is such a product, since a ball of the max metric is a box and the
  spiral's images and all intersections keep products.

Each form depends only on the point set, so ``EnclosureSet.__eq__``, which
compares fragments, is equality of sets, however the fragments given to
``make`` overlap or were cut.

Every fragment coordinate is a Python integer, a numerator over the
set's ``unit``, a positive integer *scale*: the arc, segment and box
algebra only adds, compares and reduces modulo ``unit``. Values enter as
``Fraction`` coordinates only through ``make`` and ``ball_set``, which put
them on integers once with ``scaled_point``, over the lcm of their
denominators (and, for a ball on the annulus, of w's), and leave
only through ``EnclosureSet.fragments`` and ``measure``, which build the
``Fraction`` values when they are read. Sets over different units meet
over the lcm of the two.

A single fragment is a normal form as it stands, once a full arc is
written ``(0, unit)``; the shadow-set step (``shadowcheck.shadow_sets``
for a set of one fragment, ``systems._step_image`` for several) relies
on that, clipping every image piece to the ball fragment of ``_ball``
and calling ``_make`` only when more than one piece is left (the
touching pieces of one interval fragment are joined into their hull).

Every set equals the abstract set it stands for. A normal form with more
fragments than the fragment cap raises a resource error that carries the
exact set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .errors import EnclosureCapError, UsageError
from .spaces import Space, scaled_point

DEFAULT_FRAGMENT_CAP = 4096


def _lift(frags, factor):
    """Fragments re-expressed over a unit ``factor`` times larger."""
    if factor == 1:
        return frags
    return tuple(tuple(c * factor for c in f) for f in frags)


# -- circle arcs ---------------------------------------------------------

def _intersect_arcs(a, b, unit):
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


def _normalize_arcs(arcs, unit):
    """The circle normal form: the arcs cut at 0 into segments of
    [0, unit], the segment normal form of the pieces, and its first and
    last segments joined back into one arc when they meet at 0."""
    pieces = []
    for s, l in arcs:
        if l >= unit:
            return [(0, unit)]
        end = s % unit + l
        pieces += [(end - l, min(end, unit)), (0, end - unit)]
    segs = _normalize_segs(pieces)
    if len(segs) > 1 and segs[0][0] == 0 and segs[-1][1] == unit:
        (_, head), (tail, _) = segs.pop(0), segs.pop()
        segs.append((tail, head + unit))
    return [(lo, hi - lo) for lo, hi in segs]


# -- interval segments ---------------------------------------------------

def _intersect_segs(a, b, unit=None):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return [(lo, hi)] if lo <= hi else []


def _normalize_segs(segs):
    merged = []
    for lo, hi in sorted((lo, hi) for lo, hi in segs if lo <= hi):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# -- annulus boxes -------------------------------------------------------

def _intersect_boxes(a, b, unit):
    rlo = max(a[0], b[0])
    rhi = min(a[1], b[1])
    if rlo > rhi:
        return []
    return [(rlo, rhi, s, l)
            for s, l in _intersect_arcs((a[2], a[3]), (b[2], b[3]), unit)]


def _normalize_boxes(boxes, unit):
    """The box normal form of the module doc: the one radial segment of
    the nonempty boxes times the normal form of their arcs."""
    kept = [b for b in boxes if b[0] <= b[1] and b[3] >= 0]
    if len({b[:2] for b in kept}) > 1:
        raise UsageError("annulus boxes must share one radial segment")
    return [(*kept[0][:2], s, l)
            for s, l in _normalize_arcs([b[2:] for b in kept], unit)]


_INTERSECT = {"circle": _intersect_arcs, "interval": _intersect_segs,
              "annulus": _intersect_boxes}


# -- the set type --------------------------------------------------------

class EnclosureSet:
    """A canonical union of fragments of ``space`` (see the module doc).

    ``EnclosureSet(space, nums, unit)`` holds fragments whose ``nums`` are
    integer numerators over the integer ``unit``; their ``fragments`` are
    the ``Fraction`` values, built on first read. No method changes an
    instance once built.
    """

    __slots__ = ("space", "nums", "unit", "_values")

    def __init__(self, space: Space, nums, unit: int):
        self.space = space
        self.nums = tuple(nums)
        self.unit = unit
        self._values = None

    @property
    def fragments(self) -> tuple:
        if self._values is None:
            self._values = tuple(tuple(Fraction(c, self.unit) for c in f)
                                 for f in self.nums)
        return self._values

    def __eq__(self, other):
        if not isinstance(other, EnclosureSet):
            return NotImplemented
        return (self.space, self.fragments) == (other.space, other.fragments)

    def __hash__(self):
        return hash((self.space, self.fragments))

    def __repr__(self):
        return (f"EnclosureSet(space={self.space!r}, "
                f"fragments={self.fragments!r})")

    def is_empty(self) -> bool:
        return not self.nums

    def fragment_count(self) -> int:
        return len(self.nums)

    def measure(self):
        kind = self.space.kind
        if kind == "circle":
            total = sum(l for _, l in self.nums)
        elif kind == "interval":
            total = sum(hi - lo for lo, hi in self.nums)
        else:
            total = sum((rhi - rlo) * l for rlo, rhi, _, l in self.nums)
        return Fraction(total, self.unit ** self.space.ndim)

    def _largest(self):
        if self.is_empty():
            raise UsageError("cannot pick a point from an empty set")
        kind = self.space.kind
        if kind == "circle":
            return max(self.nums, key=lambda f: (f[1], -f[0]))
        if kind == "interval":
            return max(self.nums, key=lambda f: (f[1] - f[0], -f[0]))
        return max(self.nums, key=lambda f: ((f[1] - f[0]) * f[3], -f[0]))

    def pick_scaled(self):
        """Deterministic representative, as numerators over twice the
        unit: the midpoint of the largest fragment, ties going to the
        smallest start."""
        f = self._largest()
        u2 = 2 * self.unit
        kind = self.space.kind
        if kind == "circle":
            return ((2 * f[0] + f[1]) % u2,), u2
        if kind == "interval":
            return (f[0] + f[1],), u2
        return (f[0] + f[1], (2 * f[2] + f[3]) % u2), u2

    def reduced(self, base: int) -> "EnclosureSet":
        """The same set over the smallest unit that is a multiple
        of ``base`` (one gcd over all numerators)."""
        g = math.gcd(self.unit // base, *chain.from_iterable(self.nums))
        if g == 1:
            return self
        return EnclosureSet(self.space,
                            tuple(tuple(c // g for c in f) for f in self.nums),
                            self.unit // g)


def make(space: Space, fragments) -> EnclosureSet:
    """Normalize fragments of rational coordinates into a canonical
    EnclosureSet over the lcm of their denominators.

    Overlapping or touching fragments are merged exactly (see the module
    doc). On the annulus the nonempty boxes must share one radial segment,
    as every annulus set does: boxes stacked radially are a
    ``UsageError``. Above ``DEFAULT_FRAGMENT_CAP`` fragments, read at call
    time, it fails with ``EnclosureCapError``, whose ``partial`` is the
    exact set.
    """
    frags = [tuple(f) for f in fragments]
    nums, unit = scaled_point([c for f in frags for c in f])
    coords = iter(nums)
    return _make(space, [tuple(next(coords) for _ in f) for f in frags], unit)


def _make(space: Space, fragments, unit) -> EnclosureSet:
    """make() for fragments whose coordinates are numerators over unit."""
    kind = space.kind
    if kind == "circle":
        frags = _normalize_arcs(fragments, unit)
    elif kind == "interval":
        frags = _normalize_segs(fragments)
    else:
        frags = _normalize_boxes(fragments, unit)
    es = EnclosureSet(space, frags, unit)
    if len(frags) > DEFAULT_FRAGMENT_CAP:
        raise EnclosureCapError(f"fragment cap {DEFAULT_FRAGMENT_CAP} "
                                "exceeded for exact enclosure", partial=es)
    return es


def ball_set(space: Space, center, radius) -> EnclosureSet:
    """The closed radius-ball around center, truncated to the space, over
    the lcm of the denominators of center, radius and the annulus
    half-width."""
    if radius <= 0:
        raise UsageError("ball radius must be positive")
    base = space.w_ratio[1] if space.kind == "annulus" else 1
    nums, unit = scaled_point((*center, radius), base)
    return EnclosureSet(space, (_ball(space, nums[:-1], nums[-1], unit),),
                        unit)


def _ball(space: Space, center, radius, unit) -> tuple:
    """The single fragment of ball_set, with center and radius given as
    numerators over unit (on the annulus a multiple of the denominator of
    w)."""
    kind = space.kind
    if kind == "circle":
        if 2 * radius >= unit:
            return (0, unit)
        return ((center[0] - radius) % unit, 2 * radius)
    if kind == "interval":
        return (max(center[0] - radius, 0), min(center[0] + radius, unit))
    w_num, w_den = space.w_ratio
    w = w_num * (unit // w_den)
    rlo, rhi, diameter = center[0] - radius, center[0] + radius, 2 * radius
    if rlo < unit - w:
        rlo = unit - w
    if rhi > unit + w:
        rhi = unit + w
    if diameter >= unit:
        return (rlo, rhi, 0, unit)
    return (rlo, rhi, (center[1] - radius) % unit, diameter)


def intersect(a: EnclosureSet, b: EnclosureSet) -> EnclosureSet:
    """A & B. Sets over different units meet over their lcm (see
    ``_meet``)."""
    if a.space != b.space:
        raise UsageError("cannot intersect sets over different spaces")
    return _meet(a.space, a.nums, a.unit, b.nums, b.unit)


def _meet(space: Space, fa, unit_a, fb, unit_b) -> EnclosureSet:
    """The normal form of the pairwise intersections of two fragment
    lists. Over different units they meet over the lcm."""
    unit = unit_a
    if unit_b != unit:
        unit = math.lcm(unit_a, unit_b)
        fa, fb = _lift(fa, unit // unit_a), _lift(fb, unit // unit_b)
    meet = _INTERSECT[space.kind]
    pieces = []
    for x in fa:
        for y in fb:
            pieces += meet(x, y, unit)
    return _make(space, pieces, unit)
