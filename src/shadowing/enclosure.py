"""Canonical finite unions of segments and arcs.

An ``EnclosureSet`` represents a closed subset of an interval or of the
circle as a sorted tuple of fragments whose interiors are pairwise
disjoint:

* interval: segments ``(lo, hi)`` with lo <= hi inside the interval's
  ends, sorted and merged where they overlap or touch, so no two touch;
* circle: arcs ``(start, length)`` with start in [0,1), length in [0,1]:
  the segment form of the arcs cut at 0, its first and last segments
  joined back into one arc when they meet at 0 (the full circle is the
  single fragment ``(0, 1)``).

The annulus has no sets of its own: the spiral's shadow sets are a band
set times a circle set, each kept by its factor (``systems.ProductMap``).

Each form depends only on the point set, so ``EnclosureSet.__eq__``, which
compares fragments, is equality of sets, however the fragments given to
``_make`` overlap or were cut. An empty fragment tuple is the empty set.

Every coordinate is a Python integer, a numerator over the set's
``unit``, a positive integer *scale*: the segment and arc algebra only
adds, compares and reduces modulo ``unit``. Values enter as
``Fraction`` coordinates only through ``ball_set``, which puts them on
integers once with ``scaled_point``, over the lcm of the denominators of
the center, the radius and the interval's ends, and leave only through
``EnclosureSet.fragments`` and ``measure``, which build the ``Fraction``
values when they are read. An image and a ball over different units meet
over the lcm of the two (``shadowcheck.shadow_sets``).

A single fragment is a normal form as it stands, once a full arc is
written ``(0, unit)``; the shadow-set step (``shadowcheck.shadow_sets``)
relies on that, calling ``_make`` only when more than one arc is left
(an interval shadow set is always one segment).

A ``SetRecord`` holds a run of sets, the shadow sets of a decision, as
bare fragment tuples and units, as ``spaces.ScaledPoints`` holds points:
reading a set by index builds its ``EnclosureSet``.

Every set equals the abstract set it stands for. ``_make`` is the one
place that checks the fragment cap: a normal form with more fragments
than the cap raises a resource error that carries that exact set. A set
of one fragment that skips ``_make`` is never checked, so the cap means
something from 1 up.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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

def _normalize_segs(segs):
    merged = []
    for lo, hi in sorted((lo, hi) for lo, hi in segs if lo <= hi):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# -- the set type --------------------------------------------------------

class EnclosureSet:
    """A canonical union of fragments of ``space`` (see the module doc).

    ``EnclosureSet(space, nums, unit)`` holds fragments whose ``nums`` are
    integer numerators over the integer ``unit``: segments on an
    interval, arcs on the circle. The ``fragments`` are the ``Fraction``
    values, built on first read; no method changes an instance once
    built.
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

    def _sizes(self) -> list:
        """The measure of each fragment over the unit."""
        if self.space.kind == "interval":
            return [hi - lo for lo, hi in self.nums]
        return [l for _, l in self.nums]

    def measure(self):
        return Fraction(sum(self._sizes()), self.unit)

    def pick_scaled(self):
        """Deterministic representative, as numerators over twice the
        unit: the midpoint of the largest fragment, ties going to the
        smallest start."""
        if self.is_empty():
            raise UsageError("cannot pick a point from an empty set")
        f = max(zip(self._sizes(), self.nums),
                key=lambda sf: (sf[0], -sf[1][0]))[1]
        u2 = 2 * self.unit
        if self.space.kind == "interval":
            return (f[0] + f[1],), u2
        return ((2 * f[0] + f[1]) % u2,), u2


class SetRecord(Sequence):
    """Sets of one space held as bare fragment tuples and units.

    Set n is ``nums[n]`` over ``units[n]``. Indexing builds that set's
    ``EnclosureSet``; slicing returns another SetRecord and builds none.
    """

    __slots__ = ("space", "nums", "units")

    def __init__(self, space: Space, nums: list, units: list):
        self.space = space
        self.nums = nums
        self.units = units

    @classmethod
    def of(cls, sets) -> "SetRecord":
        """The record of a nonempty sequence of ``EnclosureSet``s."""
        return cls(sets[0].space, [s.nums for s in sets],
                   [s.unit for s in sets])

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SetRecord(self.space, self.nums[i], self.units[i])
        return EnclosureSet(self.space, self.nums[i], self.units[i])


def _reduced(nums, unit: int, base: int) -> tuple:
    """(nums, unit): the same set over the smallest unit that is a
    multiple of ``base`` (one gcd over all numerators)."""
    g = math.gcd(unit // base, *chain.from_iterable(nums))
    if g == 1:
        return nums, unit
    return tuple(tuple(c // g for c in f) for f in nums), unit // g


def _make(space: Space, fragments, unit) -> EnclosureSet:
    """The normal form, over ``unit``, of fragments whose coordinates are
    numerators over it: segments on an interval, arcs on the circle.

    Overlapping or touching fragments are merged exactly (see the module
    doc). Above ``DEFAULT_FRAGMENT_CAP`` fragments, read at call time, it
    fails with ``EnclosureCapError``, whose ``partial`` is the normal
    form; no other routine checks the cap.
    """
    frags = (_normalize_segs(fragments) if space.kind == "interval"
             else _normalize_arcs(fragments, unit))
    es = EnclosureSet(space, frags, unit)
    if len(frags) > DEFAULT_FRAGMENT_CAP:
        raise EnclosureCapError(f"fragment cap {DEFAULT_FRAGMENT_CAP} "
                                "exceeded for exact enclosure", partial=es)
    return es


def ball_set(space: Space, center, radius) -> EnclosureSet:
    """The closed radius-ball around center, truncated to the space, over
    the lcm of the denominators of center, radius and the interval's
    ends. The annulus has no sets of its own: its ball is the product of
    the balls of its factors."""
    if radius <= 0:
        raise UsageError("ball radius must be positive")
    if space.ndim != 1:
        raise UsageError("a ball of two coordinates is a segment times an "
                         "arc: take the ball of each factor")
    base = space.ends_ratio[2] if space.kind == "interval" else 1
    nums, unit = scaled_point((*center, radius), base)
    return _ball(space, nums[:-1], nums[-1], unit)


def _ball(space: Space, center, radius, unit) -> EnclosureSet:
    """``ball_set`` with center and radius given as numerators over unit
    (on an interval a multiple of the denominator of its ends): the
    segment of the interval point, cut at the interval's ends, or the arc
    of the circle point, in ``_make``'s normal form.
    ``shadowcheck.shadow_sets`` builds it inline."""
    if space.kind == "interval":
        lo, hi, den = space.ends_ratio
        k = unit // den
        return _make(space, ((max(center[0] - radius, lo * k),
                              min(center[0] + radius, hi * k)),), unit)
    arc = ((0, unit) if 2 * radius >= unit else
           ((center[0] - radius) % unit, 2 * radius))
    return _make(space, (arc,), unit)
