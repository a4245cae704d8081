"""Canonical finite unions of segments and arcs, and their products.

An ``EnclosureSet`` represents a closed subset of a space as a sorted tuple
of fragments whose interiors are pairwise disjoint, and on the annulus a
radial segment that they share:

* interval: segments ``(lo, hi)`` with 0 <= lo <= hi <= 1, sorted and
  merged where they overlap or touch, so no two touch;
* circle: arcs ``(start, length)`` with start in [0,1), length in [0,1]:
  the segment form of the arcs cut at 0, its first and last segments
  joined back into one arc when they meet at 0 (the full circle is the
  single fragment ``(0, 1)``);
* annulus: one radial segment ``(rlo, rhi)``, the set's ``radial``, times
  arcs in the circle's normal form (the whole circle gives the full ring).
  Every annulus set is such a product, since a ball of the max metric is
  one and the spiral's images and all intersections keep products. The
  ``fragments`` read out are boxes ``(rlo, rhi, astart, alength)``, one
  per arc.

Each form depends only on the point set, so ``EnclosureSet.__eq__``, which
compares fragments, is equality of sets, however the fragments given to
``_make`` overlap or were cut. An empty fragment tuple is the empty set,
and ``_make`` gives it for a radial segment that is empty (rlo > rhi).

Every coordinate is a Python integer, a numerator over the set's
``unit``, a positive integer *scale*: the segment and arc algebra only
adds, compares and reduces modulo ``unit``. Values enter as
``Fraction`` coordinates only through ``ball_set``, which puts them on
integers once with ``scaled_point``, over the lcm of the denominators of
the center, the radius and, on the annulus, w, and leave only through
``EnclosureSet.fragments`` and ``measure``, which build the ``Fraction``
values when they are read. An image and a ball over different units meet
over the lcm of the two (``shadowcheck.shadow_sets``).

A single fragment is a normal form as it stands, once a full arc is
written ``(0, unit)`` and a radial segment is not empty; the shadow-set
step (``shadowcheck.shadow_sets``) relies on that, emptying a set at an
empty segment itself and calling ``_make`` only when more than one arc
is left (an interval shadow set is always one segment).

A ``SetRecord`` holds a run of sets, the shadow sets of a decision, as
bare fragment tuples, units and radial segments, as ``spaces.ScaledPoints``
holds points: reading a set by index builds its ``EnclosureSet``.

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

    ``EnclosureSet(space, nums, unit, radial)`` holds fragments whose
    ``nums`` are integer numerators over the integer ``unit``: segments on
    the interval, arcs on the circle and the annulus, where ``radial``,
    the radial segment ``(rlo, rhi)`` over the same unit, multiplies them
    and must be given unless there are none (None elsewhere). The
    ``fragments`` are the ``Fraction`` values, built on first read; no
    method changes an instance once built.
    """

    __slots__ = ("space", "nums", "unit", "radial", "_values")

    def __init__(self, space: Space, nums, unit: int, radial=None):
        self.space = space
        self.nums = tuple(nums)
        if radial is None and self.nums and space.kind == "annulus":
            raise UsageError("an annulus set takes its radial segment")
        self.unit = unit
        self.radial = radial
        self._values = None

    @property
    def fragments(self) -> tuple:
        if self._values is None:
            segment = self.radial or ()  # on the annulus, one box per arc
            self._values = tuple(
                tuple(Fraction(c, self.unit) for c in segment + f)
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
        """The measure of each fragment over unit ** ndim: on the annulus
        an arc's length times the radial segment's."""
        if self.space.kind == "interval":
            return [hi - lo for lo, hi in self.nums]
        rlo, rhi = self.radial or (0, 1)  # off the annulus, a height of 1
        return [l * (rhi - rlo) for _, l in self.nums]

    def measure(self):
        return Fraction(sum(self._sizes()), self.unit ** self.space.ndim)

    def _largest(self):
        if self.is_empty():
            raise UsageError("cannot pick a point from an empty set")
        return max(zip(self._sizes(), self.nums),
                   key=lambda sf: (sf[0], -sf[1][0]))[1]

    def pick_scaled(self):
        """Deterministic representative, as numerators over twice the
        unit: the midpoint of the largest fragment, ties going to the
        smallest start, and on the annulus of the radial segment."""
        f = self._largest()
        u2 = 2 * self.unit
        if self.space.kind == "interval":
            return (f[0] + f[1],), u2
        radius = () if self.radial is None else (sum(self.radial),)
        return (*radius, (2 * f[0] + f[1]) % u2), u2


class SetRecord(Sequence):
    """Sets of one space held as bare fragment tuples, units and radial
    segments.

    Set n is ``nums[n]`` over ``units[n]``, times ``radials[n]`` on the
    annulus (None elsewhere). Indexing builds that set's
    ``EnclosureSet``; slicing returns another SetRecord and builds none.
    """

    __slots__ = ("space", "nums", "units", "radials")

    def __init__(self, space: Space, nums: list, units: list, radials: list):
        self.space = space
        self.nums = nums
        self.units = units
        self.radials = radials

    @classmethod
    def of(cls, sets) -> "SetRecord":
        """The record of a nonempty sequence of ``EnclosureSet``s."""
        return cls(sets[0].space, [s.nums for s in sets],
                   [s.unit for s in sets], [s.radial for s in sets])

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SetRecord(self.space, self.nums[i], self.units[i],
                             self.radials[i])
        return EnclosureSet(self.space, self.nums[i], self.units[i],
                            self.radials[i])


def _reduced(nums, unit: int, base: int, radial) -> tuple:
    """(nums, unit, radial): the same set over the smallest unit that is
    a multiple of ``base`` (one gcd over all numerators)."""
    g = math.gcd(unit // base, *chain.from_iterable(nums), *(radial or ()))
    if g == 1:
        return nums, unit, radial
    return (tuple(tuple(c // g for c in f) for f in nums), unit // g,
            radial and (radial[0] // g, radial[1] // g))


def _make(space: Space, fragments, unit, radial=None) -> EnclosureSet:
    """The normal form, over ``unit``, of fragments whose coordinates are
    numerators over it: segments on the interval, arcs elsewhere, which
    on the annulus ``radial`` multiplies (an empty one empties the set).

    Overlapping or touching fragments are merged exactly (see the module
    doc). Above ``DEFAULT_FRAGMENT_CAP`` fragments, read at call time, it
    fails with ``EnclosureCapError``, whose ``partial`` is the normal
    form; no other routine checks the cap.
    """
    if space.kind == "interval":
        frags = _normalize_segs(fragments)
    elif radial is None or radial[0] <= radial[1]:
        frags = _normalize_arcs(fragments, unit)
    else:  # an empty radial segment: the empty set, whatever its arcs
        frags = []
    es = EnclosureSet(space, frags, unit, radial)
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
    return _ball(space, nums[:-1], nums[-1], unit)


def _ball(space: Space, center, radius, unit) -> EnclosureSet:
    """``ball_set`` with center and radius given as numerators over unit
    (on the annulus a multiple of the denominator of w): the segment of
    the interval point or the radius, cut at the interval's ends or the
    band's [1 - w, 1 + w], and the arc of the angle, in ``_make``'s normal
    form (empty off the band). ``shadowcheck.shadow_sets`` builds it inline."""
    kind = space.kind
    radial = None
    if kind != "circle":
        floor, ceil = 0, unit
        if kind == "annulus":
            w = space.w_ratio[0] * (unit // space.w_ratio[1])
            floor, ceil = unit - w, unit + w
        radial = (max(center[0] - radius, floor),
                  min(center[0] + radius, ceil))
        if kind == "interval":
            return _make(space, (radial,), unit)
    arc = ((0, unit) if 2 * radius >= unit else
           ((center[-1] - radius) % unit, 2 * radius))
    return _make(space, (arc,), unit, radial)
