"""Canonical finite unions of arcs, segments and boxes.

An ``EnclosureSet`` represents a closed subset of a space as a sorted tuple
of pairwise disjoint fragments:

* circle: arcs ``(start, length)`` with start in [0,1), length in [0,1];
  the full circle is the single canonical fragment ``(0, 1)``;
* interval: segments ``(lo, hi)`` with 0 <= lo <= hi <= 1;
* annulus: boxes ``(rlo, rhi, astart, alength)``, a radial segment crossed
  with an angular arc.

Every fragment coordinate is a numerator over the set's ``unit``: ``1``
for sets that hold the values themselves (``Fraction`` values at the
public API), and a positive integer *scale* for the exact kernel, whose
fragments are Python integers over that common denominator. One copy of
the arc, segment and box algebra serves both, because it only adds,
compares and reduces modulo ``unit``. Reading ``EnclosureSet.fragments``
of an integer set builds its ``Fraction`` values then, and only then.

Every set equals the abstract set it stands for. Normalization that
would have to merge fragments to respect the fragment cap raises a
resource error carrying the merged superset instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .errors import EnclosureCapError, UsageError
from .spaces import HALF, Space, scaled_point

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
    t = (s2 - s1) % unit
    out = []
    for base in (t, t - unit):
        lo = max(base, 0)
        hi = min(base + l2, l1)
        if lo <= hi:
            out.append(((s1 + lo) % unit, hi - lo))
    return out


def _normalize_arcs(arcs, unit):
    full = [(0, unit)]
    kept = []
    for s, l in arcs:
        if l < 0:
            continue
        if l >= unit:
            return full
        kept.append((s % unit, l))
    if not kept:
        return []
    kept.sort()
    merged = [kept[0]]
    for s, l in kept[1:]:
        ps, pl = merged[-1]
        if s <= ps + pl:
            merged[-1] = (ps, max(pl, s + l - ps))
        else:
            merged.append((s, l))
    # fold the trailing arc onto leading ones across the wrap
    while len(merged) >= 2:
        ps, pl = merged[-1]
        fs, fl = merged[0]
        if ps + pl < unit + fs:
            break
        new_len = max(pl, unit + fs + fl - ps)
        if new_len >= unit:
            return full
        merged = merged[1:]
        merged[-1] = (ps, new_len)
    if len(merged) == 1 and merged[0][1] >= unit:
        return full
    return merged


def _arc_gap(a, b, unit):
    """Gap from the end of arc a to the start of arc b, going forward."""
    return (b[0] - (a[0] + a[1])) % unit


def _cap_arcs(arcs, cap, unit):
    arcs = list(arcs)
    degraded = False
    while len(arcs) > cap:
        gaps = [(_arc_gap(arcs[i], arcs[(i + 1) % len(arcs)], unit), i)
                for i in range(len(arcs))]
        _, i = min(gaps)
        j = (i + 1) % len(arcs)
        s, l = arcs[i]
        hull_len = min((arcs[j][0] - s) % unit + arcs[j][1], unit)
        arcs[i] = (s, hull_len)
        del arcs[j]
        arcs = _normalize_arcs(arcs, unit)
        degraded = True
    return arcs, degraded


def _arc_contains(arc, x, unit):
    s, l = arc
    return (x - s) % unit <= l


# -- interval segments ---------------------------------------------------

def _intersect_segs(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return [(lo, hi)] if lo <= hi else []


def _normalize_segs(segs):
    kept = sorted((lo, hi) for lo, hi in segs if lo <= hi)
    if not kept:
        return []
    merged = [kept[0]]
    for lo, hi in kept[1:]:
        plo, phi = merged[-1]
        if lo <= phi:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _cap_segs(segs, cap):
    segs = list(segs)
    degraded = False
    while len(segs) > cap:
        gaps = [(segs[i + 1][0] - segs[i][1], i) for i in range(len(segs) - 1)]
        _, i = min(gaps)
        segs[i] = (segs[i][0], segs[i + 1][1])
        del segs[i + 1]
        degraded = True
    return segs, degraded


# -- annulus boxes -------------------------------------------------------

def _intersect_boxes(a, b, unit):
    rlo = max(a[0], b[0])
    rhi = min(a[1], b[1])
    if rlo > rhi:
        return []
    return [(rlo, rhi, s, l)
            for s, l in _intersect_arcs((a[2], a[3]), (b[2], b[3]), unit)]


def _boxes_overlap(a, b, unit):
    if min(a[1], b[1]) - max(a[0], b[0]) <= 0:
        return False
    pieces = _intersect_arcs((a[2], a[3]), (b[2], b[3]), unit)
    return any(l > 0 for _, l in pieces)


def _normalize_boxes(boxes, unit):
    kept = []
    for rlo, rhi, s, l in boxes:
        if rlo > rhi or l < 0:
            continue
        if l >= unit:
            s, l = 0, unit
        kept.append((rlo, rhi, s % unit, l))
    changed = True
    while changed:
        changed = False
        out = []
        for box in sorted(kept):
            merged_in = False
            for i, other in enumerate(out):
                if box[:2] == other[:2]:
                    joined = _normalize_arcs([(box[2], box[3]),
                                              (other[2], other[3])], unit)
                    if len(joined) == 1:
                        out[i] = (box[0], box[1], joined[0][0], joined[0][1])
                        merged_in = changed = True
                        break
                if (box[2], box[3]) == (other[2], other[3]) \
                        and box[0] <= other[1] and other[0] <= box[1]:
                    out[i] = (min(box[0], other[0]), max(box[1], other[1]),
                              other[2], other[3])
                    merged_in = changed = True
                    break
            if not merged_in:
                out.append(box)
        kept = out
    # remaining overlaps cannot be represented as a disjoint box union;
    # widen to an angular hull, a superset that _make reports as degraded
    degraded = False
    result = []
    for box in sorted(kept):
        clash = next((i for i, o in enumerate(result)
                      if _boxes_overlap(box, o, unit)), None)
        if clash is None:
            result.append(box)
        else:
            o = result[clash]
            result[clash] = (min(box[0], o[0]), max(box[1], o[1]), 0, unit)
            degraded = True
    return result, degraded


def _cap_boxes_by_angle(boxes, cap, unit):
    degraded = False
    boxes = list(boxes)
    while len(boxes) > cap:
        a = boxes.pop()
        b = boxes.pop()
        boxes.append((min(a[0], b[0]), max(a[1], b[1]), 0, unit))
        merged, _ = _normalize_boxes(boxes, unit)
        boxes = merged
        degraded = True
    return boxes, degraded


# -- the set type --------------------------------------------------------

class EnclosureSet:
    """A canonical union of fragments of ``space`` (see the module doc).

    ``EnclosureSet(space, fragments)`` holds the fragment values
    themselves, at unit 1. The exact kernel builds sets whose ``nums`` are
    integer numerators over an integer ``unit``; their ``fragments`` are
    the ``Fraction`` values, built on first read. No method changes an
    instance once built.
    """

    __slots__ = ("space", "nums", "unit", "_values")

    def __init__(self, space: Space, fragments, unit=1):
        self.space = space
        self.nums = tuple(fragments)
        self.unit = unit
        self._values = self.nums if unit == 1 else None

    @property
    def fragments(self) -> tuple:
        if self._values is None:
            u = self.unit
            self._values = tuple(tuple(Fraction(c, u) for c in f)
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
        if self.unit == 1:
            return total
        return Fraction(total, self.unit ** self.space.ndim)

    def contains(self, point) -> bool:
        if self.unit == 1:
            return _contains(self.space.kind, self.nums, point, 1)
        nums, scale = scaled_point(point)
        return self.first_inside([nums], scale) is not None

    def first_inside(self, points, scale):
        """The first of ``points`` (tuples of numerators over ``scale``)
        that lies in this set, or None. With scale and unit 1 the points
        and fragments are the values themselves."""
        frags, unit = self.nums, self.unit
        if scale % unit:
            common = math.lcm(scale, unit)
            factor = common // scale
            lifted = [tuple(c * factor for c in p) for p in points]
            frags, scale = _lift(frags, common // unit), common
        else:
            lifted = points
            frags = _lift(frags, scale // unit)
        kind = self.space.kind
        for p, q in zip(points, lifted):
            if _contains(kind, frags, q, scale):
                return p
        return None

    def _largest(self):
        if self.is_empty():
            raise UsageError("cannot pick a point from an empty set")
        kind = self.space.kind
        if kind == "circle":
            return max(self.nums, key=lambda f: (f[1], -f[0]))
        if kind == "interval":
            return max(self.nums, key=lambda f: (f[1] - f[0], -f[0]))
        return max(self.nums, key=lambda f: ((f[1] - f[0]) * f[3], -f[0]))

    def pick_point(self):
        """Deterministic representative: midpoint of the largest fragment,
        ties going to the smallest start."""
        nums, scale = self.pick_scaled()
        if self.unit == 1:
            # times the Fraction 1/2: the int fragment (0, 1) of a whole
            # circle must give Fraction(1, 2), not the float 1 / 2
            return tuple(c * HALF for c in nums)
        return tuple(Fraction(c, scale) for c in nums)

    def pick_scaled(self):
        """pick_point as numerators over twice the unit."""
        f = self._largest()
        u2 = 2 * self.unit
        kind = self.space.kind
        if kind == "circle":
            return ((2 * f[0] + f[1]) % u2,), u2
        if kind == "interval":
            return (f[0] + f[1],), u2
        return (f[0] + f[1], (2 * f[2] + f[3]) % u2), u2

    def reduced(self, base: int) -> "EnclosureSet":
        """The same integer set over the smallest unit that is a multiple
        of ``base`` (one gcd over all numerators)."""
        g = math.gcd(self.unit // base, *chain.from_iterable(self.nums))
        if g == 1:
            return self
        return EnclosureSet(self.space,
                            tuple(tuple(c // g for c in f) for f in self.nums),
                            self.unit // g)


def _contains(kind, frags, point, unit) -> bool:
    if kind == "circle":
        return any(_arc_contains(f, point[0], unit) for f in frags)
    if kind == "interval":
        return any(lo <= point[0] <= hi for lo, hi in frags)
    return any(rlo <= point[0] <= rhi and _arc_contains((s, l), point[1], unit)
               for rlo, rhi, s, l in frags)


def make(space: Space, fragments,
         cap: int = DEFAULT_FRAGMENT_CAP) -> EnclosureSet:
    """Normalize fragments into a canonical EnclosureSet.

    Overlapping or touching fragments are merged. If the fragment count
    exceeds ``cap``, nearest fragments are hull-merged until it fits; that
    result is a strict superset, so the request fails with a resource
    error carrying it.
    """
    return _make(space, fragments, cap, 1)


def _make(space: Space, fragments, cap: int, unit) -> EnclosureSet:
    """make() for fragments whose coordinates are numerators over unit."""
    kind = space.kind
    if kind == "circle":
        frags = _normalize_arcs(fragments, unit)
        frags, degraded = _cap_arcs(frags, cap, unit)
    elif kind == "interval":
        frags = _normalize_segs(fragments)
        frags, degraded = _cap_segs(frags, cap)
    else:
        frags, merged_overlap = _normalize_boxes(fragments, unit)
        frags, capped = _cap_boxes_by_angle(frags, cap, unit)
        degraded = merged_overlap or capped
    if degraded:
        raise EnclosureCapError(
            f"fragment cap {cap} exceeded for exact enclosure",
            partial=EnclosureSet(space, frags, unit))
    return EnclosureSet(space, frags, unit)


def ball_set(space: Space, center, radius) -> EnclosureSet:
    """The closed radius-ball around center, truncated to the space."""
    if radius <= 0:
        raise UsageError("ball radius must be positive")
    return EnclosureSet(space, (_ball(space, center, radius, 1),))


def _ball(space: Space, center, radius, unit) -> tuple:
    """The single fragment of ball_set, with center and radius given as
    numerators over unit."""
    kind = space.kind
    if kind == "circle":
        if 2 * radius >= unit:
            return (0, unit)
        return ((center[0] - radius) % unit, 2 * radius)
    if kind == "interval":
        return (max(center[0] - radius, 0), min(center[0] + radius, unit))
    if unit == 1:
        w = space.w
    else:
        w_num, w_den = space.w_ratio
        w = w_num * (unit // w_den)
    rlo = max(center[0] - radius, unit - w)
    rhi = min(center[0] + radius, unit + w)
    if 2 * radius >= unit:
        return (rlo, rhi, 0, unit)
    return (rlo, rhi, (center[1] - radius) % unit, 2 * radius)


def intersect(a: EnclosureSet, b: EnclosureSet,
              cap: int = DEFAULT_FRAGMENT_CAP) -> EnclosureSet:
    """A & B. Integer sets over different units meet over their lcm."""
    if a.space != b.space:
        raise UsageError("cannot intersect sets over different spaces")
    unit, fa, fb = a.unit, a.nums, b.nums
    if b.unit != unit:
        if unit == 1 or b.unit == 1:
            unit, fa, fb = 1, a.fragments, b.fragments
        else:
            unit = math.lcm(a.unit, b.unit)
            fa, fb = _lift(fa, unit // a.unit), _lift(fb, unit // b.unit)
    kind = a.space.kind
    pieces = []
    for x in fa:
        for y in fb:
            if kind == "circle":
                pieces.extend(_intersect_arcs(x, y, unit))
            elif kind == "interval":
                pieces.extend(_intersect_segs(x, y))
            else:
                pieces.extend(_intersect_boxes(x, y, unit))
    return _make(a.space, pieces, cap, unit)

