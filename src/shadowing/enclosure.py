"""Canonical finite unions of arcs, segments and boxes.

An ``EnclosureSet`` represents a closed subset of a space as a sorted tuple
of fragments whose interiors are pairwise disjoint:

* circle: arcs ``(start, length)`` with start in [0,1), length in [0,1];
  the full circle is the single canonical fragment ``(0, 1)``; no two
  arcs touch;
* interval: segments ``(lo, hi)`` with 0 <= lo <= hi <= 1; no two
  segments touch;
* annulus: boxes ``(rlo, rhi, astart, alength)``, a radial segment crossed
  with an angular arc. Cutting the circle at every angle where the radial
  section of the set changes gives maximal angular slabs, and each slab
  holds one box per radial segment of its section (a slab that is the
  whole circle holds full rings ``(rlo, rhi, 0, 1)``). Each cut angle
  keeps, as zero-width boxes ``(rlo, rhi, angle, 0)``, the segments of
  its section that its two neighbouring slabs do not cover.

Each form depends only on the point set, so ``EnclosureSet.__eq__``, which
compares fragments, is equality of sets, however the fragments given to
``make`` overlap or were cut.

Every fragment coordinate is a Python integer, a numerator over the
set's ``unit``, a positive integer *scale*: the arc, segment and box
algebra only adds, compares and reduces modulo ``unit``. Values enter as
``Fraction`` coordinates only through ``make`` and ``ball_set``, which put
them on integers once, over the lcm of their denominators, and leave
only through ``EnclosureSet.fragments`` and ``measure``, which build the
``Fraction`` values when they are read. Sets over different units meet
over the lcm of the two.

A single fragment is a normal form as it stands, once a full arc is
written ``(0, unit)``; the shadow-set step (each map's ``image_in_ball``)
relies on that, clipping every image piece to the ball fragment of
``_ball`` and calling ``_make`` only when more than one piece is left.

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


def _integers(frags, base=1):
    """(numerators, unit) of fragments of rationals over the lcm of
    ``base`` and their denominators; a float is read as its exact value."""
    frags = [[Fraction(c) for c in f] for f in frags]
    unit = math.lcm(base, *(c.denominator for f in frags for c in f))
    return tuple(tuple(int(c * unit) for c in f) for f in frags), unit


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


# -- interval segments ---------------------------------------------------

def _intersect_segs(a, b, unit=None):
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


# -- annulus boxes -------------------------------------------------------

def _intersect_boxes(a, b, unit):
    rlo = max(a[0], b[0])
    rhi = min(a[1], b[1])
    if rlo > rhi:
        return []
    return [(rlo, rhi, s, l)
            for s, l in _intersect_arcs((a[2], a[3]), (b[2], b[3]), unit)]


def _normalize_boxes(boxes, unit):
    """The box normal form of the module doc, by one angular sweep."""
    kept = []
    for rlo, rhi, s, l in boxes:
        if rlo > rhi or l < 0:
            continue
        kept.append((rlo, rhi, 0, unit) if l >= unit
                    else (rlo, rhi, s % unit, l))
    if len(kept) <= 1:
        return kept
    # cut the circle at every box end; a wrapping box splits at 0
    pieces = []
    for rlo, rhi, s, l in kept:
        if s + l > unit:
            pieces += [(rlo, rhi, s, unit), (rlo, rhi, 0, s + l - unit)]
        else:
            pieces.append((rlo, rhi, s, s + l))
    cuts = sorted({0, unit, *chain.from_iterable(p[2:] for p in pieces)})
    at = {c: i for i, c in enumerate(cuts)}
    gaps = [[] for _ in cuts[1:]]  # radial segments over (cuts[k], cuts[k+1])
    points = [[] for _ in cuts]    # radial segments at the angle cuts[k]
    for rlo, rhi, a, b in pieces:
        i, j = at[a], at[b]
        for k in range(i, j):
            gaps[k].append((rlo, rhi))
        for k in range(i, j + 1):
            points[k].append((rlo, rhi))
    points[0] += points.pop()  # the angle unit is the angle 0
    gaps = [tuple(_normalize_segs(g)) for g in gaps]
    runs = []  # maximal angular slabs [start, end, radial segments]
    for lo, hi, segs in zip(cuts, cuts[1:], gaps):
        if runs and runs[-1][2] == segs:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, segs])
    if len(runs) > 1 and runs[0][2] == runs[-1][2]:
        runs[-1][1] = unit + runs.pop(0)[1]
    out = [(rlo, rhi, lo, hi - lo) for lo, hi, segs in runs
           for rlo, rhi in segs]
    # a cut keeps the radial segments its two neighbouring slabs leave out
    for k, c in enumerate(cuts[:-1]):
        covered = _normalize_segs(gaps[k - 1] + gaps[k])
        out += [(rlo, rhi, c, 0) for rlo, rhi in _normalize_segs(points[k])
                if (rlo, rhi) not in covered]
    return sorted(out)


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

    def contains(self, point) -> bool:
        nums, scale = scaled_point(point)
        return self.first_inside([nums], scale) is not None

    def first_inside(self, points, scale):
        """The first of ``points`` (tuples of numerators over ``scale``)
        that lies in this set, or None.

        A coordinate c is read over the set's unit as floor(c * unit /
        scale), marked short when the division leaves a remainder (the
        value then lies strictly inside the next lattice cell), so the
        fragments are compared as they are: none is lifted to the points'
        scale."""
        frags, unit, kind = self.nums, self.unit, self.space.kind
        for p in points:
            floors, shorts = [], []
            for c in p:
                f, rem = divmod(c * unit, scale)
                floors.append(f)
                shorts.append(1 if rem else 0)
            if _contains(kind, frags, floors, unit, shorts):
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


def _contains(kind, frags, point, unit, shorts) -> bool:
    """Whether point, numerators over unit, lies in the fragments. A
    coordinate whose ``shorts`` entry is 1 stands for a value strictly
    between it and the next integer, which stays at or below an integer
    end e only if the coordinate is at most e - 1."""
    if kind == "circle":
        x, short = point[0], shorts[0]
        for s, l in frags:
            if (x - s) % unit <= l - short:
                return True
        return False
    if kind == "interval":
        x, short = point[0], shorts[0]
        for lo, hi in frags:
            if lo <= x <= hi - short:
                return True
        return False
    r, theta = point
    r_short, theta_short = shorts
    for rlo, rhi, s, l in frags:
        if rlo <= r <= rhi - r_short and (theta - s) % unit <= l - theta_short:
            return True
    return False


def make(space: Space, fragments) -> EnclosureSet:
    """Normalize fragments of rational coordinates into a canonical
    EnclosureSet over the lcm of their denominators.

    Overlapping or touching fragments are merged exactly (see the module
    doc). Above ``DEFAULT_FRAGMENT_CAP`` fragments, read at call time, it
    fails with ``EnclosureCapError``, whose ``partial`` is the exact set.
    """
    return _make(space, *_integers(fragments))


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
    (nums,), unit = _integers(((*center, radius),), base)
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
    rlo = max(center[0] - radius, unit - w)
    rhi = min(center[0] + radius, unit + w)
    if 2 * radius >= unit:
        return (rlo, rhi, 0, unit)
    return (rlo, rhi, (center[1] - radius) % unit, 2 * radius)


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
