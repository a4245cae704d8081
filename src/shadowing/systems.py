"""Model self-maps of the spaces, with exact set-valued images.

Every shipped map is piecewise linear with rational parameters: circle and
interval maps are built on one piecewise-linear engine (doubling, tent,
rotations, general ``pwl`` maps and the spiral's radial contraction are
thin constructors over it), and the spiral on the annulus is the product
of the contraction r -> (1 - lam) + lam r of the band [1 - w, 1 + w] and
the rotation by alpha (``ProductMap``). Point evaluation, images of
enclosure sets and pointwise preimages are therefore exact.

A piecewise-linear map evaluates at a scale: ``apply_scaled`` takes a
point as integer numerators over a ``unit``, a multiple of the map's
``lattice_base``, and returns numerators over the unit times q, the lcm
of the slope denominators. No method builds a table for the unit: the
map reads its parameters over the lattice base and scales them by k =
unit / lattice_base as it goes. The two witness loops of a decision run
in the map, with no call per step: ``pull_back`` takes a point back
through a record of shadow sets, keeping at each step the smallest
preimage that lies in the set, solved for fragment by fragment and piece
by piece on small integers over the set's unit (a one-to-one map makes
its one preimage first), and ``tracks`` steps an orbit as
``apply_scaled`` does and compares it with a trajectory point by point.
A map of one linear piece (doubling, the rotations, x -> -2x, the radial
contraction) hands its piece over as constants for a unit (``line``):
the point x over the unit goes to c + f * x over the unit times q, with c
linear in the unit. The walk (``pseudotraj.LatticeWalk``) and propagation
(``shadowcheck.shadow_sets``) step points and fragments on them inline
and carry c across each change of unit by its factor. A map with corners
(tent, ``pwl`` maps of several pieces) has no ``line``: the walk calls
its ``apply_scaled``, and propagation its ``image_step``, the corner
walk, which gives the image arcs or segments of a fragment, one per
linear piece crossed, over the lcm of the image's unit and a ball's.
``apply_set``, the image of a whole set that the cover search takes,
puts the corner walk's pieces in normal form.
An interval map's interval has rational ends, [0, 1] for tent and the
``pwl`` maps and [1 - w, 1 + w] for the radial contraction; they bound
its values and its truncated draws and balls.
A product map has no kernel loop of its own: its walk is its factors'
walks on one stream (``ProductWalk``), and a decision decides each factor
on its coordinate and takes the conjunction
(``shadowcheck.horizon_verdicts``), which the max metric makes exact.
Each map converts its ``Fraction`` parameters to integers once, when it is
built, so evaluating at a new scale reads no ``Fraction``.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import enclosure
from .enclosure import EnclosureSet
from .errors import DomainError, UsageError
from .pseudotraj import LatticeWalk
from .rationals import frac
from .spaces import Space, annulus, circle, interval


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A continuous piecewise-linear self-map of the circle or an interval.

    ``breakpoints`` are the left endpoints of the linear pieces (the first
    must be 0 on the circle and the interval's lower end lo on an
    interval [lo, hi]), ``slopes`` the per-piece slopes, ``offset`` the
    value at the first breakpoint. On the circle the map is taken mod 1
    and must close up (integer total winding); on an interval all piece
    values must stay inside its ends. Slopes must be nonzero so pointwise
    preimages are finite.
    """

    space: Space
    breakpoints: tuple
    slopes: tuple
    offset: Fraction
    kind: str = "pwl"

    def __post_init__(self):
        if self.space.kind not in ("circle", "interval"):
            raise UsageError("piecewise-linear maps live on circle or interval")
        circle = self.space.kind == "circle"
        lo, hi = (Fraction(0), Fraction(1)) if circle else self.space.ends
        bps = self.breakpoints
        if not bps or bps[0] != lo or len(bps) != len(self.slopes):
            raise UsageError(f"need matching breakpoints (starting at {lo}) "
                             "and slopes")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])) or bps[-1] >= hi:
            raise UsageError("breakpoints must increase strictly inside "
                             f"[{lo}, {hi})")
        if any(s == 0 for s in self.slopes):
            raise UsageError("zero slopes are not supported")
        values = [self.offset]
        ends = list(bps[1:]) + [hi]
        for b, e, s in zip(bps, ends, self.slopes):
            values.append(values[-1] + s * (e - b))
        degree = values[-1] - values[0]
        if circle:
            if degree != int(degree):
                raise UsageError("circle map must have integer winding number")
            object.__setattr__(self, "degree", int(degree))
        else:
            if any(v < lo or v > hi for v in values):
                raise UsageError(f"interval map must send [{lo}, {hi}] into "
                                 "itself")
            object.__setattr__(self, "degree", None)
        base = math.lcm(*(Fraction(v).denominator
                          for v in (*bps, *values, hi)))
        slopes = [Fraction(sl) for sl in self.slopes]
        q = math.lcm(*(sl.denominator for sl in slopes))
        p = math.lcm(*(abs(sl.numerator) for sl in slopes))
        object.__setattr__(self, "lattice_base", base)
        # breakpoints and values as numerators over the lattice base; on a
        # unit k * base they are these times k. On piece i the map sends x
        # (over the unit) to consts[i] * k + slopes[i] * x over q times it,
        # where i counts the breakpoints past 0 that x // k reaches (none
        # for a one-piece map). The base and whether the map is on the
        # circle ride along, so a step reads them with the rest.
        bps_base = tuple(int(b * base) for b in bps)
        vals_base = tuple(int(v * base) for v in values)
        slopes_q = tuple(int(sl * q) for sl in slopes)
        consts = tuple(v * q - sl * b
                       for b, v, sl in zip(bps_base, vals_base, slopes_q))
        object.__setattr__(self, "_lattice", (
            bps_base[1:], q, slopes_q, consts, base,
            self.space.kind == "circle"))
        # the pull-back's walk (see pull_back), a row per piece: its end
        # over the base (1, or the interval's upper end, for the last
        # piece), its slope over q, the slope's size and its constant, as
        # above, then its inverse. On a unit k * base, the preimage on the
        # piece of a point x over the unit, lifted by w turns, is x * inv
        # + (c0 + w * base * inv) * k over p times the unit, with inv = p
        # / slope; turn = base * |inv|
        walk = []
        for b, v, end, sl, sq, c in zip(bps_base, vals_base,
                                        bps_base[1:] + (int(hi * base),),
                                        slopes, slopes_q, consts):
            inv = p * sl.denominator // sl.numerator
            walk.append((end, sq, abs(sq), c, b * p - v * inv,
                         base * abs(inv), inv))
        object.__setattr__(self, "_walk", (p, tuple(walk)))
        # the corners of the map past 0: (position, piece after it, value),
        # numerators over the base. A circle map's lift runs on over
        # [1, 2), one turn up; it has a corner at 1 only where the last and
        # first slopes differ, else the last piece runs on past the wrap
        cuts = [(b, j, v) for j, (b, v)
                in enumerate(zip(bps_base, vals_base)) if j]
        if self.space.kind == "circle":
            wrap = [(0, 0, vals_base[0])] if slopes[0] != slopes[-1] else []
            cuts += [(b + base, j, v + self.degree * base)
                     for b, j, v in wrap + cuts]
        object.__setattr__(self, "_cuts", tuple(cuts))

    @property
    def lipschitz(self):
        return max(abs(s) for s in self.slopes)

    @property
    def alpha(self):
        if self.kind != "rotation":
            raise UsageError("alpha is defined for rotations only")
        return self.offset

    def apply_scaled(self, point, unit):
        """The map at a point given as numerators over an integer ``unit``
        (a multiple of lattice_base): (numerators, out unit). With k =
        unit / lattice_base the piece of x is that of floor(x / k) on the
        base's breakpoints, so no table is built for the unit."""
        inner, q, slopes, consts, base, circle = self._lattice
        k = unit // base
        x = point[0]
        i = bisect_right(inner, x // k) if inner else 0
        v, out = consts[i] * k + slopes[i] * x, unit * q
        if circle:
            return (v % out,), out
        return (v,), out

    def walk(self, y0, d, n, rng) -> LatticeWalk:
        return LatticeWalk(self, y0, d, n, rng)

    def line(self, unit):
        """The map's one linear piece at ``unit`` (a multiple of
        lattice_base), for a map with no corner: (q, c, f), where the
        point x over ``unit`` goes to c + f * x over unit * q (taken mod
        unit * q on the circle). c is linear in the unit, so a caller that
        changes the unit by an integer factor carries c by that factor;
        q and f stay. None for a map with corners, whose point step is
        ``apply_scaled`` and whose set step is ``image_step``."""
        inner, q, slopes, consts, base, _ = self._lattice
        if inner:
            return None
        return q, consts[0] * (unit // base), slopes[0]

    def image_step(self, u, unit) -> tuple:
        """(step, W): step(fragment) is the image of one fragment over
        ``u`` as pieces over W = lcm(u * q, unit), the unit of a ball over
        ``unit`` that they are to meet: arcs (start, length), the start
        any integer and the length at least 0, or segments (lo, hi). The
        caller clips them.

        A fragment is walked from the piece of its start through the
        corners it crosses (``_cuts``); an arc on the lift of the map to
        twice the unit. With k = u / lattice_base and m = W / (u * q), the
        corner (b, j, v) lies at b * k and goes to v * W / lattice_base;
        the start x of piece i goes to consts[i] * k * m + slopes[i] * m *
        x, and a point past a corner moves from its image by the slope
        times m, so no table is built for the unit; the products by k * m
        are taken once, when the step is made. A segment takes the same
        walk without the wrap: each linear piece crossed gives one image
        arc or segment, and the touching image segments of a segment
        normalize to the hull of its image."""
        inner, q, slopes, consts, base, circle = self._lattice
        cuts = self._cuts
        out = u * q
        w = out if unit == out else math.lcm(out, unit)
        km = k = u // base
        if w != out:
            m = w // out
            km, slopes = k * m, tuple(sl * m for sl in slopes)
        vk, consts = km * q, tuple(c * km for c in consts)

        def piece(a, b):  # the image piece from a to b
            lo, hi = (a, b) if a <= b else (b, a)
            return (lo, hi - lo) if circle else (lo, hi)

        def step(frag):
            start = frag[0]
            end = start + frag[1] if circle else frag[1]
            i = bisect_right(inner, start // k) if inner else 0
            x, sl = start, slopes[i]
            fx = consts[i] + sl * start
            pieces = []
            for c, j, v in cuts[i:]:
                if c * k >= end:
                    break
                fv = v * vk
                pieces.append(piece(fx, fv))
                x, sl, fx = c * k, slopes[j], fv
            pieces.append(piece(fx, fx + sl * (end - x)))
            return pieces
        return step, w

    def apply_set(self, s: EnclosureSet) -> EnclosureSet:
        """The image of s, normalized: the pieces of ``image_step`` for
        every fragment, put in normal form by ``enclosure._make``. A set
        whose unit is not a multiple of the lattice base is lifted to the
        lcm of the two first."""
        space = self.space
        if s.space is not space and s.space != space:
            raise UsageError("enclosure set belongs to a different space")
        nums, u = s.nums, s.unit
        if u % self.lattice_base:
            u = math.lcm(u, self.lattice_base)
            nums = enclosure._lift(nums, u // s.unit)
        step, out = self.image_step(u, u)
        return enclosure._make(space, [p for f in nums for p in step(f)],
                               out)

    def pull_back(self, point, scale, sets, m):
        """``shadowcheck.pull_back_witness``'s loop: the point, numerators
        over ``scale`` (a multiple of lattice_base), pulled back through
        the record's sets ``sets.nums[n]`` over ``sets.units[n]`` for n =
        m - 1, ..., 0, keeping at each step the smallest preimage in
        the circle's [0, 1) or in the interval that lies in the set (in
        ``enclosure``'s normal form).
        Returns (numerators, scale), or None where a step finds none. No
        call per step, and only the kept preimage is made.

        The preimage is solved for fragment by fragment in increasing
        order, on the circle from the part past 1 of a last arc that
        wraps, and in each over the pieces it crosses, so the first
        sub-piece [a, b] that holds one holds the smallest. With the
        set's unit a multiple of lattice_base (a set over another unit is
        lifted to one) and d = unit * q, the point lies in cell j of the
        grid 1/d, past it by r/k, k = scale / lattice_base. The image of
        [a, b] is a segment over d from the piece's constant at the unit
        plus its slope times a, of the slope's size times b - a. On the
        circle one division of small integers by d gives the lift's turn
        w and how far rem the lift lies past that start (before it on a
        decreasing piece); on an interval no other lift is the point, so
        w is 0 and rem is the point's own distance past the start, which
        is negative for a point before it, however long the interval. The
        lift lies in the image when rem is at least 0 and, plus one if r
        > 0, at most that size. The preimage is a + rem / size over
        the unit plus less than 1 / size, so the next cell is a + rem //
        size wherever the next d is this unit, as where the units nest
        by q (every generated trajectory); the first step, and a step
        whose units do not nest, divides x instead. The kept preimage is
        x * inv + (c0 - w * turn) * k over the scale times p, the lcm of
        the slope numerators, so k is carried by p.

        A one-to-one map (one piece, on an interval or of slope -+1 on
        the circle: the spiral's factors) makes its one preimage a step
        and finds it in the set's fragments by one division."""
        inner, q, _, _, base, circle = self._lattice
        p, walk = self._walk
        x = point[0]
        k = scale // base
        if not inner and (not circle or p == q == 1):
            *_, c0, _, inv = walk[0]
            for arcs, unit in zip(reversed(sets.nums[:m]),
                                  reversed(sets.units[:m])):
                x, k = x * inv + c0 * k, k * p
                if circle:
                    x %= k * base
                j, r = divmod(x * unit, k * base)
                short = 1 if r else 0
                for a, e in arcs:  # an arc (s, l) or a segment (lo, hi)
                    if ((j - a) % unit <= e - short if circle
                            else a <= j <= e - short):
                        break
                else:
                    return None
            return (x,), k * base
        kept = prev = None
        w = 0  # the lift's turn, 0 on an interval
        for arcs, unit in zip(reversed(sets.nums[:m]),
                              reversed(sets.units[:m])):
            if unit != kept:  # the unit's constants
                lift = base // math.gcd(unit, base)
                kept = unit if lift == 1 else None
                if lift != 1:
                    arcs = tuple(tuple(c * lift for c in f) for f in arcs)
                    unit *= lift
                ku, d = unit // base, unit * q
            if d != prev:  # the point's cell, by one division
                j, r = divmod(x * (ku * q), k)
                top = 1 if r else 0
            if circle:
                s, l = arcs[-1]
                if s + l >= unit and s:  # the last arc's wrap comes first
                    arcs = ((0, s + l - unit), *arcs[:-1], (s, unit - s))
            for a, e in arcs:  # an arc (s, l) or a segment (lo, hi)
                if circle:
                    e += a
                if inner:
                    i = bisect_right(inner, a // ku)
                    pieces = walk[i:bisect_left(inner, -(-e // ku), i) + 1]
                else:
                    pieces = walk
                for b, sl, size, c, c0, turn, inv in pieces:
                    c *= ku
                    rem = j - c - sl * a if sl > 0 else c + sl * a - j - top
                    if circle:
                        w, rem = divmod(rem, d)
                    b *= ku
                    if 0 <= rem <= size * ((b if b < e else e) - a) - top:
                        break
                    a = b
                else:
                    continue  # no preimage in this fragment
                break
            else:
                return None
            x = x * inv + (c0 - w * turn) * k
            k *= p
            j, prev = a + rem // size, unit
            if not top and rem % size:
                top = 1
        return (x,), k * base

    def tracks(self, z, z_scale, points, eps) -> bool:
        """``shadowcheck.orbit_tracks``'s loop: whether the orbit of z,
        numerators over ``z_scale`` (a multiple of lattice_base), stays
        within eps of ``points`` (a ``ScaledPoints``). The orbit is
        stepped as ``apply_scaled`` steps it, inline, with k = z_scale /
        lattice_base carried by q, and the distance is compared inline:
        no call per step."""
        inner, q, slopes, consts, base, circle = self._lattice
        eps_num, eps_den = eps.numerator, eps.denominator
        x, k = z[0], z_scale // base
        kept_z = kept_s = 0
        for (y,), s in zip(points.nums, points.scales):
            if s != kept_s or z_scale != kept_z:
                if s == kept_s * q and z_scale == kept_z * q:
                    # both scales grew by q: the lifts stay
                    common, bound = common * q, bound * q
                else:
                    z_lift, y_lift = s * eps_den, z_scale * eps_den
                    common, bound = z_scale * z_lift, eps_num * z_scale * s
                kept_z, kept_s = z_scale, s
            t = x * z_lift - y * y_lift
            if circle:
                t %= common
                if t > bound and common - t > bound:
                    return False
            elif t > bound or -t > bound:
                return False
            i = bisect_right(inner, x // k) if inner else 0
            x = consts[i] * k + slopes[i] * x
            z_scale *= q
            k *= q
            if circle:
                x %= z_scale
        return True


@dataclass(frozen=True)
class ProductMap:
    """The product (x, y) -> (g(x), h(y)) of an interval map g and a
    circle map h, its ``factors``, on the annulus ``space`` whose radial
    band is g's interval. Under the max metric the shadow set at step n
    is R_n x T_n, one set per factor, and an orbit tracks a trajectory
    exactly when each coordinate tracks its own; so each factor is
    sampled, propagated, pulled back and re-checked as the map it is.
    """

    space: Space
    factors: tuple
    kind: str = "annulus_spiral"

    @property
    def lipschitz(self):
        return max(f.lipschitz for f in self.factors)

    @property
    def lattice_base(self) -> int:
        return math.lcm(*(f.lattice_base for f in self.factors))

    def walk(self, y0, d, n, rng) -> "ProductWalk":
        return ProductWalk(self, y0, d, n, rng)

    def tracks(self, z, z_scale, points, eps) -> bool:
        """``shadowcheck.orbit_tracks``'s loop: each factor's ``tracks``
        on its coordinate of z and of the points."""
        return all(f.tracks((c,), z_scale, points.coordinate(i), eps)
                   for i, (f, c) in enumerate(zip(self.factors, z)))


class ProductWalk:
    """The random walk of a ``ProductMap``: one ``pseudotraj.LatticeWalk``
    per factor, from its coordinate of y0 (checked first as a point of the
    product), each on its own scale, all reading one stream in lockstep,
    the first factor's step first: the radius's draw, then the angle's.
    Iterating (once) yields per step the tuple of the factors' points;
    ``taken`` is the tuple of their ``taken`` points, ``d`` their d.
    """

    def __init__(self, system, y0, d, n, rng):
        system.space.lattice_point(y0)
        self.walks = tuple(LatticeWalk(f, (c,), d, n, rng)
                           for f, c in zip(system.factors, y0))
        self.taken = tuple(w.taken for w in self.walks)
        self.d = self.walks[0].d

    def __iter__(self):
        return zip(*self.walks)


# -- constructors ---------------------------------------------------------

def doubling() -> PiecewiseLinearMap:
    return PiecewiseLinearMap(circle(), (Fraction(0),), (Fraction(2),),
                              Fraction(0), kind="doubling")


def tent(s) -> PiecewiseLinearMap:
    s = frac(s)
    if not 0 < s <= 2:
        raise DomainError("tent slope must lie in (0, 2] to keep [0,1] invariant")
    return PiecewiseLinearMap(interval(), (Fraction(0), Fraction(1, 2)),
                              (s, -s), Fraction(0), kind="tent")


def rotation(alpha) -> PiecewiseLinearMap:
    return PiecewiseLinearMap(circle(), (Fraction(0),), (Fraction(1),),
                              frac(alpha) % 1, kind="rotation")


def pwl(pairs, offset=0, space_kind: str = "circle") -> PiecewiseLinearMap:
    """General piecewise-linear map from (breakpoint, slope) pairs."""
    pairs = sorted((frac(b), frac(s)) for b, s in pairs)
    if space_kind not in ("circle", "interval"):
        raise UsageError(f"unknown pwl space {space_kind!r}: "
                         "expected circle or interval")
    space = circle() if space_kind == "circle" else interval()
    return PiecewiseLinearMap(space, tuple(b for b, _ in pairs),
                              tuple(s for _, s in pairs), frac(offset))


def annulus_spiral(lam, alpha, w) -> ProductMap:
    """The spiral (r, theta) -> (1 + lam (r - 1), theta + alpha) on the
    annulus of half-width w: the contraction r -> (1 - lam) + lam r of
    the band [1 - w, 1 + w] times ``rotation(alpha)``."""
    space, lam = annulus(w), frac(lam)
    angular = rotation(alpha)
    if not 0 < lam < 1:
        raise DomainError("contraction factor must satisfy 0 < lam < 1")
    lo, hi = space.ends
    radial = PiecewiseLinearMap(interval(lo, hi), (lo,), (lam,),
                                1 - lam * space.w, kind="contraction")
    return ProductMap(space, (radial, angular))


def parse_system(text: str):
    """Parse a system spec string.

    Grammar: ``doubling``, ``tent:s=<rational>``, ``rotation:alpha=<rational>``,
    ``annulus:lambda=<rational>,alpha=<rational>,w=<float>``, and
    ``pwl:<breakpoint:slope,...>[,v0=<rational>][,space=circle|interval]``.
    A spec that is not a string is a ``UsageError``, refused before the
    cache is asked: the maps are memoized by spec string, and every map
    is immutable, so all callers in a process share one map per spec.
    Errors are not cached.
    """
    if not isinstance(text, str):
        raise UsageError(f"a system spec is a string, got {text!r}")
    return _parse_system(text)


@functools.lru_cache(maxsize=64)
def _parse_system(text: str):
    s = text.strip()
    if s == "doubling":
        return doubling()
    head, _, body = s.partition(":")
    if head == "tent":
        return tent(_params(body, {"s"})["s"])
    if head == "rotation":
        return rotation(_params(body, {"alpha"})["alpha"])
    if head == "annulus":
        p = _params(body, {"lambda", "alpha", "w"})
        return annulus_spiral(p["lambda"], p["alpha"], p["w"])
    if head == "pwl":
        pairs, named = [], {}
        for part in body.split(","):
            key, _, value = part.partition("=")
            if key not in ("v0", "space"):
                b, _, sl = part.partition(":")
                pairs.append((frac(b), frac(sl)))
            elif key in named:
                raise UsageError(f"parameter {key!r} given twice")
            else:
                named[key] = value
        return pwl(pairs, named.get("v0", 0),
                   named.get("space", "circle").strip())
    raise UsageError(f"unknown system spec {text!r}")


def _params(body: str, keys: set) -> dict:
    out = {}
    for part in body.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"unexpected parameter {key!r}")
        if key in out:
            raise UsageError(f"parameter {key!r} given twice")
        out[key] = frac(value)
    if set(out) != keys:
        raise UsageError(f"expected parameters {sorted(keys)}")
    return out
