"""Model self-maps of the spaces, with exact set-valued images.

Every shipped map is piecewise linear with rational parameters: circle and
interval maps are built on one piecewise-linear engine (doubling, tent,
rotations and general ``pwl`` maps are thin constructors over it), and the
annulus carries a contraction-rotation. Point evaluation, images of
enclosure sets and pointwise preimages are therefore computed exactly;
outer and inner image enclosures coincide.

Each map evaluates at a scale: ``apply_scaled`` and ``preimages_scaled``
take a point as integer numerators over a ``unit``, a multiple of the
map's ``lattice_base``, and return numerators over the output unit, which
is ``unit`` times the lcm of the slope denominators (images) or numerators
(preimages), so integer-slope maps keep the scale. Neither builds a table
for the unit: a piecewise-linear map reads its parameters over the
lattice base and scales them by unit / lattice_base as it goes.
``image_fragments`` is the image of a set before normalization, which
``apply_set`` adds and the shadow-set step defers
(``enclosure.meet_ball``); its tables over the set's unit are kept while
the unit stays, and with unit 1 they are the ``Fraction`` parameters
themselves, on which the public ``apply`` runs. The public ``preimages``
puts its point on the lattice and reads the result back as ``Fraction``
values. Each map converts its ``Fraction`` parameters to integers once,
when it is built, so evaluating at a new scale reads no ``Fraction``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import enclosure
from .enclosure import EnclosureSet
from .errors import DomainError, UsageError
from .rationals import frac
from .spaces import Space, annulus, circle, interval, scaled_point


def _apply_set(system, s: EnclosureSet) -> EnclosureSet:
    """The image of s: its raw image fragments, normalized."""
    frags, out = system.image_fragments(s)
    return enclosure._make(system.space, frags, out)


def _preimages(system, point) -> list:
    """All solutions of apply(x) == point, canonical and sorted: the
    map's ``preimages_scaled`` over the lcm of the point's denominators and
    the lattice base, read back as Fractions."""
    nums, scale = scaled_point(point)
    unit = math.lcm(scale, system.lattice_base)
    found, out = system.preimages_scaled(
        tuple(c * (unit // scale) for c in nums), unit)
    return [tuple(Fraction(c, out) for c in t) for t in found]


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A continuous piecewise-linear self-map of the circle or interval.

    ``breakpoints`` are the left endpoints of the linear pieces (the first
    must be 0), ``slopes`` the per-piece slopes, ``offset`` the value at 0.
    On the circle the map is taken mod 1 and must close up (integer total
    winding); on the interval all piece values must stay inside [0, 1].
    Slopes must be nonzero so pointwise preimages are finite.
    """

    space: Space
    breakpoints: tuple
    slopes: tuple
    offset: Fraction
    kind: str = "pwl"

    def __post_init__(self):
        if self.space.kind not in ("circle", "interval"):
            raise UsageError("piecewise-linear maps live on circle or interval")
        bps = self.breakpoints
        if not bps or bps[0] != 0 or len(bps) != len(self.slopes):
            raise UsageError("need matching breakpoints (starting at 0) and slopes")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])) or bps[-1] >= 1:
            raise UsageError("breakpoints must increase strictly inside [0, 1)")
        if any(s == 0 for s in self.slopes):
            raise UsageError("zero slopes are not supported")
        values = [self.offset]
        ends = list(bps[1:]) + [Fraction(1)]
        for b, e, s in zip(bps, ends, self.slopes):
            values.append(values[-1] + s * (e - b))
        object.__setattr__(self, "_values", tuple(values))
        degree = values[-1] - values[0]
        if self.space.kind == "circle":
            if degree != int(degree):
                raise UsageError("circle map must have integer winding number")
            object.__setattr__(self, "degree", int(degree))
        else:
            if any(v < 0 or v > 1 for v in values):
                raise UsageError("interval map must send [0, 1] into itself")
            object.__setattr__(self, "degree", None)
        base = math.lcm(*(Fraction(v).denominator
                          for v in tuple(bps) + tuple(values)))
        slopes = [Fraction(sl) for sl in self.slopes]
        q = math.lcm(*(sl.denominator for sl in slopes))
        p = math.lcm(*(abs(sl.numerator) for sl in slopes))
        object.__setattr__(self, "lattice_base", base)
        # breakpoints and values as numerators over the lattice base; on a
        # unit k * base they are these times k. On piece i the map sends x
        # (over the unit) to consts[i] * k + slopes[i] * x over q times it.
        bps_base = tuple(int(b * base) for b in bps)
        vals_base = tuple(int(v * base) for v in values)
        slopes_q = tuple(int(sl * q) for sl in slopes)
        object.__setattr__(self, "_lattice", (
            bps_base, vals_base, q, slopes_q,
            tuple(v * q - sl * b
                  for b, v, sl in zip(bps_base, vals_base, slopes_q))))
        # per piece: its value range over the base and the preimage line
        # t = (c + J * inv) * k + r * inv over p times the unit (see
        # preimages_scaled), inv = p / slope
        pieces = []
        for b, v_start, v_end, sl in zip(bps_base, vals_base, vals_base[1:],
                                         slopes):
            inv = p * sl.denominator // sl.numerator
            pieces.append((min(v_start, v_end), max(v_start, v_end),
                           b * p - v_start * inv, inv))
        object.__setattr__(self, "_pieces", (
            p, base, self.space.kind == "circle", tuple(pieces)))
        object.__setattr__(self, "_memo", {})

    @property
    def lipschitz(self):
        return max(abs(s) for s in self.slopes)

    @property
    def alpha(self):
        if self.kind != "rotation":
            raise UsageError("alpha is defined for rotations only")
        return self.offset

    def _tables(self, unit):
        """(breakpoints, values, slopes, out) over ``unit``: on piece i the
        map sends x to values[i] + slopes[i] * (x - breakpoints[i]), all
        numerators, the result over ``out``. Unit 1 gives the parameters
        themselves; an integer unit must be a multiple of lattice_base."""
        if unit == 1:
            return self.breakpoints, self._values, self.slopes, 1
        memo = self._memo.get("tables")
        if memo is None or memo[0] != unit:
            bps, vals, q, slopes, _ = self._lattice
            k = unit // self.lattice_base
            memo = (unit, (tuple(b * k for b in bps),
                           tuple(v * k * q for v in vals), slopes, unit * q))
            self._memo["tables"] = memo
        return memo[1]

    def apply(self, point):
        v = self._value(point[0], self._tables(1))
        return (v % 1,) if self.space.kind == "circle" else (v,)

    def apply_scaled(self, point, unit):
        """apply() for numerators over an integer ``unit`` (a multiple of
        lattice_base): (numerators, out unit). With k = unit / lattice_base
        the piece of x is that of floor(x / k) on the base's breakpoints,
        so no table is built for the unit."""
        bps, _, q, slopes, consts = self._lattice
        k = unit // self.lattice_base
        x = point[0]
        i = bisect_right(bps, x // k) - 1 if len(bps) > 1 else 0
        v, out = consts[i] * k + slopes[i] * x, unit * q
        if self.space.kind == "circle":
            return (v % out,), out
        return (v,), out

    def image_fragments(self, s: EnclosureSet) -> tuple:
        """(fragments, out unit) of the image of s before normalization:
        one arc per linear piece that an arc of s crosses, one segment per
        segment of s."""
        if s.space is not self.space and s.space != self.space:
            raise UsageError("enclosure set belongs to a different space")
        tables = self._tables(s.unit)
        if self.space.kind == "circle":
            frags = []
            for start, length in s.nums:
                frags += self._arc_image(start, length, tables, s.unit)
        else:
            frags = [self._seg_image(lo, hi, tables) for lo, hi in s.nums]
        return frags, tables[3]

    apply_set = _apply_set

    @staticmethod
    def _value(x, tables):
        """Piecewise value of x in [0, unit] before any wrap."""
        bps, vals, slopes, _ = tables
        i = bisect_right(bps, x) - 1
        return vals[i] + slopes[i] * (x - bps[i])

    def _arc_image(self, start, length, tables, unit):
        """The image arcs of the arc (start, length), one per linear piece
        it crosses, through the continuous lift of the map on [0, 2 unit)."""
        bps, out = tables[0], tables[3]
        end = start + length
        xs = [start]  # the breakpoints, then those one turn on, come sorted
        for b in bps:
            if start < b < end:
                xs.append(b)
        for b in bps:
            if start < b + unit < end:
                xs.append(b + unit)
        xs.append(end)
        value, turn = self._value, self.degree * out
        arcs = []
        fu = None
        for x in xs:
            fv = (value(x, tables) if x < unit
                  else value(x - unit, tables) + turn)
            if fu is not None:
                lo, hi = (fu, fv) if fu <= fv else (fv, fu)
                arcs.append((lo % out, min(hi - lo, out)))
            fu = fv
        return arcs

    def _seg_image(self, lo, hi, tables):
        xs = [lo] + [b for b in tables[0] if lo < b < hi] + [hi]
        vals = [self._value(x, tables) for x in xs]
        return (min(vals), max(vals))

    preimages = _preimages

    def preimages_scaled(self, point, unit) -> tuple:
        """All solutions of apply(x) == point for numerators over an
        integer ``unit`` (a multiple of lattice_base): (sorted numerator
        tuples, out unit), out = unit * lcm of the slope numerators.

        With k = unit / lattice_base and (j, r) = divmod(x, k), the point
        is (j + r/k) / lattice_base, so which pieces and windings J = j +
        m * lattice_base reach it is decided on small integers, and each
        preimage costs two products by k-sized numbers. The pieces come
        in order and each yields its preimages in increasing order, so the
        list comes sorted; only a preimage at a breakpoint is found twice,
        once by each piece, and on the circle the preimage 1 is the
        preimage 0."""
        x = point[0]
        p, base, circle, pieces = self._pieces
        k = unit // base
        j, r = divmod(x, k)
        top = 1 if r else 0  # J + r/k <= hi needs J <= hi - top
        out = unit * p
        found = []
        for lo, hi, c, inv in pieces:
            if circle:
                js = range(j - (j - lo) // base * base, hi - top + 1, base)
            else:
                js = (j,) if lo <= j <= hi - top else ()
            if inv < 0:
                js = reversed(js)
            for J in js:
                t = (c + J * inv) * k + r * inv
                if found and found[-1][0] == t or circle and t == out:
                    continue
                found.append((t,))
        return found, out


@dataclass(frozen=True)
class AnnulusSpiral:
    """Contraction toward the unit circle composed with a rigid rotation:
    (r, theta) -> (1 + lam*(r-1), theta + alpha)."""

    space: Space
    lam: Fraction
    alpha: Fraction
    kind: str = "annulus_spiral"

    def __post_init__(self):
        if self.space.kind != "annulus":
            raise UsageError("spiral maps live on an annulus")
        if not 0 < self.lam < 1:
            raise DomainError("contraction factor must satisfy 0 < lam < 1")
        # lam = p / q and alpha = a / b as ints: (p, q, a, b)
        object.__setattr__(self, "_lattice", self.lam.as_integer_ratio()
                           + self.alpha.as_integer_ratio())

    @property
    def lipschitz(self):
        return max(self.lam, Fraction(1))

    @property
    def lattice_base(self) -> int:
        return math.lcm(self.alpha.denominator, self.space.w.denominator)

    def _tables(self, unit):
        """(lam, lift, alpha, out) over ``unit``: the map sends (r, theta)
        to (out + lam * (r - unit), (theta * lift + alpha) % out)."""
        if unit == 1:
            return self.lam, 1, self.alpha, 1
        p, q, a, b = self._lattice
        out = unit * q
        return p, q, a * (out // b), out

    def apply(self, point):
        return self.apply_scaled(point, 1)[0]

    def apply_scaled(self, point, unit):
        """apply() for numerators over ``unit``: (numerators, out unit)."""
        lam, lift, alpha, out = self._tables(unit)
        r, theta = point
        return (out + lam * (r - unit), (theta * lift + alpha) % out), out

    def image_fragments(self, s: EnclosureSet) -> tuple:
        """(fragments, out unit) of the image of s before normalization:
        one box per box of s."""
        if s.space is not self.space and s.space != self.space:
            raise UsageError("enclosure set belongs to a different space")
        unit = s.unit
        lam, lift, alpha, out = self._tables(unit)
        return [(out + lam * (rlo - unit), out + lam * (rhi - unit),
                 (a * lift + alpha) % out, l * lift)
                for rlo, rhi, a, l in s.nums], out

    apply_set = _apply_set

    preimages = _preimages

    def preimages_scaled(self, point, unit) -> tuple:
        """preimages() for numerators over an integer ``unit`` (a multiple
        of lattice_base): (numerator tuples, out unit), out = unit *
        numerator of lam."""
        r, theta = point
        p, q, a, b = self._lattice
        w_num, w_den = self.space.w_ratio
        out = unit * p
        r_prev = out + q * (r - unit)
        if abs(r_prev - out) > w_num * (out // w_den):
            return [], out
        return [(r_prev, (theta * p - a * (out // b)) % out)], out


def orbit(system, x0, n: int) -> list:
    """[x0, f(x0), ..., f^n(x0)] as canonical points."""
    if n < 0:
        raise DomainError("orbit length must be nonnegative")
    pts = [system.space.canonical(x0)]
    for _ in range(n):
        pts.append(system.apply(pts[-1]))
    return pts


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
    space = circle() if space_kind == "circle" else interval()
    return PiecewiseLinearMap(space, tuple(b for b, _ in pairs),
                              tuple(s for _, s in pairs), frac(offset))


def annulus_spiral(lam, alpha, w) -> AnnulusSpiral:
    return AnnulusSpiral(annulus(w), frac(lam), frac(alpha) % 1)


def parse_system(text: str):
    """Parse a system spec string.

    Grammar: ``doubling``, ``tent:s=<rational>``, ``rotation:alpha=<rational>``,
    ``annulus:lambda=<rational>,alpha=<rational>,w=<float>``, and
    ``pwl:<breakpoint:slope,...>[,v0=<rational>][,space=circle|interval]``.
    """
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
        pairs = []
        offset = 0
        space_kind = "circle"
        for part in body.split(","):
            if part.startswith("v0="):
                offset = frac(part[3:])
            elif part.startswith("space="):
                space_kind = part[len("space="):].strip()
            else:
                b, _, sl = part.partition(":")
                pairs.append((frac(b), frac(sl)))
        return pwl(pairs, offset, space_kind)
    raise UsageError(f"unknown system spec {text!r}")


def _params(body: str, keys: set) -> dict:
    out = {}
    for part in body.split(","):
        key, _, value = part.partition("=")
        if key.strip() not in keys:
            raise UsageError(f"unexpected parameter {key!r}")
        out[key.strip()] = frac(value)
    if set(out) != keys:
        raise UsageError(f"expected parameters {sorted(keys)}")
    return out
