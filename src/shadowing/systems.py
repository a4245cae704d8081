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
(preimages), so integer-slope maps keep the scale. No method builds a
table for the unit: a piecewise-linear map reads its parameters over the
lattice base and scales them by k = unit / lattice_base as it goes.
``image_step`` holds each map's set arithmetic: for the units of a set
and of a ball it gives one step, which walks the linear pieces of a
fragment on those parameters and clips each image arc, segment or box to
the ball as it is made; a one-piece circle map (doubling, a rotation)
clips its one image arc inline, and the spiral its one image box, meeting
the radial segments by comparison: both clip the arc with ``_clip_arc``.
``_step_image`` is the shadow-set step, ``intersect(apply_set(A), B)``
for a ball B given as one fragment, on bare integers: it takes every
fragment of A through one such step, and only pieces that can overlap
are put in normal form.
``shadowcheck.shadow_sets`` keeps the step while the units stay, and
sends a set of one fragment through it directly, taking the hull of an
interval fragment's touching pieces, so ``_step_image`` serves sets of
several fragments.
``apply_set`` is the same walk with the whole space as the ball. The
public ``apply`` puts a point on the lattice and reads ``apply_scaled``
back as ``Fraction`` values.
Each map converts its ``Fraction`` parameters to integers once, when it is
built, so evaluating at a new scale reads no ``Fraction``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import enclosure
from .enclosure import EnclosureSet, _intersect_arcs, _intersect_segs
from .errors import DomainError, UsageError
from .rationals import frac
from .spaces import Space, annulus, circle, interval, scaled_point


def _apply(system, point):
    """The map at a point of rationals: ``apply_scaled`` over the lcm of
    the point's denominators and the lattice base, read back as
    Fractions."""
    image, out = system.apply_scaled(
        *scaled_point(point, system.lattice_base))
    return tuple(Fraction(c, out) for c in image)


def _apply_set(system, s: EnclosureSet) -> EnclosureSet:
    """The image of s, normalized: its pieces clipped to the whole space,
    which clips nothing. A set whose unit is not a multiple of the lattice
    base is lifted to the lcm of the two first."""
    space = system.space
    if s.space is not space and s.space != space:
        raise UsageError("enclosure set belongs to a different space")
    nums, u = s.nums, s.unit
    if u % system.lattice_base:
        u = math.lcm(u, system.lattice_base)
        nums = enclosure._lift(nums, u // s.unit)
    step, out = system.image_step(u, u)
    whole = enclosure._ball(space, (out, 0) if space.kind == "annulus"
                            else (0,), out, out)
    pieces = [p for f in nums for p in step(f, whole)[0]]
    return enclosure._make(space, pieces, out)


def _step_image(system, step, w, nums, u, ball, unit) -> tuple:
    """The shadow-set step on bare integers: (fragments, W) of
    intersect(apply_set(A), B) for the set A of the normal-form fragments
    ``nums`` over ``u`` (a multiple of the lattice base, as a shadow set's
    unit is) and the ball B given as its one fragment ``ball`` over
    ``unit``, with (step, W) the map's ``image_step(u, unit)``: the same
    set over the same unit, the lcm of the image's unit and ``unit``, and
    the same cap error.

    The ball is lifted to W once and every fragment goes through the
    step. One clipped piece is a normal form as it stands and is the next
    set; only more pieces are put in normal form (``enclosure._make``).
    Only an image with more raw pieces than the fragment cap can have a
    normal form above it, so only such an image is normalized alone,
    failing as ``apply_set`` would. Both read the cap at call time.
    ``shadowcheck.shadow_sets`` calls it for a set of several fragments
    and takes a set of one fragment through the step itself, with the same
    cap check."""
    if unit != w:
        ball = tuple(c * (w // unit) for c in ball)
    pieces, raw = [], 0
    for f in nums:
        got, n = step(f, ball)
        pieces += got
        raw += n
    if raw > enclosure.DEFAULT_FRAGMENT_CAP:
        system.apply_set(EnclosureSet(system.space, nums, u))
    if len(pieces) > 1:
        return enclosure._make(system.space, pieces, w).nums, w
    return tuple(pieces), w


def _clip_arc(fx, fl, bs, bl, w, head) -> tuple:
    """The pieces of ``enclosure._intersect_arcs`` of an image arc and a
    ball arc, over W = ``w``, each as the tuple ``head`` followed by the
    piece's start and length: the image arc runs from fx over the signed
    length fl (from fx + fl where fl < 0), fx any integer; the ball (bs,
    bl) is a normal-form fragment, so it starts in [0, W), where the meet
    t past the image's start begins. The one-piece circle step and the
    spiral's step clip with it, the spiral with its clipped radial segment
    as ``head``."""
    if fl < 0:
        fx, fl = fx + fl, -fl
    if fl >= w:
        return (head + (bs, bl),)
    fx %= w
    if bl >= w:
        return (head + (fx, fl),)
    t = (bs - fx) % w
    pieces = ((head + (bs, bl if t + bl <= fl else fl - t),) if t <= fl
              else ())
    hi = t - w + bl
    if hi < 0:
        return pieces
    return pieces + (head + (fx, hi if hi <= fl else fl),)


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
        # (over the unit) to consts[i] * k + slopes[i] * x over q times it,
        # where i counts the breakpoints past 0 that x // k reaches (none
        # for a one-piece map). The base and whether the map is on the
        # circle ride along, so a step reads them with the rest.
        bps_base = tuple(int(b * base) for b in bps)
        vals_base = tuple(int(v * base) for v in values)
        slopes_q = tuple(int(sl * q) for sl in slopes)
        object.__setattr__(self, "_lattice", (
            bps_base[1:], q, slopes_q,
            tuple(v * q - sl * b
                  for b, v, sl in zip(bps_base, vals_base, slopes_q)),
            base, self.space.kind == "circle"))
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

    apply = _apply

    def apply_scaled(self, point, unit):
        """apply() for numerators over an integer ``unit`` (a multiple of
        lattice_base): (numerators, out unit). With k = unit / lattice_base
        the piece of x is that of floor(x / k) on the base's breakpoints,
        so no table is built for the unit."""
        inner, q, slopes, consts, base, circle = self._lattice
        k = unit // base
        x = point[0]
        i = bisect_right(inner, x // k) if inner else 0
        v, out = consts[i] * k + slopes[i] * x, unit * q
        if circle:
            return (v % out,), out
        return (v,), out

    def image_step(self, u, unit) -> tuple:
        """(step, W): step(fragment, ball) is (pieces, raw), the image of
        one fragment over ``u``, each image piece clipped to the ball
        fragment ``ball`` (numerators over W = lcm(u * q, unit)) as it is
        made, and the number of image pieces before clipping.

        A fragment is walked from the piece of its start through the
        corners it crosses (``_cuts``); an arc on the lift of the map to
        twice the unit. With k = u / lattice_base and m = W / (u * q), the
        corner (b, j, v) lies at b * k and goes to v * W / lattice_base;
        the start x of piece i goes to consts[i] * k * m + slopes[i] * m *
        x, and a point past a corner moves from its image by the slope
        times m, so no table is built for the unit; the products by k * m
        are taken once, when the step is made. A segment takes the same
        walk without the wrap: each linear piece crossed gives one image
        arc or segment, so raw counts the pieces, and the touching image
        segments of a segment normalize to the hull of its image. A
        one-piece circle map has no corner: its step maps the arc's start
        and length and clips the one image arc to the ball with
        ``_clip_arc``, which gives the pieces of
        ``enclosure._intersect_arcs``."""
        inner, q, slopes, consts, base, circle = self._lattice
        cuts = self._cuts
        out = u * q
        w = out if unit == out else math.lcm(out, unit)
        km = k = u // base
        if w != out:
            m = w // out
            km, slopes = k * m, tuple(sl * m for sl in slopes)
        vk, consts = km * q, tuple(c * km for c in consts)

        if circle and not cuts:  # one linear piece (doubling, a rotation)
            c0, s0 = consts[0], slopes[0]

            def step(frag, ball):
                start, length = frag
                bs, bl = ball
                return _clip_arc(c0 + s0 * start, s0 * length, bs, bl, w,
                                 ()), 1
            return step, w

        def clip(a, b, ball):  # the image piece from a to b, clipped to ball
            lo, hi = (a, b) if a <= b else (b, a)
            if circle:
                return _intersect_arcs((lo % w, hi - lo), ball, w)
            return _intersect_segs((lo, hi), ball)

        def step(frag, ball):
            start = frag[0]
            end = start + frag[1] if circle else frag[1]
            i = bisect_right(inner, start // k) if inner else 0
            x, sl = start, slopes[i]
            fx = consts[i] + sl * start
            pieces, raw = [], 1
            for c, j, v in cuts[i:]:
                if c * k >= end:
                    break
                fv = v * vk
                pieces += clip(fx, fv, ball)
                x, sl, fx, raw = c * k, slopes[j], fv, raw + 1
            return pieces + clip(fx, fx + sl * (end - x), ball), raw
        return step, w

    apply_set = _apply_set

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

    apply = _apply

    def apply_scaled(self, point, unit):
        """apply() for numerators over ``unit``: (numerators, out unit)."""
        p, q, a, b = self._lattice
        out = unit * q
        r, theta = point
        return (out + p * (r - unit), (theta * q + a * (out // b)) % out), out

    def image_step(self, u, unit) -> tuple:
        """(step, W): step(box, ball) is (the image of the box over ``u``
        clipped to the ball fragment ``ball``, 1), both over W = lcm(u *
        q, unit): one image box per box, which the ball cuts into at most
        two. The radial segment is met by comparison and the arc by the
        one-piece circle step's clip (``_clip_arc``), giving the pieces of
        ``enclosure._intersect_boxes``."""
        p, q, a, b = self._lattice
        out = u * q
        w = out if unit == out else math.lcm(out, unit)
        m = w // out
        lam, lift, alpha = p * m, q * m, a * (w // b)
        shift = (q - p) * m * u  # the image of radius r is shift + lam * r

        def step(box, ball):
            rlo, rhi, start, length = box
            blo, bhi, bs, bl = ball
            lo, hi = shift + lam * rlo, shift + lam * rhi
            if lo < blo:
                lo = blo
            if hi > bhi:
                hi = bhi
            if lo > hi:
                return (), 1
            return _clip_arc(alpha + lift * start, lift * length, bs, bl, w,
                             (lo, hi)), 1
        return step, w

    apply_set = _apply_set

    def preimages_scaled(self, point, unit) -> tuple:
        """All solutions of apply(x) == point for numerators over an
        integer ``unit`` (a multiple of lattice_base): (numerator tuples,
        out unit), out = unit * numerator of lam."""
        r, theta = point
        p, q, a, b = self._lattice
        w_num, w_den = self.space.w_ratio
        out = unit * p
        r_prev = out + q * (r - unit)
        if abs(r_prev - out) > w_num * (out // w_den):
            return [], out
        return [(r_prev, (theta * p - a * (out // b)) % out)], out


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
    A spec that is not a string is a ``UsageError``.
    """
    if not isinstance(text, str):
        raise UsageError(f"a system spec is a string, got {text!r}")
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
