"""Properties of the enclosure-set algebra, checked against brute force.

Sets are built with ``enclosure.make`` from random fragments whose
coordinates have small denominators, so touching, nested, wrapping and
single-point fragments come up often. Membership is compared with a direct
reading of the raw fragments: an arc ``(s, l)`` holds the points s + t mod
1 for 0 <= t <= l, a segment ``(lo, hi)`` the points lo..hi, a box the
product of a radial segment and an arc. Boxes are drawn freely, so they
overlap, wrap, cover the whole ring or have zero width or height; their
normal form is exact and depends only on the point set.
"""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from shadowing import EnclosureCapError, annulus, circle, intersect, interval
from shadowing import enclosure as enc
from shadowing import pwl
from test_lattice import PROPERTY, SYSTEMS

SPACES = {"circle": circle(), "interval": interval(), "annulus": annulus(F(1, 2))}

coord = st.fractions(0, 1, max_denominator=12)
angle = coord.map(lambda s: s % 1)
# lengths up to 5/4 include the whole circle; negative ones are empty
length = st.one_of(st.sampled_from([F(0), F(1)]),
                   st.fractions(F(-1, 4), F(5, 4), max_denominator=12))
radius = st.fractions(F(1, 2), F(3, 2), max_denominator=12)

raw_arcs = st.lists(st.tuples(angle, length), max_size=5)
# lo > hi gives an empty segment
raw_segments = st.lists(st.tuples(coord, coord), max_size=5)
raw_boxes = st.lists(
    st.tuples(st.one_of(st.tuples(radius, radius).map(sorted),
                        radius.map(lambda r: (r, r))),
              angle, length).map(lambda t: (*t[0], t[1], t[2])),
    max_size=5)

RAW = {"circle": raw_arcs, "interval": raw_segments, "annulus": raw_boxes}


def in_arc(s, l, x):
    if l < 0:
        return False
    return l >= 1 or s <= x <= s + l or s <= x + 1 <= s + l


def brute_contains(kind, raw, point):
    if kind == "circle":
        return any(in_arc(s, l, point[0]) for s, l in raw)
    if kind == "interval":
        return any(lo <= point[0] <= hi for lo, hi in raw)
    return any(rlo <= point[0] <= rhi and in_arc(s, l, point[1])
               for rlo, rhi, s, l in raw)


def probe_points(kind, data, *raws):
    """Random points plus every fragment end and midpoint of ``raws``."""
    frags = [f for raw in raws for f in raw]
    extra = st.fractions(0, 1, max_denominator=50)
    if kind == "interval":
        xs = {c for lo, hi in frags for c in (lo, hi, (lo + hi) / 2)}
        xs |= set(data.draw(st.lists(extra, max_size=10), label="extra"))
        return [(x,) for x in sorted(xs)]
    arcs = [f[-2:] for f in frags]
    thetas = {F(0)} | {c % 1 for s, l in arcs for c in (s, s + l, s + l / 2)}
    if kind == "circle":
        thetas |= {x % 1 for x in
                   data.draw(st.lists(extra, max_size=10), label="extra")}
        return [(t,) for t in sorted(thetas)]
    rs = {F(1, 2), F(3, 2)} | {c for f in frags
                               for c in (f[0], f[1], (f[0] + f[1]) / 2)}
    pts = [(r, t) for r in sorted(rs) for t in sorted(thetas)]
    pts += data.draw(st.lists(st.tuples(extra.map(lambda x: x + F(1, 2)),
                                        extra.map(lambda x: x % 1)),
                              max_size=10), label="extra")
    return pts


def draw_set(kind, data, label):
    raw = data.draw(RAW[kind], label=label)
    return raw, enc.make(SPACES[kind], raw)


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_normalizing_twice_equals_once(kind, data):
    _, once = draw_set(kind, data, "a")
    twice = enc.make(SPACES[kind], once.fragments)
    assert twice.fragments == once.fragments


def split(kind, frag, data):
    """Two fragments whose union is ``frag``, cut inside it or at one of
    its ends (for an arc crossing 0, often at 0 itself)."""
    u = data.draw(st.fractions(0, 1, max_denominator=24), label="cut")
    if kind == "interval":
        lo, hi = frag
        m = lo + u * (hi - lo)
        return [(lo, m), (m, hi)] if lo <= hi else [frag]
    if kind == "annulus" and data.draw(st.booleans(), label="radial"):
        rlo, rhi, s, l = frag
        m = rlo + u * (rhi - rlo)
        return [(rlo, m, s, l), (m, rhi, s, l)] if rlo <= rhi else [frag]
    *radial, s, l = frag
    if not 0 <= l < 1:
        return [frag]
    cuts = [u * l] + ([1 - s] if s + l > 1 else [])
    t = data.draw(st.sampled_from(cuts), label="which")
    return [(*radial, s, t), (*radial, (s + t) % 1, l - t)]


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_normal_form_ignores_how_fragments_are_cut(kind, data):
    raw, es = draw_set(kind, data, "a")
    pieces = [p for f in raw for p in split(kind, f, data)]
    cut = enc.make(SPACES[kind], pieces)
    assert cut.fragments == es.fragments


def arcs_overlap(a, b):
    """Whether two arcs share an arc of positive length."""
    (s1, l1), (s2, l2) = a, b
    return any(min(s1 + l1, s2 + l2 + k) > max(s1, s2 + k) for k in (-1, 0, 1))


def interiors_meet(kind, a, b):
    if kind == "circle":
        return arcs_overlap(a, b)
    radial = min(a[1], b[1]) > max(a[0], b[0])
    if kind == "interval":
        return radial
    return radial and arcs_overlap(a[2:], b[2:])


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_fragments_are_disjoint_in_their_interiors(kind, data):
    _, es = draw_set(kind, data, "a")
    frags = es.fragments
    for i, a in enumerate(frags):
        for b in frags[i + 1:]:
            assert not interiors_meet(kind, a, b), (a, b)


def test_zero_width_box_on_an_edge_joins_the_ring():
    sp = SPACES["annulus"]
    got = enc.make(sp, [(F(3, 4), 1, 0, F(1, 2)), (F(3, 4), 1, F(1, 2), F(1, 2)),
                        (1, 1, F(1, 2), F(1, 2))])
    assert got.fragments == ((F(3, 4), 1, 0, 1),)


def test_l_shaped_union_has_one_normal_form():
    sp, h = SPACES["annulus"], F(1, 2)
    cells = enc.make(sp, [(h, 1, 0, h), (1, F(3, 2), 0, h),
                          (1, F(3, 2), h, h)])
    recut = enc.make(sp, [(h, 1, 0, h), (1, F(3, 2), 0, F(1, 4)),
                          (1, F(3, 2), F(1, 4), F(3, 4))])
    assert cells == recut
    assert cells.fragments == ((h, F(3, 2), 0, h), (1, F(3, 2), h, h))


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_contains_matches_brute_force(kind, data):
    raw, es = draw_set(kind, data, "a")
    for p in probe_points(kind, data, raw):
        assert es.contains(p) == brute_contains(kind, raw, p), p


def points_in(kind, frags, data):
    """Every end and midpoint of ``frags``, plus one random point of each."""
    pts = []
    for f in frags:
        ts = [F(0), F(1), F(1, 2),
              data.draw(st.fractions(0, 1, max_denominator=50), label="t")]
        if kind == "interval":
            pts += [(f[0] + t * (f[1] - f[0]),) for t in ts]
            continue
        *radial, s, l = f
        thetas = [(s + t * l) % 1 for t in ts]
        if kind == "circle":
            pts += [(x,) for x in thetas]
        else:
            pts += [(radial[0] + t * (radial[1] - radial[0]), x)
                    for t in ts for x in thetas]
    return pts


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_image_of_a_set_contains_the_images_of_its_points(name, data):
    system = SYSTEMS[name]
    kind = system.space.kind
    s = enc.make(system.space, data.draw(RAW[kind], label="s"))
    image = system.apply_set(s)
    for x in points_in(kind, s.fragments, data):
        assert s.contains(x), x
        assert image.contains(system.apply(x)), x


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_intersect_is_commutative_and_pointwise(kind, data):
    raw_a, a = draw_set(kind, data, "a")
    raw_b, b = draw_set(kind, data, "b")
    ab = intersect(a, b)
    assert ab.fragments == intersect(b, a).fragments
    for p in probe_points(kind, data, raw_a, raw_b):
        assert ab.contains(p) == (brute_contains(kind, raw_a, p)
                                  and brute_contains(kind, raw_b, p)), p


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_intersect_is_associative(kind, data):
    _, a = draw_set(kind, data, "a")
    _, b = draw_set(kind, data, "b")
    _, c = draw_set(kind, data, "c")
    left = intersect(intersect(a, b), c)
    right = intersect(a, intersect(b, c))
    assert left.fragments == right.fragments


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_intersection_measure_is_at_most_the_smaller(kind, data):
    _, a = draw_set(kind, data, "a")
    _, b = draw_set(kind, data, "b")
    assert intersect(a, b).measure() <= min(a.measure(), b.measure())


# every shipped map, plus a circle map with two pieces and a negative slope
STEP_SYSTEMS = {**SYSTEMS, "pwl-circle": pwl([(0, 3), (F(1, 2), -1)])}


def draw_ball(space, data):
    """A ball's center and radius (both Fractions); radii of 1/2 and more
    cover the whole circle."""
    x = data.draw(angle, label="center")
    r = data.draw(st.one_of(
        st.sampled_from([F(1, 2), F(3, 4)]),
        st.fractions(F(1, 24), F(3, 4), max_denominator=24)), label="radius")
    if space.kind == "annulus":
        return (data.draw(radius, label="center r"), x), r
    return (x,), r


def draw_arcs(system, data):
    """Raw arcs, plus sometimes an arc that crosses 0 and then the map's
    first breakpoint past 0 (0 itself for a one-piece map), or an arc
    whose image is longer than the circle."""
    arcs = data.draw(raw_arcs, label="a")
    cut = (list(system.breakpoints[1:]) + [F(1)])[0]
    before = data.draw(st.fractions(F(1, 24), F(1, 4), max_denominator=24),
                       label="before 0")
    extra = data.draw(st.fractions(0, F(1, 4), max_denominator=24),
                      label="past the cut")
    long = data.draw(st.fractions(1 / system.lipschitz, 1,
                                  max_denominator=24), label="long")
    which = data.draw(st.sampled_from(["raw", "crossing", "long"]),
                      label="which")
    if which == "crossing":
        arcs.append((1 - before, min(before + cut % 1 + extra, F(1))))
    elif which == "long":
        arcs.append((before, long))
    return arcs


def touching_ball(system, a, data):
    """Sometimes a ball whose arc starts where an image arc of A ends, or
    ends where one starts, so the two meet in a single angle."""
    image = system.apply_set(a).fragments
    if (system.space.kind == "interval" or not image
            or not data.draw(st.booleans(), label="touching ball")):
        return None
    *radial, s, l = data.draw(st.sampled_from(image), label="image arc")
    r = data.draw(st.fractions(F(1, 24), F(1, 4), max_denominator=24),
                  label="touching radius")
    x = (s + l + r if data.draw(st.booleans(), label="after") else s - r) % 1
    return ((radial[0], x) if radial else (x,)), r


def draw_step(name, data):
    """The map, a normal-form set A and the fragment of a ball B with its
    unit. A's unit is a multiple of the map's lattice base, B's need not
    be, and the two are lifted by small primes so that the image's unit
    and B's often do not nest."""
    system = STEP_SYSTEMS[name]
    space = system.space
    raw = (draw_arcs(system, data) if space.kind == "circle"
           else data.draw(RAW[space.kind], label="a"))
    a = enc.make(space, raw)
    center, r = touching_ball(system, a, data) or draw_ball(space, data)
    lifts = st.sampled_from([1, 2, 3, 5, 7])
    unit = math.lcm(system.lattice_base, a.unit) * data.draw(
        lifts, label="lift a")
    a = enc.EnclosureSet(space, enc._lift(a.nums, unit // a.unit), unit)
    b = enc.ball_set(space, center, r)
    lift = data.draw(lifts, label="lift ball")
    return system, a, tuple(c * lift for c in b.nums[0]), b.unit * lift


def outcome(step):
    """What a step gives: its set, or its cap error's message and set."""
    try:
        s = step()
    except EnclosureCapError as exc:
        return str(exc), exc.partial.nums, exc.partial.unit
    return s.nums, s.unit


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_one_step_equals_image_then_intersect(name, data):
    """The map's shadow-set step is intersect(apply_set(A), B): the same
    set over the same unit, and with the fragment cap patched to 0, 1 or
    2 the same cap error carrying the same exact set."""
    system, a, ball, ball_unit = draw_step(name, data)
    space = system.space

    def fused():
        return system.image_in_ball(a, ball, ball_unit)

    def composed():
        return intersect(system.apply_set(a),
                         enc.EnclosureSet(space, (ball,), ball_unit))

    assert outcome(fused) == outcome(composed)
    for cap in (0, 1, 2):
        with mock.patch.object(enc, "DEFAULT_FRAGMENT_CAP", cap):
            assert outcome(fused) == outcome(composed), cap
