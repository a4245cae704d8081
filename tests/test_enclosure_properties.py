"""Properties of the enclosure-set algebra, checked against brute force.

Sets are built with ``reference.make`` from random fragments whose
coordinates have small denominators, so touching, nested, wrapping and
single-point fragments come up often. Membership is compared with a direct
reading of the raw fragments: an arc ``(s, l)`` holds the points s + t mod
1 for 0 <= t <= l, a segment ``(lo, hi)`` the points lo..hi, a box the
product of a radial segment and an arc. The boxes of an annulus set share
one radial segment (every annulus set is such a product), and their arcs
are drawn freely, so they overlap, wrap, cover the whole ring or have zero
width; the segment may have zero height or be empty. Each normal form is
exact and depends only on the point set.
"""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from shadowing import EnclosureCapError, annulus, circle, interval
from shadowing import enclosure as enc
from shadowing import pwl
from shadowing.shadowcheck import pull_back_witness, shadow_sets
from shadowing.spaces import ScaledPoints
from reference import (contains, image_pieces, intersect, lattice_apply,
                       make, pick_point, preimages)
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
# one radial segment times raw arcs; rlo > rhi gives an empty segment
raw_boxes = st.tuples(
    st.one_of(st.tuples(radius, radius).map(sorted),
              radius.map(lambda r: (r, r)), st.tuples(radius, radius)),
    raw_arcs).map(lambda t: [(*t[0], s, l) for s, l in t[1]])

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
    return raw, make(SPACES[kind], raw)


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_normalizing_twice_equals_once(kind, data):
    _, once = draw_set(kind, data, "a")
    twice = make(SPACES[kind], once.fragments)
    assert twice.fragments == once.fragments


def split(kind, frag, data):
    """Two fragments whose union is ``frag``, cut inside it or at one of
    its ends (for an arc crossing 0, often at 0 itself); a box is cut
    across its arc, so the boxes keep their one radial segment."""
    u = data.draw(st.fractions(0, 1, max_denominator=24), label="cut")
    if kind == "interval":
        lo, hi = frag
        m = lo + u * (hi - lo)
        return [(lo, m), (m, hi)] if lo <= hi else [frag]
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
    cut = make(SPACES[kind], pieces)
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


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_contains_matches_brute_force(kind, data):
    raw, es = draw_set(kind, data, "a")
    for p in probe_points(kind, data, raw):
        assert contains(es, p) == brute_contains(kind, raw, p), p


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
    s = make(system.space, data.draw(RAW[kind], label="s"))
    image = system.apply_set(s)
    for x in points_in(kind, s.fragments, data):
        assert contains(s, x), x
        assert contains(image, lattice_apply(system, x)), x


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_intersect_is_commutative_and_pointwise(kind, data):
    raw_a, a = draw_set(kind, data, "a")
    raw_b, b = draw_set(kind, data, "b")
    ab = intersect(a, b)
    assert ab.fragments == intersect(b, a).fragments
    for p in probe_points(kind, data, raw_a, raw_b):
        assert contains(ab, p) == (brute_contains(kind, raw_a, p)
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
# and one with a single piece of negative slope, which reverses every arc
STEP_SYSTEMS = {**SYSTEMS, "pwl-circle": pwl([(0, 3), (F(1, 2), -1)]),
                "pwl-flip": pwl([(0, -2)])}


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
    a = make(space, raw)
    center, r = touching_ball(system, a, data) or draw_ball(space, data)
    lifts = st.sampled_from([1, 2, 3, 5, 7])
    unit = math.lcm(system.lattice_base, a.unit) * data.draw(
        lifts, label="lift a")
    a = enc.EnclosureSet(space, enc._lift(a.nums, unit // a.unit), unit)
    b = enc.ball_set(space, center, r)
    lift = data.draw(lifts, label="lift ball")
    return system, a, tuple(c * lift for c in b.nums[0]), b.unit * lift


def image_in_ball(system, nums, u, ball, unit):
    """The normal form, as (fragments, W), of the pieces that the map's
    step for ``u`` and ``unit`` gives for every fragment of a set, with
    the ball fragment lifted to the step's unit W."""
    step, w = system.image_step(u, unit)
    lifted = tuple(c * (w // unit) for c in ball)
    pieces = [p for f in nums for p in step(f, lifted)]
    return enc._make(system.space, pieces, w).nums, w


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_one_step_equals_image_then_intersect(name, data):
    """The pieces of the map's step, put in normal form, are
    intersect(apply_set(A), B): the same set over the same unit."""
    system, a, ball, ball_unit = draw_step(name, data)
    want = intersect(system.apply_set(a),
                     enc.EnclosureSet(system.space, (ball,), ball_unit))
    assert image_in_ball(system, a.nums, a.unit, ball, ball_unit) == \
        (want.nums, want.unit)


def draw_points(system, data):
    """Two to four points of the map's space on small denominators and
    an eps, drawn freely: no step bound holds them together, so a ball
    may cut an image anywhere, into several fragments or none."""
    space = system.space
    n = data.draw(st.integers(2, 4), label="points")
    pts = [draw_ball(space, data)[0] for _ in range(n)]
    if space.kind == "annulus":
        w = space.w
        pts = [(min(max(r, 1 - w), 1 + w), x) for r, x in pts]
    eps = data.draw(st.fractions(F(1, 24), F(1, 2), max_denominator=24),
                    label="eps")
    return ScaledPoints.from_points(pts), eps


def reference_sets(system, points, eps):
    """A_0 = B(eps, y_0) and A_n = intersect(apply_set(A_{n-1}),
    B(eps, y_n)), to the first empty set, under the default cap."""
    sets = []
    for y in points:
        ball = enc.ball_set(system.space, y, eps)
        sets.append(intersect(system.apply_set(sets[-1]), ball) if sets
                    else ball)
        if sets[-1].is_empty():
            break
    return sets


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_shadow_sets_fail_the_cap_exactly_when_a_shadow_set_outgrows_it(
        name, data):
    """``shadow_sets`` on freely drawn points gives the sets of the
    reference step, and with the fragment cap patched to 1 or 2 it raises
    exactly when the normal form of a reference step has more fragments
    than the cap, the first such set being the error's ``partial``."""
    system = STEP_SYSTEMS[name]
    points, eps = draw_points(system, data)
    want = reference_sets(system, points, eps)
    got = shadow_sets(system, zip(points.nums, points.scales), eps)
    assert got == want
    for cap in (1, 2):
        over = next((s for s in want if s.fragment_count() > cap), None)
        with mock.patch.object(enc, "DEFAULT_FRAGMENT_CAP", cap):
            if over is None:
                assert shadow_sets(system, zip(points.nums, points.scales),
                                   eps) == want
                continue
            with pytest.raises(EnclosureCapError) as err:
                shadow_sets(system, zip(points.nums, points.scales), eps)
        assert str(err.value) == \
            f"fragment cap {cap} exceeded for exact enclosure"
        assert err.value.partial == over


def draw_small_step(name, data):
    """``draw_step`` for a set A of one or two fragments: the first one or
    two of a drawn normal form, put in normal form again."""
    system, a, ball, ball_unit = draw_step(name, data)
    keep = data.draw(st.sampled_from([1, 2]), label="fragments kept")
    a = enc._make(a.space, list(a.nums[:keep]), a.unit)
    return system, a, ball, ball_unit


def ball_over(space, unit, data):
    """The fragment of a ball around a random point of the lattice over
    ``unit``, with a radius over ``unit`` (on the annulus ``unit`` is a
    multiple of the denominator of w)."""
    x = data.draw(st.integers(0, unit - 1), label="center over unit")
    r = data.draw(st.integers(1, unit), label="radius over unit")
    if space.kind == "annulus":
        w_num, w_den = space.w_ratio
        w = w_num * (unit // w_den)
        x = (data.draw(st.integers(unit - w, unit + w), label="r"), x)
    else:
        x = (x,)
    return enc._ball(space, x, r, unit)


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_the_one_fragment_step_is_the_image_of_the_fragment(name, data):
    """One step of the map's ``image_step``, kept for every fragment of A
    and for a second ball over the same unit as ``shadow_sets`` keeps it,
    gives the image of each fragment (``reference.image_pieces``) clipped
    to the ball. The union over A is the set of ``image_in_ball`` over
    the same unit, and a fragment that the step leaves whole is that set
    as it stands."""
    system, a, ball, ball_unit = draw_small_step(name, data)
    space = system.space
    step, w = system.image_step(a.unit, ball_unit)
    for ball in (ball, ball_over(space, ball_unit, data)):
        lifted = tuple(c * (w // ball_unit) for c in ball)
        clip = enc.EnclosureSet(space, (lifted,), w)
        pieces = []
        for frag, values in zip(a.nums, a.fragments):
            got = step(frag, lifted)
            image = make(space, image_pieces(system, values))
            assert enc._make(space, got, w) == intersect(image, clip)
            pieces += got
        nums, unit = image_in_ball(system, a.nums, a.unit, ball, ball_unit)
        assert (enc._make(space, pieces, w).nums, w) == (nums, unit)
        if len(pieces) == 1:
            assert tuple(pieces) == nums


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_a_pull_back_step_keeps_the_first_preimage_in_the_set(name, data):
    """``pull_back_witness`` over A_0 = A and A_1 = the step's set: the
    first preimage of A_1's representative, in increasing order, that
    ``reference.contains`` puts in A, as Fractions."""
    system, a, ball, ball_unit = draw_small_step(name, data)
    space = system.space
    image = enc.EnclosureSet(space, *image_in_ball(
        system, a.nums, a.unit, ball, ball_unit))
    if image.is_empty():
        return
    x = pick_point(image)
    want = next(p for p in preimages(system, x) if contains(a, p))
    assert pull_back_witness(system, [a, image], 1) == want
