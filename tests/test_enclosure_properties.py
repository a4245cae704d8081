"""Properties of the enclosure-set algebra, checked against brute force.

Sets are built with ``reference.make`` from random fragments whose
coordinates have small denominators, so touching, nested, wrapping and
single-point fragments come up often. Membership is compared with a direct
reading of the raw fragments: an arc ``(s, l)`` holds the points s + t mod
1 for 0 <= t <= l, a segment ``(lo, hi)`` the points lo..hi, and an
annulus set, drawn as one radial segment and raw arcs (every annulus set
is such a product), the points whose radius lies in the segment and whose
angle lies in an arc. The arcs are drawn freely, so they overlap, wrap,
cover the whole ring or have zero width; the segment may have zero height
or be empty. Each normal form is exact and depends only on the point set.
"""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shadowing import EnclosureCapError, annulus, circle, interval
from shadowing import enclosure as enc
from shadowing import pwl
from shadowing.shadowcheck import pull_back_witness, shadow_sets
from shadowing.spaces import ScaledPoints
from reference import (contains, image_pieces, image_radial, image_set,
                       intersect, lattice_apply, lift, make, meet,
                       pick_point, preimages)
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
# one radial segment and raw arcs; rlo > rhi gives an empty segment
raw_annulus = st.tuples(
    st.one_of(st.tuples(radius, radius).map(sorted),
              radius.map(lambda r: (r, r)), st.tuples(radius, radius)),
    raw_arcs)

RAW = {"circle": raw_arcs, "interval": raw_segments, "annulus": raw_annulus}


def make_raw(space, raw):
    """``make`` of drawn fragments: on the annulus, of the arcs times the
    radial segment."""
    if space.kind == "annulus":
        radial, arcs = raw
        return make(space, arcs, radial)
    return make(space, raw)


def in_arc(s, l, x):
    if l < 0:
        return False
    return l >= 1 or s <= x <= s + l or s <= x + 1 <= s + l


def brute_contains(kind, raw, point):
    if kind == "circle":
        return any(in_arc(s, l, point[0]) for s, l in raw)
    if kind == "interval":
        return any(lo <= point[0] <= hi for lo, hi in raw)
    (rlo, rhi), arcs = raw
    return rlo <= point[0] <= rhi and any(in_arc(s, l, point[1])
                                          for s, l in arcs)


def probe_points(kind, data, *raws):
    """Random points plus every fragment end and midpoint of ``raws``."""
    radials = [raw[0] for raw in raws] if kind == "annulus" else []
    frags = [f for raw in raws
             for f in (raw[1] if kind == "annulus" else raw)]
    extra = st.fractions(0, 1, max_denominator=50)
    if kind == "interval":
        xs = {c for lo, hi in frags for c in (lo, hi, (lo + hi) / 2)}
        xs |= set(data.draw(st.lists(extra, max_size=10), label="extra"))
        return [(x,) for x in sorted(xs)]
    thetas = {F(0)} | {c % 1 for s, l in frags for c in (s, s + l, s + l / 2)}
    if kind == "circle":
        thetas |= {x % 1 for x in
                   data.draw(st.lists(extra, max_size=10), label="extra")}
        return [(t,) for t in sorted(thetas)]
    rs = {F(1, 2), F(3, 2)} | {c for lo, hi in radials
                               for c in (lo, hi, (lo + hi) / 2)}
    pts = [(r, t) for r in sorted(rs) for t in sorted(thetas)]
    pts += data.draw(st.lists(st.tuples(extra.map(lambda x: x + F(1, 2)),
                                        extra.map(lambda x: x % 1)),
                              max_size=10), label="extra")
    return pts


def draw_set(kind, data, label):
    raw = data.draw(RAW[kind], label=label)
    return raw, make_raw(SPACES[kind], raw)


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_normalizing_twice_equals_once(kind, data):
    _, once = draw_set(kind, data, "a")
    frags = once.fragments
    if kind == "annulus" and frags:  # boxes: their one segment, their arcs
        twice = make(SPACES[kind], [f[2:] for f in frags], frags[0][:2])
    else:
        twice = make(SPACES[kind], frags)
    assert twice.fragments == once.fragments


def split(kind, frag, data):
    """Two fragments whose union is the segment or arc ``frag``, cut
    inside it or at one of its ends (for an arc crossing 0, often at 0
    itself)."""
    u = data.draw(st.fractions(0, 1, max_denominator=24), label="cut")
    if kind == "interval":
        lo, hi = frag
        m = lo + u * (hi - lo)
        return [(lo, m), (m, hi)] if lo <= hi else [frag]
    s, l = frag
    if not 0 <= l < 1:
        return [frag]
    cuts = [u * l] + ([1 - s] if s + l > 1 else [])
    t = data.draw(st.sampled_from(cuts), label="which")
    return [(s, t), ((s + t) % 1, l - t)]


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_normal_form_ignores_how_fragments_are_cut(kind, data):
    """Cutting the segments or arcs, the annulus's under its one radial
    segment, leaves the normal form as it was."""
    raw, es = draw_set(kind, data, "a")
    if kind == "annulus":
        radial, arcs = raw
        pieces = [p for f in arcs for p in split(kind, f, data)]
        cut = make(SPACES[kind], pieces, radial)
    else:
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
    """The reference image of a set, which the shadow-set tests hold
    ``shadow_sets`` to, and a circle or interval map's ``apply_set`` (the
    spiral has none) hold the lattice image of every point of the set."""
    system = SYSTEMS[name]
    kind = system.space.kind
    s = make_raw(system.space, data.draw(RAW[kind], label="s"))
    images = [image_set(system, s)]
    if kind != "annulus":
        images.append(system.apply_set(s))
    for x in points_in(kind, s.fragments, data):
        assert contains(s, x), x
        for image in images:
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


# the maps of test_lattice (every shipped map, and pwl-flip, whose one
# piece of negative slope reverses every arc), plus a circle map with two
# pieces and a negative slope
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
    image = image_set(system, a).fragments
    if (system.space.kind == "interval" or not image
            or not data.draw(st.booleans(), label="touching ball")):
        return None
    *radial, s, l = data.draw(st.sampled_from(image), label="image arc")
    r = data.draw(st.fractions(F(1, 24), F(1, 4), max_denominator=24),
                  label="touching radius")
    x = (s + l + r if data.draw(st.booleans(), label="after") else s - r) % 1
    return ((radial[0], x) if radial else (x,)), r


def draw_step(name, data):
    """The map, a normal-form set A and a ball B. A's unit is a multiple
    of the map's lattice base, B's need not be, and the two are lifted by
    small primes so that the image's unit and B's often do not nest."""
    system = STEP_SYSTEMS[name]
    space = system.space
    raw = (draw_arcs(system, data) if space.kind == "circle"
           else data.draw(RAW[space.kind], label="a"))
    a = make_raw(space, raw)
    center, r = touching_ball(system, a, data) or draw_ball(space, data)
    lifts = st.sampled_from([1, 2, 3, 5, 7])
    unit = math.lcm(system.lattice_base, a.unit) * data.draw(
        lifts, label="lift a")
    b = enc.ball_set(space, center, r)
    return system, lift(a, unit // a.unit), lift(
        b, data.draw(lifts, label="lift ball"))


def line_step(system, u, unit):
    """A one-piece map's step as ``shadow_sets`` takes it inline, in
    ``image_step``'s form (step, W), W = lcm(u * q, unit): each segment
    or arc over ``u`` mapped by the map's ``line`` constants for ``u``
    times W / (u * q) (the spiral's angle constants for its arcs); an
    arc's image starts at the image of its start, or of its end where the
    slope is negative."""
    line = system.line(u)
    q = line[0]
    w = math.lcm(u * q, unit)
    m = w // (u * q)
    kind = system.space.kind
    c, f = line[-2:]

    def step(frag):
        if kind == "interval":
            return [tuple(sorted(m * (c + f * x) for x in frag))]
        s, l = frag
        s, l = m * (c + f * s), m * f * l
        return [(s + l, -l) if l < 0 else (s, l)]
    return step, w


def radial_step(system, radial, u, unit):
    """The spiral's image of a radial segment over ``u`` as
    ``shadow_sets`` takes it inline, over W = lcm(u * q, unit): its ends
    mapped by the radial ``line`` constants for ``u`` times W / (u * q)."""
    q, c, f = system.line(u)[:3]
    m = math.lcm(u * q, unit) // (u * q)
    return tuple(m * (c + f * r) for r in radial)


def set_step(system, u, unit):
    """The step that ``shadow_sets`` takes for the units ``u`` and
    ``unit``: a one-piece map's ``line_step``, else its ``image_step``."""
    if system.line(u) is None:
        return system.image_step(u, unit)
    return line_step(system, u, unit)


def image_in_ball(system, a, ball):
    """The normal form of the pieces that the map's step for the units of
    the set a and the ball (``set_step``) gives for every segment or arc
    of a, each met with the ball's lifted to the step's unit W
    (``reference.meet``); on the annulus times the meet of a's radial
    segment's image (``radial_step``) with the ball's."""
    space = system.space
    step, w = set_step(system, a.unit, ball.unit)
    ball = lift(ball, w // ball.unit)
    radial = None
    if a.radial is not None:
        lo, hi = radial_step(system, a.radial, a.unit, ball.unit)
        radial = (max(lo, ball.radial[0]), min(hi, ball.radial[1]))
    pieces = [c for f in a.nums for p in step(f)
              for c in meet(space, p, ball.nums[0], w)]
    return enc._make(space, pieces, w, radial)


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_one_step_equals_image_then_intersect(name, data):
    """The pieces of the map's step, met with B and put in normal form,
    are intersect(image_set(A), B): the same set over the same unit, with
    the same radial segment on the annulus."""
    system, a, ball = draw_step(name, data)
    want = intersect(image_set(system, a), ball)
    got = image_in_ball(system, a, ball)
    assert (got.nums, got.unit, got.radial) == \
        (want.nums, want.unit, want.radial)


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
    """A_0 = B(eps, y_0) and A_n = intersect(image_set(A_{n-1}),
    B(eps, y_n)), to the first empty set, under the default cap."""
    sets = []
    for y in points:
        ball = enc.ball_set(system.space, y, eps)
        sets.append(intersect(image_set(system, sets[-1]), ball) if sets
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
    assert list(got) == want
    for cap in (1, 2):
        over = next((s for s in want if s.fragment_count() > cap), None)
        with mock.patch.object(enc, "DEFAULT_FRAGMENT_CAP", cap):
            if over is None:
                assert list(shadow_sets(
                    system, zip(points.nums, points.scales), eps)) == want
                continue
            with pytest.raises(EnclosureCapError) as err:
                shadow_sets(system, zip(points.nums, points.scales), eps)
        assert str(err.value) == \
            f"fragment cap {cap} exceeded for exact enclosure"
        assert err.value.partial == over


def draw_small_step(name, data):
    """``draw_step`` for a set A of one or two fragments: the first one or
    two of a drawn normal form, put in normal form again."""
    system, a, ball = draw_step(name, data)
    keep = data.draw(st.sampled_from([1, 2]), label="fragments kept")
    a = enc._make(a.space, list(a.nums[:keep]), a.unit, a.radial)
    return system, a, ball


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_the_one_fragment_step_is_the_image_of_the_fragment(name, data):
    """The map's step (its ``image_step``, or for a map of one piece its
    ``line`` constants as ``shadow_sets`` takes them), made for A's unit
    and a ball's, gives for each segment or arc of A its image
    (``reference.image_pieces``) as pieces over the step's unit W, an
    arc's length at least 0 and a segment's ends in order; on the
    annulus the radial segment of a nonempty A goes to its image
    (``image_radial``), in order. ``shadow_sets`` clips them to the ball
    (``test_shadow_sets_fail_the_cap_exactly_when_a_shadow_set_outgrows_it``
    checks its sets against the reference step)."""
    system, a, ball = draw_small_step(name, data)
    space = system.space
    # the annulus's arcs are compared in the circle's normal form
    arc_space = circle() if space.kind == "annulus" else space
    step, w = set_step(system, a.unit, ball.unit)
    assert w % ball.unit == 0
    for frag in a.nums:
        values = tuple(F(c, a.unit) for c in frag)
        got = step(frag)
        for p in got:
            if space.kind == "interval":
                assert p[0] <= p[1]
            else:
                assert p[-1] >= 0
        assert enc._make(arc_space, got, w) == \
            make(arc_space, image_pieces(system, values))
    if a.radial is not None and a.nums:
        lo, hi = radial_step(system, a.radial, a.unit, ball.unit)
        assert lo <= hi
        assert (F(lo, w), F(hi, w)) == image_radial(
            system, (F(c, a.unit) for c in a.radial))


@pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_a_pull_back_step_keeps_the_first_preimage_in_the_set(name, data):
    """``pull_back_witness`` over A_0 = A and A_1 = the step's set: the
    first preimage of A_1's representative, in increasing order, that
    ``reference.contains`` puts in A, as Fractions."""
    system, a, ball = draw_small_step(name, data)
    image = image_in_ball(system, a, ball)
    if image.is_empty():
        return
    x = pick_point(image)
    want = next(p for p in preimages(system, x) if contains(a, p))
    assert pull_back_witness(system, [a, image], 1) == want


def draw_lattice_set(space, unit, data, through):
    """A set in normal form of the point ``through`` (a numerator over
    ``unit``, or None) and one to three fragments whose ends are
    numerators over ``unit``, ends and lengths drawn often at 0 and at
    the unit, so fragments that touch 0 or 1, wrap, or are single points
    come up often."""
    end = st.one_of(st.sampled_from([0, unit]), st.integers(0, unit))
    frags = data.draw(st.lists(st.tuples(end, end), min_size=1,
                               max_size=3), label=f"fragments over {unit}")
    circle = space.kind == "circle"
    if circle:
        frags = [(s % unit, l) for s, l in frags]
    if through is not None:
        frags.append((through, 0 if circle else through))
    return enc._make(space, frags, unit)


@pytest.mark.parametrize("name", sorted(set(STEP_SYSTEMS) - {
    "spiral", "spiral-2/3"}))
@settings(PROPERTY, max_examples=200)  # an off-by-one cell shows rarely
@given(data=st.data())
def test_a_pull_back_through_small_sets_keeps_the_first_preimage(name,
                                                                 data):
    """The map's ``pull_back`` of a point over twice A_2's unit through
    A_1 and A_0, sets of small units drawn freely (so a step may find no
    preimage), or holding an orbit z, f(z), f(f(z)) whose end the point
    lies on or one cell off: at each step the first preimage, in
    increasing order, that ``reference.contains`` puts in the set, or
    None. The units are u, u * q and u * q^2, as a generated trajectory's
    nest, so the second step reads the point's cell carried from the
    first; on some draws A_2's unit is cut to u, so it divides again,
    and on some u is not a multiple of the lattice base (as a ball's
    over the denominators of its center and radius may not be)."""
    system = STEP_SYSTEMS[name]
    circle, base = system.space.kind == "circle", system.lattice_base
    q = system._lattice[1]
    u = data.draw(st.sampled_from([1, 2, 3, 5, 10]), label="unit factor")
    off_base = data.draw(st.booleans(), label="units off the lattice base")
    if not off_base:
        u *= base
    units = [u, u * q, u * q * q]
    orbit = [None] * 3
    if not off_base and data.draw(st.booleans(), label="an orbit"):
        orbit[0] = data.draw(st.integers(0, u - circle), label="z")
        for n in (1, 2):
            (orbit[n],), _ = system.apply_scaled((orbit[n - 1],),
                                                 units[n - 1])
    elif data.draw(st.booleans(), label="units that do not nest"):
        units[2] = u
    sets = [draw_lattice_set(system.space, unit, data, z)
            for unit, z in zip(units, orbit)]
    scale = 2 * math.lcm(units[2], base)
    if orbit[2] is None:
        x = data.draw(st.integers(0, scale - circle), label="point")
    else:
        x = 2 * orbit[2] + data.draw(st.sampled_from([0, -1, 1]),
                                     label="off the orbit")
        x = x % scale if circle else min(max(x, 0), scale)
    want = (F(x, scale),)
    for a in reversed(sets[:2]):
        want = next((p for p in preimages(system, want) if contains(a, p)),
                    None)
        if want is None:
            break
    got = system.pull_back((x,), scale, enc.SetRecord.of(sets), 2)
    assert (None if got is None else (F(got[0][0], got[1]),)) == want
