"""Map evaluation, set images and preimages for the model systems."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from shadowing import (UsageError, annulus_spiral, doubling,
                       parse_system, pwl, rotation, tent, trial_stream)
from shadowing import enclosure
from shadowing.shadowcheck import shadow_sets
from shadowing.spaces import ScaledPoints

from reference import (apply, contains, dist, intersect_arcs,
                       intersect_segs, lattice_apply, make, meet, orbit,
                       preimages, random_point, uniform)


def test_apply_examples():
    assert lattice_apply(doubling(), (F(3, 10),)) == (F(3, 5),)
    assert lattice_apply(rotation(F(1, 4)), (F(9, 10),)) == (F(3, 20),)
    spiral = annulus_spiral(F(1, 2), F(1, 4), F(1, 2))
    assert lattice_apply(spiral, (F(7, 5), F(0))) == (F(6, 5), F(1, 4))
    assert lattice_apply(tent(F(3, 2)), (F(1, 3),)) == (F(1, 2),)
    assert lattice_apply(tent(F(3, 2)), (F(2, 3),)) == (F(1, 2),)


def test_apply_reads_the_lattice_back_as_the_fraction_map():
    systems = [doubling(), rotation(F(610, 987)), tent(F(3, 2)),
               annulus_spiral(F(1, 2), F(610, 987), F(1, 2)),
               pwl([(F(0), F(3)), (F(1, 2), F(-1))]),
               pwl([(0, F(3, 2)), (F(1, 3), F(-3, 4)), (F(2, 3), F(3, 2))],
                   space_kind="interval")]
    rng = trial_stream(305)
    for system in systems:
        points = [random_point(system.space, rng) for _ in range(200)]
        if system.space.kind != "annulus":
            points += [(b,) for b in system.breakpoints] + [(F(1),)]
        for x in points:
            assert lattice_apply(system, x) == apply(system, x), (
                system.kind, x)


def test_orbit_examples():
    rot = rotation(F(1, 4))
    assert orbit(rot, (F(0),), 4) == [(F(0),), (F(1, 4),), (F(1, 2),),
                                      (F(3, 4),), (F(0),)]
    dbl = doubling()
    assert orbit(dbl, (F(1, 3),), 2) == [(F(1, 3),), (F(2, 3),), (F(1, 3),)]
    pts = orbit(dbl, (F(17, 100),), 6)
    assert all(pts[k + 1] == lattice_apply(dbl, pts[k]) for k in range(6))


def test_lipschitz_constants_hold_statistically():
    systems = [doubling(), rotation(F(610, 987)), tent(F(3, 2)),
               annulus_spiral(F(1, 2), F(610, 987), F(1, 2))]
    rng = trial_stream(301)
    for system in systems:
        space = system.space
        for _ in range(10_000 // 4):
            a, b = random_point(space, rng), random_point(space, rng)
            assert dist(space, lattice_apply(system, a),
                        lattice_apply(system, b)) \
                <= system.lipschitz * dist(space, a, b)


# -- set images ----------------------------------------------------------------

def test_doubling_arc_images():
    dbl = doubling()
    sp = dbl.space
    img = dbl.apply_set(make(sp, [(F(1, 10), F(1, 10))]))
    assert img.fragments == ((F(1, 5), F(1, 5)),)
    saturated = dbl.apply_set(make(sp, [(F(2, 5), F(11, 20))]))
    assert saturated.fragments == ((0, 1),)


def test_doubling_doubles_length_until_saturation():
    dbl = doubling()
    sp = dbl.space
    es = make(sp, [(F(1, 3), F(1, 50))])
    for _ in range(6):
        nxt = dbl.apply_set(es)
        assert nxt.measure() == min(2 * es.measure(), 1)
        es = nxt
    assert es.fragments == ((0, 1),)


def test_rotation_images_are_isometric():
    rot = rotation(F(610, 987))
    sp = rot.space
    rng = trial_stream(302)
    for _ in range(100):
        s = uniform(rng)
        l = uniform(rng) % 1
        es = make(sp, [(s, l)])
        img = rot.apply_set(es)
        assert img.measure() == es.measure()
        assert img.fragments[0][0] == (s + F(610, 987)) % 1


def test_spiral_box_image_is_exact():
    """The spiral's image of the ball around (7/5, 0), as ``shadow_sets``
    maps each factor's, lies inside the ball of the same radius around
    (6/5, 1/4), the image of its center, so A_1 is the image box itself:
    the radial segment's image times the arc's."""
    spiral = annulus_spiral(F(1, 2), F(1, 4), F(1, 2))
    points = ScaledPoints.from_points([(F(7, 5), F(0)), (F(6, 5), F(1, 4))])
    radial, angular = (
        shadow_sets(f, zip(points.coordinate(i).nums, points.scales),
                    F(1, 20)) for i, f in enumerate(spiral.factors))
    assert radial[1].fragments == ((1 + F(1, 2) * (F(27, 20) - 1),
                                    1 + F(1, 2) * (F(29, 20) - 1)),)
    assert angular[1].fragments == (((F(19, 20) + F(1, 4)) % 1, F(1, 10)),)


@pytest.mark.parametrize("system", [
    doubling(), rotation(F(610, 987)), tent(F(3, 2)),
    pwl([(F(0), F(3)), (F(1, 2), F(-1))]),
], ids=["doubling", "rotation", "tent", "pwl"])
def test_set_image_equals_brute_force_image(system):
    """Grid oracle: image membership forward, preimage membership backward."""
    space = system.space
    rng = random.Random(303)
    for s, l in [(F(1, 10), F(1, 5)), (F(17, 20), F(3, 10)), (F(0), F(2, 5))]:
        if space.kind == "interval":
            if s + l > 1:
                continue
            es = make(space, [(s, s + l)])
        else:
            es = make(space, [(s, l)])
        img = system.apply_set(es)
        for k in range(1000):
            x = (s + l * F(k, 999)) % 1
            assert contains(img, lattice_apply(system, (x,)))
        # sampled image points all have a preimage inside the source set
        for _ in range(200):
            frag = img.fragments[rng.randrange(len(img.fragments))]
            u = F(rng.random())
            if space.kind == "interval":
                p = (frag[0] + (frag[1] - frag[0]) * u,)
            else:
                p = ((frag[0] + frag[1] * u) % 1,)
            assert any(contains(es, q) for q in preimages(system, p))


def walk(system, frag, ball, unit):
    """The map's step made for ``unit``, taking one fragment of Fraction
    coordinates on the lattice over ``unit``: its image pieces as
    Fractions, each met with the ball (``reference.meet``) as
    ``shadow_sets`` clips them."""
    step, w = system.image_step(unit, unit)
    nums = [c * unit for c in frag]
    assert all(c.denominator == 1 for c in nums)
    got = step(tuple(int(c) for c in nums))
    ball = tuple(int(c * w) for c in ball)
    return [tuple(F(c, w) for c in clipped) for piece in got
            for clipped in meet(system.space, piece, ball, w)]


PWL3 = pwl([(0, 2), (F(1, 3), -2), (F(2, 3), 3)], space_kind="interval")
TWO_TURNS = pwl([(0, F(5, 2)), (F(2, 5), F(5, 3))])


@pytest.mark.parametrize("system,frag,ball,unit,pieces,image", [
    # tent across 1/2: [1/4, 1/2] and [1/2, 5/8] go to overlapping pieces
    (tent(2), (F(1, 4), F(5, 8)), (0, 1), 8,
     [(F(1, 2), 1), (F(3, 4), 1)], [(F(1, 2), 1)]),
    (tent(2), (F(1, 4), F(5, 8)), (F(3, 5), F(9, 10)), 40,
     [(F(3, 5), F(9, 10)), (F(3, 4), F(9, 10))], [(F(1, 2), 1)]),
    # three pieces on the interval: [1/6, 1] crosses the corners 1/3, 2/3
    (PWL3, (F(1, 6), 1), (0, 1), 6,
     [(F(1, 3), F(2, 3)), (0, F(2, 3)), (0, 1)], [(0, 1)]),
    (PWL3, (F(1, 6), 1), (F(5, 6), 1), 6, [(F(5, 6), 1)], [(0, 1)]),
    # an arc from 9/10 past 0 to 1/10 on a two-turn circle map: one image
    # arc on each side of the corner at 0, joined across 0 in normal form
    (TWO_TURNS, (F(9, 10), F(1, 5)), (0, 1), 10,
     [(F(5, 6), F(1, 6)), (0, F(1, 4))], [(F(5, 6), F(5, 12))]),
    (TWO_TURNS, (F(9, 10), F(1, 5)), (F(9, 10), F(1, 5)), 10,
     [(F(9, 10), F(1, 10)), (0, F(1, 10))], [(F(5, 6), F(5, 12))]),
], ids=["tent-whole", "tent-ball", "pwl3-whole", "pwl3-ball",
        "two-turns-whole", "two-turns-ball"])
def test_the_corner_walk_gives_one_piece_per_linear_piece(
        system, frag, ball, unit, pieces, image):
    """One step gives one image piece per linear piece that the fragment
    crosses and those pieces alone, each met with the ball here;
    ``apply_set`` puts them in normal form, the hull of the pieces on the
    interval."""
    assert walk(system, frag, ball, unit) == pieces
    got = system.apply_set(make(system.space, [frag]))
    assert list(got.fragments) == image


# one-piece circle maps of both slope signs, each stepped over the unit 120
ONE_PIECE = {"doubling": doubling(), "rotation": rotation(F(7, 60)),
             "minus-two": pwl([(0, -2)]), "minus-one": pwl([(0, -1)], F(1, 3))}
ARC_UNIT = 120


def clipped_image(system, a, ball):
    """The meets, by ``reference.intersect_arcs``, of the ball's arc with
    the image of each arc of the set a lifted to the ball's unit, or on
    an interval the meet, by ``reference.intersect_segs``, of the image
    of a's segment with the ball's: an arc's image starts at the image of
    its start (slope > 0) or end (slope < 0); a segment's ends are the
    images of its own."""
    u, w = a.unit, ball.unit
    slope = system.slopes[0]
    pieces = []
    for frag in a.nums:
        if system.space.kind == "interval":
            ends = []
            for x in frag:
                (x,), out = system.apply_scaled((x,), u)
                ends.append(x * (w // out))
            pieces += intersect_segs(sorted(ends), ball.nums[0])
            continue
        start, length = frag
        x = start if slope > 0 else (start + length) % u
        (x,), out = system.apply_scaled((x,), u)
        length = int(abs(slope) * length * (w // u))
        pieces += intersect_arcs((x * (w // out), length), ball.nums[0], w)
    return pieces


def check_steps(system, points, e):
    """``shadow_sets`` on ``points`` ((numerators, scale) pairs, the first
    over ARC_UNIT) at eps = e / ARC_UNIT: every scale is the unit of its
    set, and every A_n past A_0 is the normal form of ``clipped_image`` of
    A_{n-1} met with the ball around y_n. Returns the sets' record."""
    space, u = system.space, ARC_UNIT
    sets = shadow_sets(system, iter(points), F(e, u))
    assert sets.units == [s for _, s in points][:len(sets.units)]
    for n in range(1, len(sets.units)):
        (y, s) = points[n]
        ball = enclosure._ball(space, y, e * (s // u), s)
        assert sets[n] == enclosure._make(
            space, clipped_image(system, sets[n - 1], ball), s)
    return sets


@pytest.mark.parametrize("name", sorted(ONE_PIECE))
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(y0=st.integers(0, ARC_UNIT - 1),
       e=st.one_of(st.sampled_from([1, 30, 59, 60]), st.integers(1, 60)),
       over=st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-1, 120)),
       y2=st.integers(0, 2 * ARC_UNIT - 1), k=st.sampled_from([1, 2]))
# for doubling: an image arc that is the whole circle (e = 30), balls
# that are the whole circle (e = 60); A_1 the two arcs (95, 15) and
# (10, 15), where the ball (95, 50) across 0 meets the image arc (10,
# 100); A_1 a zero-length arc at 80, where the ball (80, 20) touches the
# image arc (40, 40), whose image at 40 lies inside the ball (30, 20)
# and touches (40, 20) at its start
@example(y0=6, e=30, over=0, y2=10, k=1)
@example(y0=6, e=60, over=0, y2=10, k=2)
@example(y0=30, e=25, over=15, y2=200, k=2)
@example(y0=30, e=10, over=0, y2=40, k=1)
@example(y0=30, e=10, over=0, y2=50, k=1)
@example(y0=30, e=10, over=1, y2=50, k=1)
def test_the_one_piece_arc_clip_is_intersect_arcs(name, y0, e, over, y2, k):
    """``shadow_sets`` maps each fragment by a one-piece circle map's
    constants and clips the image arc to the ball inline: on y_0, y_1 over
    ARC_UNIT and y_2 over ARC_UNIT * k (k > 1 lifts the ball, so the image
    is scaled by k), A_1 and A_2 are the normal forms of
    ``reference.intersect_arcs`` on the image arcs. y_1's ball starts
    ``over`` before the end of A_0's image arc, so A_1 is an arc of any
    length from none and 0 (a touch) up, odd ones included, or two arcs,
    and A_2 is the image of such a set met with any ball."""
    system, u = ONE_PIECE[name], ARC_UNIT
    a0 = enclosure._ball(system.space, (y0,), e, u)
    whole = enclosure.EnclosureSet(system.space, ((0, u),), u)
    image = clipped_image(system, a0, whole)[0]
    y1 = (image[0] + image[1] - over + e) % u
    sets = check_steps(system, [((y0,), u), ((y1,), u), ((y2 % (u * k),),
                                                            u * k)], e)
    assert sets[0] == a0


# the spiral (r, theta) -> (1 + (r - 1) / 2, theta + 7/60) on y_0 over the
# unit 120, whose radial range is [60, 180]; its radial images' units are
# 240 and 480, y_1 is over 240 and y_2 over 480 * k
BOX_SPIRAL = annulus_spiral(F(1, 2), F(7, 60), F(1, 2))
OVERLAP = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-1, 240))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(r0=st.integers(60, 180), t0=st.integers(0, ARC_UNIT - 1),
       e=st.one_of(st.sampled_from([1, 30, 59, 60]), st.integers(1, 60)),
       rover=OVERLAP, tover=OVERLAP, r2=st.integers(240, 720),
       t2=st.integers(0, 4 * ARC_UNIT - 1), k=st.sampled_from([1, 2]))
# an image arc and balls that are the whole circle; A_1 a box of zero
# radial height and a zero-length arc (a touch in both), then mapped into
# a ball that holds it and one that it touches at one radius; an image
# missing y_1's ball radially and along the arc; A_1 an arc of length 1
# with the radial range of the image
@example(r0=120, t0=0, e=60, rover=0, tover=0, r2=480, t2=0, k=1)
@example(r0=120, t0=20, e=10, rover=0, tover=0, r2=490, t2=232, k=1)
@example(r0=120, t0=20, e=10, rover=0, tover=0, r2=450, t2=232, k=2)
@example(r0=120, t0=20, e=10, rover=-1, tover=5, r2=480, t2=0, k=1)
@example(r0=120, t0=20, e=10, rover=5, tover=-1, r2=480, t2=0, k=1)
@example(r0=120, t0=20, e=10, rover=20, tover=1, r2=480, t2=230, k=2)
def test_the_spiral_clip_is_a_segment_meet_times_arc_meets(
        r0, t0, e, rover, tover, r2, t2, k):
    """``shadow_sets`` maps the radial segment by the radial factor's
    constants and each arc by the rotation's, and clips them to the
    ball's inline: A_1 and A_2 are the normal forms of
    ``reference.intersect_segs`` on the image's radial segment times
    those of ``reference.intersect_arcs`` on its arcs. y_1's ball reaches
    ``rover`` below the top of A_0's image radially and starts ``tover``
    before the end of its arc, so A_1 is a box of any radial height and
    any arc length from none and 0 up, drawn apart, and A_2 is the image
    of such a box met with any ball."""
    (radial, angular), u = BOX_SPIRAL.factors, ARC_UNIT
    a0 = [enclosure._ball(f.space, (c,), e, u)
          for f, c in ((radial, r0), (angular, t0))]
    ((_, hi),) = clipped_image(radial, a0[0], enclosure.EnclosureSet(
        radial.space, ((0, 4 * u),), 2 * u))
    ((start, length),) = clipped_image(angular, a0[1], enclosure.EnclosureSet(
        angular.space, ((0, 2 * u),), 2 * u))
    r1 = min(max(hi - rover + 2 * e, u), 3 * u)
    t1 = (start + length - tover + 2 * e) % (2 * u)
    for f, a, y0, y1, y2 in ((radial, a0[0], r0, r1, r2),
                             (angular, a0[1], t0, t1, t2)):
        sets = check_steps(f, [((y0,), u), ((y1,), 2 * u),
                               ((y2 * k,), 4 * u * k)], e)
        assert sets[0] == a


def test_full_coverage_of_saturating_image():
    dbl = doubling()
    es = make(dbl.space, [(F(2, 5), F(11, 20))])
    img = dbl.apply_set(es)
    hits = set()
    for k in range(10_000):
        x = (F(2, 5) + F(11, 20) * F(k, 9999)) % 1
        hits.add(int(lattice_apply(dbl, (x,))[0] * 100))
    assert hits == set(range(100))
    assert img.measure() == 1


# -- preimages -------------------------------------------------------------------

def test_preimages_invert_apply():
    systems = [doubling(), rotation(F(610, 987)), tent(F(3, 2)),
               *annulus_spiral(F(1, 2), F(610, 987), F(1, 2)).factors,
               pwl([(F(0), F(3)), (F(1, 2), F(-1))])]
    rng = trial_stream(304)
    for system in systems:
        space = system.space
        for _ in range(100):
            x = random_point(space, rng)
            y = lattice_apply(system, x)
            pres = preimages(system, y)
            assert any(p == x for p in pres)
            assert all(lattice_apply(system, p) == y for p in pres)


def test_doubling_has_two_preimages():
    dbl = doubling()
    pres = preimages(dbl, (F(1, 5),))
    assert pres == [(F(1, 10),), (F(3, 5),)]


def test_preimages_come_sorted_and_once():
    # a preimage at a breakpoint is found by both pieces, and on the circle
    # the preimage 1 is the preimage 0; a decreasing piece runs backwards
    two_turns = pwl([(0, F(5, 2)), (F(2, 5), F(5, 3))])
    assert preimages(two_turns, (F(0),)) == [(F(0),), (F(2, 5),)]
    assert preimages(two_turns, (F(1, 2),)) == [(F(1, 5),), (F(7, 10),)]
    backwards = pwl([(0, 1), (F(1, 2), -3)])
    assert preimages(backwards, (F(1, 4),)) == [(F(1, 4),), (F(7, 12),),
                                                (F(11, 12),)]
    assert preimages(tent(F(3, 2)), (F(3, 4),)) == [(F(1, 2),)]
    assert preimages(tent(F(3, 2)), (F(0),)) == [(F(0),), (F(1),)]


def test_spiral_preimage_leaves_band():
    radial, angular = annulus_spiral(F(1, 2), F(1, 4), F(1, 2)).factors
    assert preimages(radial, (F(29, 20),)) == []
    assert preimages(radial, (F(6, 5),)) == [(F(7, 5),)]
    assert preimages(angular, (F(1, 4),)) == [(F(0),)]


# -- parsing ----------------------------------------------------------------------

def test_parse_system_grammar():
    assert parse_system("doubling").kind == "doubling"
    rot = parse_system("rotation:alpha=610/987")
    assert rot.alpha == F(610, 987)
    t = parse_system("tent:s=1.5")
    assert t.slopes == (F(3, 2), F(-3, 2))
    spiral = parse_system("annulus:lambda=1/2,alpha=610/987,w=0.5")
    radial, angular = spiral.factors
    assert spiral.space.w == F(1, 2) and radial.slopes == (F(1, 2),)
    assert radial.space.ends == (F(1, 2), F(3, 2))
    assert angular == rotation(F(610, 987))
    p = parse_system("pwl:0:2,0.5:-2,space=interval")
    assert p.space.kind == "interval"
    assert lattice_apply(p, (F(1, 4),)) == (F(1, 2),)
    with pytest.raises(UsageError):
        parse_system("squaring")
    with pytest.raises(UsageError):
        parse_system("rotation:beta=1/4")


def test_a_pwl_space_is_circle_or_interval():
    """Any other ``space=`` is refused by name, from a spec and from
    ``pwl`` itself, rather than read as the interval."""
    for call in (lambda: parse_system("pwl:0:1/2,space=banana"),
                 lambda: pwl([(0, F(1, 2))], space_kind="banana")):
        with pytest.raises(UsageError, match="unknown pwl space 'banana'"):
            call()
    assert pwl([(0, F(1, 2))], space_kind="interval").space.kind == \
        "interval"


@pytest.mark.parametrize("spec,key", [
    ("rotation:alpha=1/3,alpha=1/5", "alpha"),
    ("tent:s=3/2,s=3/2", "s"),
    ("annulus:lambda=1/2,alpha=1/3,w=1/2,lambda=1/4", "lambda"),
    ("pwl:0:2,v0=1/3,v0=1/5", "v0"),
    ("pwl:0:1/2,space=interval,space=circle", "space"),
])
def test_a_parameter_given_twice_is_refused(spec, key):
    """The last value does not win without a word: a repeated parameter
    is a ``UsageError`` that names it, even with the same value."""
    with pytest.raises(UsageError, match=f"parameter '{key}' given twice"):
        parse_system(spec)


def test_maps_are_memoized_by_spec_and_errors_are_not():
    """One map per spec string in a process; a spec that is not a string
    is refused before the cache is asked, so an unhashable one is a
    ``UsageError`` too, not a ``TypeError``; a refused spec is refused
    again at every call."""
    spec = "annulus:lambda=1/2,alpha=610/987,w=0.5"
    assert parse_system(spec) is parse_system(spec)
    assert parse_system("doubling") is parse_system("doubling")
    for bad in (["doubling"], {"doubling": 1}, 5, None):
        with pytest.raises(UsageError, match="a system spec is a string"):
            parse_system(bad)
    for _ in range(2):
        with pytest.raises(UsageError, match="unknown system spec"):
            parse_system("squaring")
