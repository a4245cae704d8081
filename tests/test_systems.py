"""Map evaluation, set images and preimages for the model systems."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from shadowing import (UsageError, annulus_spiral, ball_set, doubling,
                       parse_system, pwl, rotation, tent, trial_stream)
from shadowing import enclosure as enc

from reference import (apply, contains, dist, orbit, preimages,
                       random_point, uniform)


def test_apply_examples():
    assert doubling().apply((F(3, 10),)) == (F(3, 5),)
    assert rotation(F(1, 4)).apply((F(9, 10),)) == (F(3, 20),)
    spiral = annulus_spiral(F(1, 2), F(1, 4), F(1, 2))
    assert spiral.apply((F(7, 5), F(0))) == (F(6, 5), F(1, 4))
    assert tent(F(3, 2)).apply((F(1, 3),)) == (F(1, 2),)
    assert tent(F(3, 2)).apply((F(2, 3),)) == (F(1, 2),)


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
            assert system.apply(x) == apply(system, x), (system.kind, x)


def test_orbit_examples():
    rot = rotation(F(1, 4))
    assert orbit(rot, (F(0),), 4) == [(F(0),), (F(1, 4),), (F(1, 2),),
                                      (F(3, 4),), (F(0),)]
    dbl = doubling()
    assert orbit(dbl, (F(1, 3),), 2) == [(F(1, 3),), (F(2, 3),), (F(1, 3),)]
    pts = orbit(dbl, (F(17, 100),), 6)
    assert all(pts[k + 1] == dbl.apply(pts[k]) for k in range(6))


def test_lipschitz_constants_hold_statistically():
    systems = [doubling(), rotation(F(610, 987)), tent(F(3, 2)),
               annulus_spiral(F(1, 2), F(610, 987), F(1, 2))]
    rng = trial_stream(301)
    for system in systems:
        space = system.space
        for _ in range(10_000 // 4):
            a, b = random_point(space, rng), random_point(space, rng)
            assert dist(space, system.apply(a), system.apply(b)) \
                <= system.lipschitz * dist(space, a, b)


# -- set images ----------------------------------------------------------------

def test_doubling_arc_images():
    dbl = doubling()
    sp = dbl.space
    img = dbl.apply_set(enc.make(sp, [(F(1, 10), F(1, 10))]))
    assert img.fragments == ((F(1, 5), F(1, 5)),)
    saturated = dbl.apply_set(enc.make(sp, [(F(2, 5), F(11, 20))]))
    assert saturated.fragments == ((0, 1),)


def test_doubling_doubles_length_until_saturation():
    dbl = doubling()
    sp = dbl.space
    es = enc.make(sp, [(F(1, 3), F(1, 50))])
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
        es = enc.make(sp, [(s, l)])
        img = rot.apply_set(es)
        assert img.measure() == es.measure()
        assert img.fragments[0][0] == (s + F(610, 987)) % 1


def test_spiral_box_image_is_exact():
    spiral = annulus_spiral(F(1, 2), F(1, 4), F(1, 2))
    sp = spiral.space
    es = ball_set(sp, (F(7, 5), F(0)), F(1, 20))
    img = spiral.apply_set(es)
    rlo, rhi, s, l = img.fragments[0]
    assert (rlo, rhi) == (F(1 + F(1, 2) * (F(27, 20) - 1)),
                          F(1 + F(1, 2) * (F(29, 20) - 1)))
    assert (s, l) == ((F(19, 20) + F(1, 4)) % 1, F(1, 10))


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
            es = enc.make(space, [(s, s + l)])
        else:
            es = enc.make(space, [(s, l)])
        img = system.apply_set(es)
        for k in range(1000):
            x = (s + l * F(k, 999)) % 1
            assert contains(img, system.apply((x,)))
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
    """The map's step made for ``unit``, taking one fragment and one ball
    of Fraction coordinates, the fragment's on the lattice over ``unit``:
    (the image pieces as Fractions, raw)."""
    step, w = system.image_step(unit, unit)
    nums = [c * unit for c in frag] + [c * w for c in ball]
    assert all(c.denominator == 1 for c in nums)
    got, raw = step(tuple(int(c) for c in nums[:2]),
                    tuple(int(c) for c in nums[2:]))
    return [tuple(F(c, w) for c in piece) for piece in got], raw


PWL3 = pwl([(0, 2), (F(1, 3), -2), (F(2, 3), 3)], space_kind="interval")
TWO_TURNS = pwl([(0, F(5, 2)), (F(2, 5), F(5, 3))])


@pytest.mark.parametrize("system,frag,ball,unit,pieces,raw,image", [
    # tent across 1/2: [1/4, 1/2] and [1/2, 5/8] go to overlapping pieces
    (tent(2), (F(1, 4), F(5, 8)), (0, 1), 8,
     [(F(1, 2), 1), (F(3, 4), 1)], 2, [(F(1, 2), 1)]),
    (tent(2), (F(1, 4), F(5, 8)), (F(3, 5), F(9, 10)), 40,
     [(F(3, 5), F(9, 10)), (F(3, 4), F(9, 10))], 2, [(F(1, 2), 1)]),
    # three pieces on the interval: [1/6, 1] crosses the corners 1/3, 2/3
    (PWL3, (F(1, 6), 1), (0, 1), 6,
     [(F(1, 3), F(2, 3)), (0, F(2, 3)), (0, 1)], 3, [(0, 1)]),
    (PWL3, (F(1, 6), 1), (F(5, 6), 1), 6, [(F(5, 6), 1)], 3, [(0, 1)]),
    # an arc from 9/10 past 0 to 1/10 on a two-turn circle map: one image
    # arc on each side of the corner at 0, joined across 0 in normal form
    (TWO_TURNS, (F(9, 10), F(1, 5)), (0, 1), 10,
     [(F(5, 6), F(1, 6)), (0, F(1, 4))], 2, [(F(5, 6), F(5, 12))]),
    (TWO_TURNS, (F(9, 10), F(1, 5)), (F(9, 10), F(1, 5)), 10,
     [(F(9, 10), F(1, 10)), (0, F(1, 10))], 2, [(F(5, 6), F(5, 12))]),
], ids=["tent-whole", "tent-ball", "pwl3-whole", "pwl3-ball",
        "two-turns-whole", "two-turns-ball"])
def test_the_corner_walk_gives_one_piece_per_linear_piece(
        system, frag, ball, unit, pieces, raw, image):
    """One step clips one image piece per linear piece that the fragment
    crosses, and raw counts them; ``apply_set`` puts them in normal form,
    the hull of the pieces on the interval."""
    assert walk(system, frag, ball, unit) == (pieces, raw)
    got = system.apply_set(enc.make(system.space, [frag]))
    assert list(got.fragments) == image


# one-piece circle maps of both slope signs, each stepped over the unit 60
ONE_PIECE = {"doubling": doubling(), "rotation": rotation(F(7, 60)),
             "minus-two": pwl([(0, -2)]), "minus-one": pwl([(0, -1)], F(1, 3))}
ARC_UNIT = 60


@pytest.mark.parametrize("name", sorted(ONE_PIECE))
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(start=st.integers(0, ARC_UNIT - 1),
       length=st.one_of(st.sampled_from([0, 1, 29, 30, 59, ARC_UNIT]),
                        st.integers(0, ARC_UNIT)),
       ball_start=st.integers(0, ARC_UNIT - 1),
       ball_length=st.one_of(st.sampled_from([0, 1, 59, ARC_UNIT]),
                             st.integers(0, ARC_UNIT)))
# for doubling and for x -> -2x: an image arc that is the whole circle, a
# ball that is the whole circle, an image arc and a ball that meet in two
# arcs across 0, and ones that touch at one point (a zero-length arc)
@example(start=3, length=30, ball_start=5, ball_length=4)
@example(start=3, length=2, ball_start=0, ball_length=ARC_UNIT)
@example(start=27, length=9, ball_start=6, ball_length=51)
@example(start=6, length=3, ball_start=18, ball_length=9)
@example(start=24, length=3, ball_start=12, ball_length=18)
def test_the_one_piece_arc_clip_is_intersect_arcs(name, start, length,
                                                  ball_start, ball_length):
    """A one-piece circle map clips its image arc to the ball inline; the
    pieces are those of ``_intersect_arcs`` on the image arc, which starts
    at the image of the fragment's start (slope > 0) or end (slope < 0)."""
    system, u = ONE_PIECE[name], ARC_UNIT
    step, w = system.image_step(u, u)
    assert w == u
    slope = system.slopes[0]
    end = (start + length) % u
    (image_start,), _ = system.apply_scaled((start if slope > 0 else end,), u)
    ball = (ball_start, ball_length)
    got, raw = step((start, length), ball)
    assert raw == 1
    assert list(got) == enc._intersect_arcs(
        (image_start, abs(slope) * length), ball, w)


# the spiral (r, theta) -> (1 + (r - 1) / 2, theta + 7/60) on boxes over the
# unit 60, whose radial range is [30, 90]; its image's unit is 120, and the
# ball is over 120 * k
BOX_SPIRAL = annulus_spiral(F(1, 2), F(7, 60), F(1, 2))
BOX_UNIT = 60


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rlo=st.integers(30, 90), rwidth=st.integers(0, 60),
       start=st.integers(0, BOX_UNIT - 1),
       length=st.one_of(st.sampled_from([0, 1, 30, 59, BOX_UNIT]),
                        st.integers(0, BOX_UNIT)),
       blo=st.integers(60, 180), bwidth=st.integers(0, 120),
       ball_start=st.integers(0, 119),
       ball_length=st.one_of(st.sampled_from([0, 1, 119, 120]),
                             st.integers(0, 120)),
       k=st.sampled_from([1, 2]))
# an image arc and a ball that are both the whole circle; an image arc
# (94, 50) over 120 and a ball (10, 100) that meet in two arcs across 0;
# the same image arc touching the ball (24, 10) at 24 (a zero-length arc);
# the image's radial segment [90, 100] missing the ball's [101, 150], and
# touching [100, 150] at one radius
@example(rlo=30, rwidth=60, start=0, length=60, blo=60, bwidth=120,
         ball_start=0, ball_length=120, k=1)
@example(rlo=40, rwidth=10, start=40, length=25, blo=60, bwidth=120,
         ball_start=10, ball_length=100, k=1)
@example(rlo=40, rwidth=10, start=40, length=25, blo=60, bwidth=120,
         ball_start=24, ball_length=10, k=1)
@example(rlo=30, rwidth=10, start=40, length=25, blo=101, bwidth=49,
         ball_start=10, ball_length=100, k=1)
@example(rlo=30, rwidth=10, start=40, length=25, blo=100, bwidth=50,
         ball_start=10, ball_length=100, k=1)
def test_the_spiral_box_clip_is_intersect_boxes(rlo, rwidth, start, length,
                                                blo, bwidth, ball_start,
                                                ball_length, k):
    """The spiral's step clips its image box to the ball inline: the
    pieces are those of ``_intersect_boxes`` on the image box, whose radial
    ends are the images of the box's and whose arc starts at the image of
    its start."""
    u = BOX_UNIT
    step, w = BOX_SPIRAL.image_step(u, 2 * u * k)
    assert w == 2 * u * k
    box = (rlo, min(rlo + rwidth, 90), start, length)
    ball = tuple(c * k for c in (blo, min(blo + bwidth, 180), ball_start,
                                 ball_length))
    (lo, theta), out = BOX_SPIRAL.apply_scaled((box[0], start), u)
    (hi, _), _ = BOX_SPIRAL.apply_scaled((box[1], start), u)
    m = w // out
    image = (lo * m, hi * m, theta * m, length * (w // u))
    got, raw = step(box, ball)
    assert raw == 1
    assert list(got) == enc._intersect_boxes(image, ball, w)


def test_full_coverage_of_saturating_image():
    dbl = doubling()
    es = enc.make(dbl.space, [(F(2, 5), F(11, 20))])
    img = dbl.apply_set(es)
    hits = set()
    for k in range(10_000):
        x = (F(2, 5) + F(11, 20) * F(k, 9999)) % 1
        hits.add(int(dbl.apply((x,))[0] * 100))
    assert hits == set(range(100))
    assert img.measure() == 1


# -- preimages -------------------------------------------------------------------

def test_preimages_invert_apply():
    systems = [doubling(), rotation(F(610, 987)), tent(F(3, 2)),
               annulus_spiral(F(1, 2), F(610, 987), F(1, 2)),
               pwl([(F(0), F(3)), (F(1, 2), F(-1))])]
    rng = trial_stream(304)
    for system in systems:
        space = system.space
        for _ in range(100):
            x = random_point(space, rng)
            y = system.apply(x)
            pres = preimages(system, y)
            assert any(p == x for p in pres)
            assert all(system.apply(p) == y for p in pres)


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
    spiral = annulus_spiral(F(1, 2), F(1, 4), F(1, 2))
    assert preimages(spiral, (F(29, 20), F(0))) == []
    assert preimages(spiral, (F(6, 5), F(1, 4))) == [(F(7, 5), F(0))]


# -- parsing ----------------------------------------------------------------------

def test_parse_system_grammar():
    assert parse_system("doubling").kind == "doubling"
    rot = parse_system("rotation:alpha=610/987")
    assert rot.alpha == F(610, 987)
    t = parse_system("tent:s=1.5")
    assert t.slopes == (F(3, 2), F(-3, 2))
    spiral = parse_system("annulus:lambda=1/2,alpha=610/987,w=0.5")
    assert spiral.lam == F(1, 2) and spiral.space.w == F(1, 2)
    p = parse_system("pwl:0:2,0.5:-2,space=interval")
    assert p.space.kind == "interval"
    assert p.apply((F(1, 4),)) == (F(1, 2),)
    with pytest.raises(UsageError):
        parse_system("squaring")
    with pytest.raises(UsageError):
        parse_system("rotation:beta=1/4")
