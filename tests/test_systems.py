"""Map evaluation, set images and preimages for the model systems."""

import random
from fractions import Fraction as F

import pytest

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
