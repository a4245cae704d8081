"""Arc, segment and box algebra for enclosure sets."""

from fractions import Fraction as F

import pytest

from shadowing import (EnclosureCapError, annulus, ball_set, circle,
                       intersect, interval, parse_system, trial_stream)
from shadowing import enclosure as enc

from reference import pick_point, random_point, uniform


def arcs(es):
    return [(F(s), F(l)) for s, l in es.fragments]


# -- circle arcs -------------------------------------------------------------

def test_ball_set_plain_and_wrapping():
    sp = circle()
    b = ball_set(sp, (F(1, 2),), F(1, 10))
    assert arcs(b) == [(F(2, 5), F(1, 5))]
    w = ball_set(sp, (F(1, 20),), F(1, 10))
    assert arcs(w) == [(F(19, 20), F(1, 5))]
    assert w.contains((F(0),)) and w.contains((F(1, 10),))
    assert not w.contains((F(1, 5),))
    assert ball_set(sp, (F(1, 3),), F(1, 2)).fragments == ((0, 1),)
    # a float enters as its exact binary value
    assert ball_set(sp, (0.5,), 0.125) == ball_set(sp, (F(1, 2),), F(1, 8))
    assert enc.make(sp, [(0.25, 0.5)]).fragments == ((F(1, 4), F(1, 2)),)


def test_intersection_of_wrapping_arcs():
    sp = circle()
    a = enc.make(sp, [(F(4, 5), F(3, 5))])   # [0.8, 1.4] covers wrap
    b = enc.make(sp, [(F(3, 10), F(3, 5))])  # [0.3, 0.9]
    got = intersect(a, b)
    assert arcs(got) == [(F(3, 10), F(1, 10)), (F(4, 5), F(1, 10))]
    assert got.measure() == F(1, 5)


def test_intersection_touching_gives_point_fragment():
    sp = circle()
    a = enc.make(sp, [(F(0), F(1, 2))])
    b = enc.make(sp, [(F(1, 2), F(1, 5))])
    got = intersect(a, b)
    assert got.measure() == 0 and not got.is_empty()
    assert got.contains((F(1, 2),))


def test_union_normalization_merges_and_saturates():
    sp = circle()
    merged = enc.make(sp, [(F(0), F(1, 4)), (F(1, 4), F(1, 4))])
    assert arcs(merged) == [(F(0), F(1, 2))]
    across = enc.make(sp, [(F(9, 10), F(1, 5)), (F(1, 10), F(1, 5))])
    assert arcs(across) == [(F(9, 10), F(2, 5))]
    full = enc.make(sp, [(F(0), F(2, 5)), (F(1, 3), F(2, 5)), (F(7, 10), F(1, 3))])
    assert full.fragments == ((0, 1),)
    assert full.measure() == 1


def test_wrap_merge_cascades():
    sp = circle()
    got = enc.make(sp, [(F(1, 10), F(1, 10)), (F(3, 10), F(1, 10)),
                        (F(9, 10), F(1, 4))])
    # trailing arc [0.9, 1.15] swallows [0.1, 0.2], then [0.3, 0.4] stays
    assert arcs(got) == [(F(3, 10), F(1, 10)), (F(9, 10), F(3, 10))]


def test_membership_and_pick_point():
    sp = circle()
    es = enc.make(sp, [(F(9, 10), F(1, 5)), (F(2, 5), F(1, 10))])
    assert es.contains((F(19, 20),)) and es.contains((F(1, 20),))
    assert es.contains((F(9, 20),)) and not es.contains((F(3, 10),))
    p = pick_point(es)
    assert es.contains(p)
    assert p == (F(0),)  # midpoint of the larger (wrapping) arc


def test_random_arc_intersection_against_membership_oracle():
    sp = circle()
    rng = trial_stream(201)
    for _ in range(300):
        s1, l1, s2, l2 = (uniform(rng) for _ in range(4))
        a = enc.make(sp, [(s1, l1 % 1)])
        b = enc.make(sp, [(s2, l2 % 1)])
        got = intersect(a, b)
        for _ in range(20):
            p = random_point(sp, rng)
            assert got.contains(p) == (a.contains(p) and b.contains(p))


# -- interval segments --------------------------------------------------------

def test_interval_sets():
    sp = interval()
    b = ball_set(sp, (F(1, 20),), F(1, 10))
    assert b.fragments == ((F(0), F(3, 20)),)
    a = enc.make(sp, [(F(0), F(1, 2)), (F(2, 5), F(7, 10))])
    assert a.fragments == ((F(0), F(7, 10)),)
    got = intersect(a, ball_set(sp, (F(7, 10),), F(1, 10)))
    assert got.fragments == ((F(3, 5), F(7, 10)),)
    assert got.measure() == F(1, 10)
    assert intersect(a, enc.make(sp, [(F(9, 10), F(1))])).is_empty()


# -- annulus boxes -------------------------------------------------------------

def test_annulus_ball_and_intersection():
    sp = annulus(F(1, 2))
    b = ball_set(sp, (F(29, 20), F(3, 10)), F(1, 10))
    assert b.fragments == ((F(27, 20), F(3, 2), F(1, 5), F(1, 5)),)
    assert b.measure() == F(3, 100)
    other = ball_set(sp, (F(7, 5), F(2, 5)), F(1, 10))
    got = intersect(b, other)
    assert len(got.fragments) == 1
    rlo, rhi, s, l = got.fragments[0]
    assert (rlo, rhi) == (F(27, 20), F(3, 2))
    assert (s, l) == (F(3, 10), F(1, 10))
    p = pick_point(got)
    assert got.contains(p) and b.contains(p) and other.contains(p)


def test_annulus_box_union_merges_aligned():
    sp = annulus(F(1, 2))
    a = (F(1), F(6, 5), F(0), F(1, 10))
    b = (F(1), F(6, 5), F(1, 10), F(1, 10))
    merged = enc.make(sp, [a, b])
    assert merged.fragments == ((F(1), F(6, 5), F(0), F(1, 5)),)
    c = (F(6, 5), F(13, 10), F(0), F(1, 10))
    stacked = enc.make(sp, [a, c])
    assert stacked.fragments == ((F(1), F(13, 10), F(0), F(1, 10)),)
    across = enc.make(sp, [(F(1), F(6, 5), F(9, 10), F(1, 10)), a])
    assert across.fragments == ((F(1), F(6, 5), F(9, 10), F(1, 5)),)


def test_zero_width_box_at_angle_zero_keeps_its_whole_section():
    sp = annulus(F(1, 2))
    ends_at_one = (F(1), F(5, 4), F(3, 4), F(1, 4))
    got = enc.make(sp, [ends_at_one, (F(9, 8), F(3, 2), F(0), F(0))])
    # the section at angle 0 is [1, 3/2]; the slab before it covers [1, 5/4]
    assert got.fragments == (ends_at_one, (F(1), F(3, 2), F(0), F(0)))


# -- fragment cap --------------------------------------------------------------

def test_fragment_cap_raises_with_partial_outer(monkeypatch):
    sp = circle()
    frags = [(F(k, 100), F(1, 1000)) for k in range(0, 100, 2)]
    exact = enc.make(sp, frags)
    monkeypatch.setattr(enc, "DEFAULT_FRAGMENT_CAP", 10)
    with pytest.raises(EnclosureCapError) as err:
        enc.make(sp, frags)
    assert str(err.value) == "fragment cap 10 exceeded for exact enclosure"
    # the exact 50-arc set, itself a sound outer bound
    assert err.value.partial == exact
    monkeypatch.setattr(enc, "DEFAULT_FRAGMENT_CAP", 50)
    assert enc.make(sp, frags).fragment_count() == 50


def test_every_operation_reads_the_module_cap_at_call_time(monkeypatch):
    doubling = parse_system("doubling")
    a = enc.make(doubling.space, [(F(0), F(1, 10)), (F(1, 4), F(1, 10))])
    b = enc.make(doubling.space, [(F(0), F(3, 5))])
    assert intersect(a, b).fragment_count() == 2
    monkeypatch.setattr(enc, "DEFAULT_FRAGMENT_CAP", 1)
    for step in (lambda: doubling.apply_set(a), lambda: intersect(a, b),
                 lambda: enc.make(a.space, a.fragments)):
        with pytest.raises(EnclosureCapError) as err:
            step()
        assert str(err.value) == "fragment cap 1 exceeded for exact enclosure"
