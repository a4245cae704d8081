"""Segment and arc algebra for enclosure sets, and its products on the
annulus."""

from fractions import Fraction as F

import pytest

from shadowing import (EnclosureCapError, UsageError, annulus, ball_set,
                       circle, interval, parse_system, trial_stream)
from shadowing import enclosure as enc

from reference import (contains, intersect, make, pick_point, random_point,
                       uniform)


def arcs(es):
    return [(F(s), F(l)) for s, l in es.fragments]


# -- circle arcs -------------------------------------------------------------

def test_ball_set_plain_and_wrapping():
    sp = circle()
    b = ball_set(sp, (F(1, 2),), F(1, 10))
    assert arcs(b) == [(F(2, 5), F(1, 5))]
    w = ball_set(sp, (F(1, 20),), F(1, 10))
    assert arcs(w) == [(F(19, 20), F(1, 5))]
    assert contains(w, (F(0),)) and contains(w, (F(1, 10),))
    assert not contains(w, (F(1, 5),))
    assert ball_set(sp, (F(1, 3),), F(1, 2)).fragments == ((0, 1),)
    # a float enters as its exact binary value
    assert ball_set(sp, (0.5,), 0.125) == ball_set(sp, (F(1, 2),), F(1, 8))
    assert make(sp, [(0.25, 0.5)]).fragments == ((F(1, 4), F(1, 2)),)


def test_intersection_of_wrapping_arcs():
    sp = circle()
    a = make(sp, [(F(4, 5), F(3, 5))])   # [0.8, 1.4] covers wrap
    b = make(sp, [(F(3, 10), F(3, 5))])  # [0.3, 0.9]
    got = intersect(a, b)
    assert arcs(got) == [(F(3, 10), F(1, 10)), (F(4, 5), F(1, 10))]
    assert got.measure() == F(1, 5)


def test_intersection_touching_gives_point_fragment():
    sp = circle()
    a = make(sp, [(F(0), F(1, 2))])
    b = make(sp, [(F(1, 2), F(1, 5))])
    got = intersect(a, b)
    assert got.measure() == 0 and not got.is_empty()
    assert contains(got, (F(1, 2),))


def test_union_normalization_merges_and_saturates():
    sp = circle()
    merged = make(sp, [(F(0), F(1, 4)), (F(1, 4), F(1, 4))])
    assert arcs(merged) == [(F(0), F(1, 2))]
    across = make(sp, [(F(9, 10), F(1, 5)), (F(1, 10), F(1, 5))])
    assert arcs(across) == [(F(9, 10), F(2, 5))]
    full = make(sp, [(F(0), F(2, 5)), (F(1, 3), F(2, 5)), (F(7, 10), F(1, 3))])
    assert full.fragments == ((0, 1),)
    assert full.measure() == 1


def test_wrap_merge_cascades():
    sp = circle()
    got = make(sp, [(F(1, 10), F(1, 10)), (F(3, 10), F(1, 10)),
                        (F(9, 10), F(1, 4))])
    # trailing arc [0.9, 1.15] swallows [0.1, 0.2], then [0.3, 0.4] stays
    assert arcs(got) == [(F(3, 10), F(1, 10)), (F(9, 10), F(3, 10))]


# the circle form is the segment form of the arcs cut at 0, with the first
# and last segments joined back into one arc where they meet at 0
CUT_AT_0 = {
    "ends-at-1-next-to-starts-at-0": (
        [(F(3, 4), F(1, 4)), (F(0), F(1, 10)), (F(1, 2), F(1, 10))],
        [(F(1, 2), F(1, 10)), (F(3, 4), F(7, 20))]),
    "zero-length-at-0-next-to-ends-at-1": (
        [(F(0), F(0)), (F(4, 5), F(1, 5)), (F(2, 5), F(1, 10))],
        [(F(2, 5), F(1, 10)), (F(4, 5), F(1, 5))]),
    "zero-length-at-0-alone": ([(F(0), F(0)), (F(2, 5), F(1, 10))],
                               [(F(0), F(0)), (F(2, 5), F(1, 10))]),
    "cover-only-together": ([(F(0), F(1, 2)), (F(1, 2), F(1, 2))],
                            [(F(0), F(1))]),
    "cover-only-together-across-0": ([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))],
                                     [(F(0), F(1))]),
    "wrapping-tail-overlaps-first": (
        [(F(1, 10), F(1, 5)), (F(1, 2), F(1, 10)), (F(9, 10), F(3, 10))],
        [(F(1, 2), F(1, 10)), (F(9, 10), F(2, 5))]),
}


@pytest.mark.parametrize("case", sorted(CUT_AT_0))
def test_arcs_are_cut_at_0_and_rejoined(case):
    given, expected = CUT_AT_0[case]
    sp = circle()
    assert arcs(make(sp, given)) == expected
    assert arcs(make(sp, given[::-1])) == expected


def test_membership_and_pick_point():
    sp = circle()
    es = make(sp, [(F(9, 10), F(1, 5)), (F(2, 5), F(1, 10))])
    assert contains(es, (F(19, 20),)) and contains(es, (F(1, 20),))
    assert contains(es, (F(9, 20),)) and not contains(es, (F(3, 10),))
    p = pick_point(es)
    assert contains(es, p)
    assert p == (F(0),)  # midpoint of the larger (wrapping) arc


def test_random_arc_intersection_against_membership_oracle():
    sp = circle()
    rng = trial_stream(201)
    for _ in range(300):
        s1, l1, s2, l2 = (uniform(rng) for _ in range(4))
        a = make(sp, [(s1, l1 % 1)])
        b = make(sp, [(s2, l2 % 1)])
        got = intersect(a, b)
        for _ in range(20):
            p = random_point(sp, rng)
            assert contains(got, p) == (contains(a, p) and contains(b, p))


# -- interval segments --------------------------------------------------------

def test_interval_sets():
    sp = interval()
    b = ball_set(sp, (F(1, 20),), F(1, 10))
    assert b.fragments == ((F(0), F(3, 20)),)
    a = make(sp, [(F(0), F(1, 2)), (F(2, 5), F(7, 10))])
    assert a.fragments == ((F(0), F(7, 10)),)
    got = intersect(a, ball_set(sp, (F(7, 10),), F(1, 10)))
    assert got.fragments == ((F(3, 5), F(7, 10)),)
    assert got.measure() == F(1, 10)
    assert intersect(a, make(sp, [(F(9, 10), F(1))])).is_empty()


# -- annulus: a radial segment times arcs -------------------------------------

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
    assert contains(got, p) and contains(b, p) and contains(other, p)


def test_annulus_box_union_merges_aligned():
    sp = annulus(F(1, 2))
    radial = (F(1), F(6, 5))
    a = (F(0), F(1, 10))
    b = (F(1, 10), F(1, 10))
    merged = make(sp, [a, b], radial)
    assert merged.fragments == ((F(1), F(6, 5), F(0), F(1, 5)),)
    across = make(sp, [(F(9, 10), F(1, 10)), a], radial)
    assert across.fragments == ((F(1), F(6, 5), F(9, 10), F(1, 5)),)


def test_an_empty_arc_or_radial_segment_is_dropped():
    sp = annulus(F(1, 2))
    arc = (F(0), F(1, 4))
    # an arc of negative length is empty, and so is the set of an empty
    # radial segment, whatever its arcs
    got = make(sp, [arc, (F(1, 2), F(-1, 4))], (F(1), F(5, 4)))
    assert got.fragments == ((F(1), F(5, 4), *arc),)
    assert make(sp, [arc], (F(5, 4), F(1))).fragments == ()
    empty = enc._make(sp, [(0, 1)], 4, (5, 4))
    assert empty.is_empty() and empty.measure() == 0
    assert intersect(got, make(sp, [arc], (F(6, 5), F(3, 2)))).fragments \
        == ((F(6, 5), F(5, 4), *arc),)
    assert intersect(got, make(sp, [arc], (F(13, 10), F(3, 2)))).is_empty()
    # so is a ball whose center lies off the band, or off the interval
    assert ball_set(sp, (F(2), F(0)), F(1, 10)).is_empty()
    assert ball_set(interval(), (F(3, 2),), F(1, 10)).is_empty()


def test_an_annulus_set_without_its_radial_segment_is_refused():
    # every annulus set is one radial segment times arcs, so a hand-built
    # set of boxes, stacked radially or not, is not one
    sp = annulus(F(1, 2))
    ball = ball_set(sp, (F(1), F(0)), F(1, 4))
    with pytest.raises(UsageError, match="radial segment"):
        intersect(ball, enc.EnclosureSet(sp, [(3, 4, 0, 1), (4, 5, 0, 1)], 4))
    with pytest.raises(UsageError, match="radial segment"):
        enc.EnclosureSet(sp, [(0, 1)], 4)
    # the empty set has no arcs for a segment to multiply
    assert enc.EnclosureSet(sp, (), 4).is_empty()


# -- fragment cap --------------------------------------------------------------

def test_fragment_cap_raises_with_partial_outer(monkeypatch):
    sp = circle()
    frags = [(F(k, 100), F(1, 1000)) for k in range(0, 100, 2)]
    exact = make(sp, frags)
    monkeypatch.setattr(enc, "DEFAULT_FRAGMENT_CAP", 10)
    with pytest.raises(EnclosureCapError) as err:
        make(sp, frags)
    assert str(err.value) == "fragment cap 10 exceeded for exact enclosure"
    # the exact 50-arc set, itself a sound outer bound
    assert err.value.partial == exact
    monkeypatch.setattr(enc, "DEFAULT_FRAGMENT_CAP", 50)
    assert make(sp, frags).fragment_count() == 50


def test_every_operation_reads_the_module_cap_at_call_time(monkeypatch):
    doubling = parse_system("doubling")
    a = make(doubling.space, [(F(0), F(1, 10)), (F(1, 4), F(1, 10))])
    b = make(doubling.space, [(F(0), F(3, 5))])
    assert intersect(a, b).fragment_count() == 2
    monkeypatch.setattr(enc, "DEFAULT_FRAGMENT_CAP", 1)
    for step in (lambda: doubling.apply_set(a), lambda: intersect(a, b),
                 lambda: make(a.space, a.fragments)):
        with pytest.raises(EnclosureCapError) as err:
            step()
        assert str(err.value) == "fragment cap 1 exceeded for exact enclosure"
