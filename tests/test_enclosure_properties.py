"""Properties of the enclosure-set algebra, checked against brute force.

Sets are built with ``enclosure.make`` from random fragments whose
coordinates have small denominators, so touching, nested, wrapping and
single-point fragments come up often. Membership is compared with a direct
reading of the raw fragments: an arc ``(s, l)`` holds the points s + t mod
1 for 0 <= t <= l, a segment ``(lo, hi)`` the points lo..hi, a box the
product of a radial segment and an arc. Boxes are drawn as cells of a
random grid, because overlapping boxes cannot be normalized without a
superset (``make`` raises ``EnclosureCapError`` for them).
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from shadowing import annulus, circle, intersect, interval
from shadowing import enclosure as enc
from test_lattice import PROPERTY

SPACES = {"circle": circle(), "interval": interval(), "annulus": annulus(F(1, 2))}

coord = st.fractions(0, 1, max_denominator=12)


# arc lengths up to 5/4 include the whole circle; negative ones are empty
raw_arcs = st.lists(st.tuples(coord.map(lambda s: s % 1),
                              st.fractions(F(-1, 4), F(5, 4),
                                           max_denominator=12)),
                    max_size=5)
# lo > hi gives an empty segment
raw_segments = st.lists(st.tuples(coord, coord), max_size=5)


@st.composite
def raw_boxes(draw):
    radii = sorted(set(draw(st.lists(
        st.fractions(F(1, 2), F(3, 2), max_denominator=12),
        min_size=2, max_size=4))))
    angles = sorted(set(draw(st.lists(coord.map(lambda a: a % 1),
                                      min_size=1, max_size=4))))
    arcs = [(a, ((b - a) % 1) or 1)
            for a, b in zip(angles, angles[1:] + angles[:1])]
    cells = [(r0, r1, s, l) for r0, r1 in zip(radii, radii[1:])
             for s, l in arcs]
    if not cells:  # one distinct radius: a zero-width ring
        cells = [(radii[0], radii[0], s, l) for s, l in arcs]
    return draw(st.lists(st.sampled_from(cells), max_size=len(cells),
                         unique=True))


RAW = {"circle": raw_arcs, "interval": raw_segments, "annulus": raw_boxes()}


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
    """Two fragments whose union is ``frag``, cut strictly inside it (for
    an arc crossing 0, often at 0 itself). A cut at an end would leave a
    zero-width box inside another box, which box normalization keeps as a
    fragment of its own."""
    u = data.draw(st.fractions(F(1, 24), F(23, 24), max_denominator=24),
                  label="cut")
    if kind == "interval":
        lo, hi = frag
        m = lo + u * (hi - lo)
        return [(lo, m), (m, hi)] if lo < hi else [frag]
    if kind == "annulus" and data.draw(st.booleans(), label="radial"):
        rlo, rhi, s, l = frag
        m = rlo + u * (rhi - rlo)
        return [(rlo, m, s, l), (m, rhi, s, l)] if rlo < rhi else [frag]
    *radial, s, l = frag
    if not 0 < l < 1:
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
    if kind != "annulus":
        assert cut.fragments == es.fragments
        return
    # an L-shaped union has two box decompositions, and merge order picks
    # one, so boxes are compared as point sets
    assert cut.measure() == es.measure()
    for p in probe_points(kind, data, raw):
        assert cut.contains(p) == es.contains(p), p


@pytest.mark.parametrize("kind", sorted(SPACES))
@PROPERTY
@given(data=st.data())
def test_contains_matches_brute_force(kind, data):
    raw, es = draw_set(kind, data, "a")
    for p in probe_points(kind, data, raw):
        assert es.contains(p) == brute_contains(kind, raw, p), p


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
