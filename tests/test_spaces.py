"""Metric, measure, sampling and cover properties of the three spaces."""

import math
import random
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chisquare

from shadowing import (DomainError, UsageError, Space, annulus, circle,
                       interval, trial_stream)
from shadowing.spaces import ScaledPoints, scaled_point

from reference import (ball_measure, circ_dist, dist, dist_over, epsilon_net,
                       random_point, sample_uniform_ball, signed_circ_diff)

SPACES = [circle(), interval(), annulus(F(1, 2))]
NET_SPACES = SPACES[:2]  # the annulus has no cover net


def ids(space):
    return space.kind


# -- metric axioms ---------------------------------------------------------

@pytest.mark.parametrize("space", SPACES, ids=ids)
def test_metric_axioms_on_random_triples(space):
    rng = trial_stream(101)
    for _ in range(10_000):
        a, b, c = (random_point(space, rng) for _ in range(3))
        dab = dist(space, a, b)
        assert dab >= 0
        assert dab == dist(space, b, a)
        assert dist(space, a, a) == 0
        assert dist(space, a, c) <= dab + dist(space, b, c)
        assert dab <= space.diameter


def test_identity_of_indiscernibles_circle():
    sp = circle()
    assert dist(sp, (F(1, 3),), (F(1, 3),)) == 0
    assert dist(sp, (F(0),), (F(1, 2),)) == F(1, 2)
    # wrap ties resolve: distinct points at distance 0 impossible mod 1
    assert sp.canonical((F(1),)) == (F(0),)


def test_canonicalization_idempotent():
    rng = trial_stream(102)
    for space in SPACES:
        for _ in range(200):
            p = random_point(space, rng)
            q = space.canonical(p)
            assert space.canonical(q) == q


def test_kind_specific_distances():
    assert dist(circle(), (F(1, 10),), (F(9, 10),)) == F(1, 5)
    assert dist(interval(), (F(1, 4),), (F(3, 4),)) == F(1, 2)
    an = annulus(F(1, 2))
    assert dist(an, (F(6, 5), F(1, 10)), (F(9, 10), F(19, 20))) == F(3, 10)


def test_signed_circ_diff_representative():
    assert signed_circ_diff(F(1, 10), F(9, 10)) == F(1, 5)
    assert signed_circ_diff(F(9, 10), F(1, 10)) == -F(1, 5)
    assert circ_dist(F(0), F(1, 2)) == F(1, 2)


# -- ball measures ---------------------------------------------------------

def test_ball_measure_closed_forms():
    assert ball_measure(circle(), (F(0),), F(1, 10)) == F(1, 5)
    assert ball_measure(interval(), (F(1, 20),), F(1, 10)) == F(3, 20)
    an = annulus(F(1, 2))
    assert ball_measure(an, (F(29, 20), F(3, 10)), F(1, 10)) == F(3, 100)


def test_ball_measure_positive_and_rejects_bad_radius():
    for space in SPACES:
        rng = trial_stream(103)
        for _ in range(50):
            c = random_point(space, rng)
            assert ball_measure(space, c, F(1, 1000)) > 0
        with pytest.raises(DomainError):
            ball_measure(space, random_point(space, rng), F(0))


def _mc_ball_measure(space, center, radius, n, seed):
    """Monte Carlo integration oracle for mu(B(radius, center) & M)."""
    draws = trial_stream(seed)

    def uniforms(n):
        return np.array(list(islice(draws, n)), dtype=float) / 2 ** 53

    if space.kind == "circle":
        pts = uniforms(n)
        t = np.abs((pts - float(center[0])) % 1.0)
        inside = np.minimum(t, 1.0 - t) <= float(radius)
        total = 1.0
    elif space.kind == "interval":
        pts = uniforms(n)
        inside = np.abs(pts - float(center[0])) <= float(radius)
        total = 1.0
    else:
        w = float(space.w)
        r = 1 - w + 2 * w * uniforms(n)
        th = uniforms(n)
        t = np.abs((th - float(center[1])) % 1.0)
        inside = (np.abs(r - float(center[0])) <= float(radius)) \
            & (np.minimum(t, 1.0 - t) <= float(radius))
        total = 2 * w
    p = inside.mean()
    se = math.sqrt(max(p * (1 - p), 1e-12) / n) * total
    return p * total, se


@pytest.mark.parametrize("space,center,radius", [
    (circle(), (F(0),), F(1, 10)),
    (circle(), (F(97, 100),), F(1, 4)),
    (interval(), (F(1, 20),), F(1, 10)),
    (interval(), (F(1, 2),), F(3, 10)),
    (annulus(F(1, 2)), (F(29, 20), F(3, 10)), F(1, 10)),
    (annulus(F(1, 2)), (F(1), F(0)), F(2, 5)),
], ids=["circ-int", "circ-wrap", "ivl-edge", "ivl-mid", "ann-corner", "ann-mid"])
def test_ball_measure_matches_monte_carlo(space, center, radius):
    est, se = _mc_ball_measure(space, center, radius, 100_000, 104)
    assert abs(float(ball_measure(space, center, radius)) - est) <= 3 * se


# -- sampling --------------------------------------------------------------

@pytest.mark.parametrize("space", SPACES, ids=ids)
def test_samples_stay_in_closed_ball(space):
    rng = trial_stream(105)
    for _ in range(40):
        c = random_point(space, rng)
        radius = F(1, 10)
        for _ in range(25):
            p = sample_uniform_ball(space, c, radius, rng)
            assert dist(space, p, c) <= radius
            assert space.canonical(p) == p


def test_sampling_respects_truncation():
    sp = interval()
    rng = trial_stream(106)
    for _ in range(500):
        x = sample_uniform_ball(sp, (F(0),), F(1, 10), rng)[0]
        assert 0 <= x < F(1, 10)


def test_circle_samples_open_arc():
    sp = circle()
    rng = trial_stream(107)
    for _ in range(500):
        x = sample_uniform_ball(sp, (F(1, 2),), F(1, 10), rng)[0]
        assert F(2, 5) < x < F(3, 5)


def test_uniformity_chi_square():
    # 10 equal sub-arcs of the target arc, 10^4 samples, significance 0.001
    sp = circle()
    rng = trial_stream(108)
    lo, width = 0.4, 0.2
    xs = [float(sample_uniform_ball(sp, (F(1, 2),), F(1, 10), rng)[0])
          for _ in range(10_000)]
    counts = np.histogram(xs, bins=10, range=(lo, lo + width))[0]
    assert counts.sum() == 10_000
    assert chisquare(counts).pvalue > 0.001


def test_uniformity_chi_square_truncated_annulus_ball():
    an = annulus(F(1, 2))
    rng = trial_stream(109)
    center, radius = (F(29, 20), F(3, 10)), F(1, 10)
    rs, ths = [], []
    for _ in range(10_000):
        p = sample_uniform_ball(an, center, radius, rng)
        rs.append(float(p[0]))
        ths.append(float(p[1]))
    # radial part truncated to [1.35, 1.5], angular to [0.2, 0.4]
    counts_r = np.histogram(rs, bins=10, range=(1.35, 1.5))[0]
    counts_t = np.histogram(ths, bins=10, range=(0.2, 0.4))[0]
    assert counts_r.sum() == counts_t.sum() == 10_000
    assert chisquare(counts_r).pvalue > 0.001
    assert chisquare(counts_t).pvalue > 0.001


# -- epsilon nets ------------------------------------------------------------

def test_epsilon_net_examples():
    assert len(epsilon_net(circle(), F(1, 4))) == 4
    net = epsilon_net(interval(), F(1, 2))
    assert len(net) >= 2 and (F(1, 4),) in net and (F(3, 4),) in net
    with pytest.raises(DomainError):
        epsilon_net(circle(), F(0))
    with pytest.raises(UsageError):
        epsilon_net(annulus(F(1, 2)), F(1, 4))


def on_one_scale(delta1, centers, points):
    """The exact distance checks on integers: (scale, centers, delta1,
    points), each as numerators over one common scale."""
    scale = math.lcm(delta1.denominator,
                     *(c.denominator for p in points + centers for c in p))

    def over(p):
        return tuple(c.numerator * (scale // c.denominator) for c in p)

    return (scale, [over(c) for c in centers],
            delta1.numerator * (scale // delta1.denominator),
            [over(p) for p in points])


@pytest.mark.parametrize("space", NET_SPACES, ids=ids)
@pytest.mark.parametrize("delta1", [F(1, 4), F(1, 10), F(3, 100)])
def test_epsilon_net_covers(space, delta1):
    centers = epsilon_net(space, delta1)
    rng = trial_stream(110)
    points = [random_point(space, rng) for _ in range(1000)]
    scale, grid, bound, qs = on_one_scale(delta1, centers, points)
    for p, q in zip(points, qs):
        assert min(dist_over(space, q, c, scale) for c in grid) < bound, p


def test_annulus_needs_a_positive_half_width():
    """0 < w < 1: from w = 1 on the band [1 - w, 1 + w] takes radii at or
    below 0."""
    assert annulus("1/3").w == F(1, 3)
    for w in (0, F(-1, 2), 1, 2):
        with pytest.raises(DomainError):
            annulus(w)
    with pytest.raises(DomainError):
        Space("annulus")
    with pytest.raises(UsageError):
        Space("torus")


def run_indices(runs) -> list:
    """The indices that ``Space.net_runs`` runs cover, in increasing
    order; an index covered twice shows up twice."""
    return sorted(k for first, last in runs for k in range(first, last + 1))


@pytest.mark.parametrize("space", NET_SPACES, ids=ids)
@pytest.mark.parametrize("delta1", [F(1, 4), F(2, 23), F(3, 100), F(1, 800)])
def test_net_neighbors_match_linear_scan(space, delta1):
    """The open net balls around a point, as ``net_runs`` gives them for
    the point as a fragment of length 0."""
    centers = epsilon_net(space, delta1)
    n = space.net_size(delta1)
    rng = trial_stream(111)
    points = [random_point(space, rng) for _ in range(300)]
    # points at exactly delta1 from a center, which the strict < leaves
    # out, and orbit points of the rotation by 610/987
    points += [space.canonical((c + sign * delta1,))
               for (c,) in centers[:3] + centers[-3:] for sign in (-1, 1)
               if space.kind == "circle" or 0 <= c + sign * delta1 <= 1]
    points += [(F(610 * k % 987, 987),) for k in range(60)]
    scale, grid, bound, qs = on_one_scale(delta1, centers, points)
    for p, q in zip(points, qs):
        expected = [i for i, c in enumerate(grid)
                    if dist_over(space, q, c, scale) < bound]
        assert run_indices(space.net_runs(q[0], q[0], scale, delta1, n,
                                          closed=False)) == expected, p
        x, unit = p[0].numerator, p[0].denominator
        assert run_indices(space.net_runs(x, x, unit, delta1, n,
                                          closed=False)) == expected, p
        assert expected  # the net covers, so some center is always near


def fragment_dist(space, c, lo, hi):
    """Distance from the point c to the segment [lo, hi], or on the circle
    to the arc from lo to hi (hi - lo its length, at most 1)."""
    if space.kind == "interval":
        return max(lo - c, c - hi, 0)
    t = (c - lo) % 1
    return 0 if t <= hi - lo else min(t - (hi - lo), 1 - t)


def closed_cases(space, delta1):
    """Fragments (lo, hi) of the space: random ones, both ends, fragments
    that end exactly delta1 from a center, and on the circle arcs that
    wrap past 0, the whole circle and an arc that delta1 grows to it."""
    n = space.net_size(delta1)
    rng = trial_stream(112)
    cases = []
    for _ in range(60):
        a, b = sorted(random_point(space, rng)[0] for _ in range(2))
        cases.append((a, b) if space.kind == "interval" else (b, b + a))
    centers = [c for (c,) in epsilon_net(space, delta1)]
    step = F(1, 3 * n)
    for c in centers[:2] + centers[-2:]:
        if space.kind == "circle" or c + delta1 + step <= 1:
            cases.append((c + delta1, c + delta1 + step))
        if space.kind == "circle" or c - delta1 - step >= 0:
            cases.append((c - delta1 - step, c - delta1))
    if space.kind == "interval":
        return cases + [(F(0), F(0)), (F(1), F(1)), (F(0), F(1))]
    cases += [(s % 1, s % 1 + length) for s, length in
              [(F(9, 10), F(1, 5)), (F(1, 2), F(1, 2)), (F(0), F(1)),
               (F(3, 4), 1 - 2 * delta1), (F(3, 4), 1 - 2 * delta1 - F(1, 97)),
               (-delta1 / 2, delta1), (F(1, 3), F(0))] if length >= 0]
    return cases


@pytest.mark.parametrize("space", NET_SPACES, ids=ids)
@pytest.mark.parametrize("delta1", [F(3, 2), F(1), F(3, 5), F(1, 2),
                                    F(1, 4), F(2, 23), F(1, 800)])
def test_net_runs_of_closed_balls_match_linear_scan(space, delta1):
    """The closed net balls that meet a segment or an arc, from
    ``net_runs``, against the distance of every center to the fragment;
    the first four radii give nets of n = 1 and 2."""
    n = space.net_size(delta1)
    centers = [c for (c,) in epsilon_net(space, delta1)]
    for lo, hi in closed_cases(space, delta1):
        expected = [k for k, c in enumerate(centers)
                    if fragment_dist(space, c, lo, hi) <= delta1]
        unit = math.lcm(lo.denominator, hi.denominator)
        runs = space.net_runs(int(lo * unit), int(hi * unit), unit, delta1,
                              n, closed=True)
        assert all(0 <= first <= last < n for first, last in runs)
        assert run_indices(runs) == expected, (lo, hi)


def test_scaled_point_is_lcm_then_lift():
    draws = random.Random(113)
    for _ in range(500):
        point = tuple(F(draws.randrange(-10 ** 6, 10 ** 6),
                        draws.choice([1, 2, 987, 2 ** 53,
                                      draws.randrange(1, 10 ** 9)]))
                      for _ in range(draws.choice([1, 2])))
        base = draws.choice([1, 2, 987, 2 ** 53, draws.randrange(1, 10 ** 6)])
        scale = math.lcm(base, *(c.denominator for c in point))
        nums = tuple(int(c * scale) for c in point)
        assert scaled_point(point, base) == (nums, scale), (point, base)
    assert scaled_point((0.5, F(1, 3)), 4) == ((6, 4), 12)


@pytest.mark.parametrize("space,inside,outside", [
    (circle(), [(F(3, 2),), (F(-7, 3),)], []),
    (interval(), [(F(0),), (F(1),), (F(1, 3),)],
     [(F(-1, 1000),), (F(1001, 1000),)]),
    (annulus(F(1, 3)), [(F(2, 3), F(5, 2)), (F(4, 3), F(0))],
     [(F(2, 3) - F(1, 300), F(0)), (F(4, 3) + F(1, 300), F(1, 2))]),
], ids=["circle", "interval", "annulus"])
def test_check_scaled_refuses_points_outside_the_space(space, inside,
                                                       outside):
    # the ends of the interval and of the band are in the space, a point
    # past them is not; an angle lies anywhere, since it wraps
    space.check_scaled(ScaledPoints.from_points(inside))
    for p in outside:
        with pytest.raises(DomainError, match=f"point {len(inside)} "):
            space.check_scaled(ScaledPoints.from_points([*inside, p]))
        with pytest.raises(DomainError):
            space.canonical(p)
    with pytest.raises(UsageError, match=r"point 1: .* got 3"):
        space.check_scaled(ScaledPoints([(0,) * space.ndim, (0, 0, 0)],
                                        [1, 1]))


# coordinates for the lattice entry: Fractions and floats anywhere, angles
# below 0 and at or past 1, the interval's ends and points just past them,
# and radii of the band [2/3, 4/3] (w = 1/3) on and just past its edges
EDGE = [F(0), F(1), F(-1), F(2), F(1, 3), F(2, 3), F(4, 3), F(-1, 10 ** 9),
        F(1) + F(1, 10 ** 9), F(2, 3) - F(1, 10 ** 9),
        F(4, 3) + F(1, 10 ** 9), F(-7, 3), F(5, 2)]
LATTICE_COORD = st.one_of(
    st.sampled_from(EDGE),
    st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 6),
    st.sampled_from([0.0, 1.0, -0.3, 1.5, -1e-20, 1 - 2 ** -53, 0.5]),
    st.floats(min_value=-3, max_value=3, allow_nan=False))
LATTICE_SPACES = [circle(), interval(), annulus(F(1, 3)), annulus(F(1, 2))]


def outcome(call):
    """What ``call`` returns, or the type and text of the error it
    raises."""
    try:
        return call()
    except (UsageError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(space=st.sampled_from(LATTICE_SPACES),
       point=st.lists(LATTICE_COORD, min_size=0, max_size=3),
       base=st.sampled_from([1, 2, 3, 987, 2 ** 53, 3 * 610]),
       as_list=st.booleans())
@example(space=circle(), point=[F(-1, 3)], base=1, as_list=False)
@example(space=circle(), point=[-1e-20], base=1, as_list=False)
@example(space=interval(), point=[F(1)], base=2, as_list=False)
@example(space=interval(), point=[F(1) + F(1, 10 ** 9)], base=1,
         as_list=False)
@example(space=annulus(F(1, 3)), point=[F(4, 3), F(-1, 4)], base=3,
         as_list=False)
@example(space=annulus(F(1, 3)), point=[F(4, 3) + F(1, 10 ** 9), F(0)],
         base=3, as_list=False)
@example(space=annulus(F(1, 3)), point=[F(2, 3), F(1)], base=1,
         as_list=True)
@example(space=annulus(F(1, 3)), point=[F(1)], base=1, as_list=False)
def test_the_lattice_entry_is_canonical_then_scaled(space, point, base,
                                                    as_list):
    """``Space.lattice_point`` equals ``scaled_point`` of ``canonical``,
    and raises what ``canonical`` raises, with the same text: a wrong
    count of coordinates, an interval point outside [0, 1] or a radius
    outside the band. Angles wrap whatever their sign."""
    p = point if as_list else tuple(point)
    assert outcome(lambda: space.lattice_point(p, base)) == \
        outcome(lambda: scaled_point(space.canonical(p), base))


def test_a_float_angle_just_below_0_is_0():
    """A float's remainder mod 1 rounds up to 1.0 just below 0; the
    angle is then 0, in [0, 1) as promised, a float still."""
    got = circle().canonical((-1e-20,))
    assert got == (0.0,) and isinstance(got[0], float)
    assert annulus(F(1, 2)).canonical((1.0, -1e-20)) == (1.0, 0.0)
    assert circle().lattice_point((-1e-20,)) == ((0,), 1)


@pytest.mark.parametrize("space", SPACES, ids=ids)
def test_the_lattice_entry_refuses_a_point_that_is_not_a_tuple(space):
    for bad in (F(1, 2), "0.5", 0.5):
        for entry in (space.canonical, space.lattice_point):
            with pytest.raises(UsageError, match="a point is a tuple"):
                entry(bad)
