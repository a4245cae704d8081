"""Metric, measure, sampling and cover properties of the three spaces."""

import math
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest
from scipy.stats import chisquare

from shadowing import (DomainError, UsageError, Space, annulus, circle,
                       interval, trial_stream)
from shadowing.spaces import circ_dist

from reference import (ball_measure, dist, dist_over, epsilon_net,
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
    assert annulus("1/3").w == F(1, 3)
    for w in (0, F(-1, 2)):
        with pytest.raises(DomainError):
            annulus(w)
    with pytest.raises(DomainError):
        Space("annulus")
    with pytest.raises(UsageError):
        Space("torus")


@pytest.mark.parametrize("space", NET_SPACES, ids=ids)
@pytest.mark.parametrize("delta1", [F(1, 4), F(2, 23), F(3, 100), F(1, 800)])
def test_net_neighbors_match_linear_scan(space, delta1):
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
        assert space.net_neighbors(q[0], scale, delta1, n) == expected, p
        assert space.net_neighbors(p[0].numerator, p[0].denominator,
                                   delta1, n) == expected, p
        assert expected  # the net covers, so some center is always near
