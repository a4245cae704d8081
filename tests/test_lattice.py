"""The integer-lattice kernel against references that step by hand.

``generate``, ``shadow_set_forward``, ``pull_back_witness`` and
``orbit_tracks`` run on integers over a common denominator, each step
fused. The references here take the steps one at a time: the ``Fraction``
sampler and map of ``tests/reference.py``, one draw at a time, for the
chain; the reference ``image_set`` and ``intersect`` for the shadow sets;
the ``Fraction`` ``pick_point`` and ``preimages`` of ``tests/reference.py``
with ``contains`` for the pull-back.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from shadowing import (annulus_spiral, ball_set, decide_shadowable, doubling,
                       generate, load_trajectory, orbit_tracks,
                       parse_system, pwl, rotation, save_trajectory,
                       shadow_set_forward, tent, trial_stream)
from shadowing.pseudotraj import Provenance, Pseudotrajectory
from shadowing.shadowcheck import pull_back_witness

from reference import (apply, contains, image_set, intersect, pick_point,
                       preimages, sample_uniform_ball)

SYSTEMS = {
    "doubling": doubling(),
    "rotation": rotation(F(610, 987)),
    "tent": tent(F(3, 2)),
    "spiral": annulus_spiral(F(1, 2), F(610, 987), F(1, 2)),
    # a contraction off the dyadic grid: its scale grows by 3 per step
    "spiral-2/3": annulus_spiral(F(2, 3), F(610, 987), F(1, 2)),
    # negative and non-integer slopes, breakpoints off the dyadic grid
    "pwl": pwl([(0, F(3, 2)), (F(1, 3), F(-3, 4)), (F(2, 3), F(3, 2))],
               space_kind="interval"),
    # a degree-2 circle map with two non-integer slopes: its preimages
    # come from both pieces and from several windings
    "circle-pwl": pwl([(0, F(5, 2)), (F(2, 5), F(5, 3))]),
    # one piece of negative slope, x -> -2x: its image arcs run backwards
    "pwl-flip": pwl([(0, -2)]),
    # one interval piece of a negative non-integer slope, x -> 1 - x/2: its
    # scale grows by 2 per step, and a draw near f(0) = 1 is truncated
    "interval-flip": pwl([(0, F(-1, 2))], 1, space_kind="interval"),
}

PROPERTY = settings(max_examples=50, deadline=None, database=None,
                    derandomize=True)


def reference_chain(system, y0, d, n, rng):
    """generate() one sample_uniform_ball draw at a time."""
    space = system.space
    pts = [space.canonical(y0)]
    for _ in range(n):
        pts.append(sample_uniform_ball(space, apply(system, pts[-1]), d,
                                       rng))
    return tuple(pts)


def reference_sets(system, points, eps):
    space = system.space
    sets = [ball_set(space, points[0], eps)]
    for y in points[1:]:
        current = sets[-1]
        sets.append(current if current.is_empty() else
                    intersect(image_set(system, current),
                              ball_set(space, y, eps)))
    return sets


def reference_witness(system, sets, m):
    x = pick_point(sets[m])
    for n in range(m - 1, -1, -1):
        x = next(p for p in preimages(system, x) if contains(sets[n], p))
    return x


def start_point(system, data):
    space = system.space
    x = data.draw(st.fractions(0, 1, max_denominator=1000), label="x0")
    if space.kind == "annulus":
        r = data.draw(st.fractions(1 - space.w, 1 + space.w,
                                   max_denominator=1000), label="r0")
        return (r, x % 1)
    return (x % 1,) if space.kind == "circle" else (x,)


STEP_BOUNDS = [F(1, 50), F(3, 200), F(1, 7), F(9, 800)]
# 1/200 against d = 1/7 empties most sets within a few steps, so the
# shortened propagation meets reference_sets' walk over the empty tail
TOLERANCES = [F(1, 20), F(1, 30), F(2, 21), F(3, 5), F(1, 200)]


def lattice_matches_fractions(name, data):
    system = SYSTEMS[name]
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    n = data.draw(st.integers(0, 60), label="n")
    d = data.draw(st.sampled_from(STEP_BOUNDS), label="d")
    eps = data.draw(st.sampled_from(TOLERANCES), label="eps")
    chain_matches(system, seed, n, d, eps, start_point(system, data))


def chain_matches(system, seed, n, d, eps, y0):
    """The lattice kernel's points, sets, witness and re-check are the
    ``Fraction`` references' on the chain from y0."""
    rng_lattice, rng_ref = trial_stream(seed), trial_stream(seed)
    traj = generate(system, y0, d, n, rng_lattice)
    points = reference_chain(system, y0, d, n, rng_ref)
    assert traj.points == points
    assert next(rng_lattice) == next(rng_ref)  # same stream position

    sets = shadow_set_forward(system, traj, eps)
    ref = reference_sets(system, points, eps)
    assert [s.fragments for s in sets] == [s.fragments for s in ref]
    assert [s.measure() for s in sets] == [s.measure() for s in ref]
    empty = [s.is_empty() for s in sets]
    m = empty.index(True) - 1 if True in empty else n
    if m >= 0:
        witness = pull_back_witness(system, sets, m)
        assert witness == reference_witness(system, ref, m)
        assert orbit_tracks(system, traj.scaled[:m + 1], witness, eps)
        assert orbit_tracks(system, points[:m + 1], witness, eps)
        # so one pull-back at the longest Yes prefix serves every shorter one
        assert all(orbit_tracks(system, traj.scaled[:k + 1], witness, eps)
                   for k in range(m))


@PROPERTY
@given(data=st.data())
def test_doubling_lattice_equals_fractions(data):
    lattice_matches_fractions("doubling", data)


@PROPERTY
@given(data=st.data())
def test_rotation_lattice_equals_fractions(data):
    lattice_matches_fractions("rotation", data)


@PROPERTY
@given(data=st.data())
def test_tent_lattice_equals_fractions(data):
    lattice_matches_fractions("tent", data)


@PROPERTY
@given(data=st.data())
def test_spiral_lattice_equals_fractions(data):
    lattice_matches_fractions("spiral", data)


@PROPERTY
@given(data=st.data())
def test_pwl_lattice_equals_fractions(data):
    lattice_matches_fractions("pwl", data)


@PROPERTY
@given(data=st.data())
def test_circle_pwl_lattice_equals_fractions(data):
    lattice_matches_fractions("circle-pwl", data)


@PROPERTY
@given(data=st.data())
def test_pwl_flip_lattice_equals_fractions(data):
    lattice_matches_fractions("pwl-flip", data)


@PROPERTY
@given(data=st.data())
def test_interval_flip_lattice_equals_fractions(data):
    lattice_matches_fractions("interval-flip", data)


@pytest.mark.parametrize("d", [F(1, 3), F(3, 4)])
@pytest.mark.parametrize("seed", [3, 5])
def test_a_one_piece_interval_walk_carries_its_constant_across_truncations(
        seed, d):
    """x -> 1 - x/2 from 0, whose image is [1/2, 1]: at d = 1/3 a draw
    around f(y) > 2/3 is truncated at 1, and at d = 3/4 every draw is,
    those around f(y) < 3/4 at 0 too (that span is the whole interval, so
    it keeps the scale). A step grows the scale by the slope's 2, and a
    truncated one by a power of two besides; the walk carries the map's
    constant across both, and the chain, sets, witness and re-check are
    the references'."""
    system = SYSTEMS["interval-flip"]
    traj = generate(system, (F(0),), d, 40, trial_stream(seed))
    scales = traj.scaled.scales
    growth = [b // a for a, b in zip(scales, scales[1:])]
    assert all(a * g == b for a, b, g in zip(scales, scales[1:], growth))
    assert all(g % 2 == 0 and g & (g - 1) == 0 for g in growth)
    assert any(g > 2 for g in growth)
    chain_matches(system, seed, 40, d, F(1, 20), (F(0),))


@pytest.mark.parametrize("name", ["spiral", "spiral-2/3"])
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 60),
       d=st.sampled_from(STEP_BOUNDS), eps=st.sampled_from(TOLERANCES),
       r0=st.fractions(F(1, 2), F(3, 2), max_denominator=1000),
       theta0=st.fractions(0, 1, max_denominator=1000))
# starts on the band's outer edge r0 = 1 + w; at d = 1/3 the radial draws
# are truncated at the band, and a truncated draw grows the scale by a
# power of two besides the slope's denominator
@example(seed=3, n=60, d=F(1, 7), eps=F(1, 20), r0=F(3, 2), theta0=F(0))
@example(seed=3, n=60, d=F(1, 7), eps=F(3, 5), r0=F(3, 2), theta0=F(1, 2))
@example(seed=3, n=60, d=F(1, 3), eps=F(3, 5), r0=F(3, 2), theta0=F(0))
@example(seed=5, n=60, d=F(1, 3), eps=F(1, 20), r0=F(3, 2), theta0=F(0))
def test_spirals_from_the_band_edge_match_fractions(name, seed, n, d, eps, r0,
                                                    theta0):
    """The walk carries r, the half-width and the arc's draw step across
    every change of scale, and the spiral's step clips its radial segment
    and its arcs inline; on both spirals the chain, sets, witness and
    re-check are the references'."""
    chain_matches(SYSTEMS[name], seed, n, d, eps, (r0, theta0 % 1))


@pytest.mark.parametrize("seed", [3, 5])
def test_truncated_spiral_draws_grow_the_scale_by_a_power_of_two(seed):
    """The band-edge examples above reach the truncated draws: from r0 =
    3/2 at d = 1/3 the scale of the lambda = 2/3 spiral grows by 3 at
    every step and by 3 * 2**j, 0 < j <= 53, at some."""
    traj = generate(SYSTEMS["spiral-2/3"], (F(3, 2), F(0)), F(1, 3), 60,
                    trial_stream(seed))
    scales = traj.scaled.scales
    growth = [b // a for a, b in zip(scales, scales[1:])]
    assert all(a * g == b for a, b, g in zip(scales, scales[1:], growth))
    powers = [g // 3 for g in growth]
    assert all(g % 3 == 0 and p & (p - 1) == 0 and p <= 2 ** 53
               for g, p in zip(growth, powers))
    assert any(p > 1 for p in powers)


def test_a_step_of_half_a_turn_or_more_draws_a_uniform_angle():
    """d >= 1/2 makes every angular draw the whole circle, k / 2**53, as
    the ``Fraction`` chain draws it; on the annulus the radial draw is
    truncated to the band at every step."""
    for name in ("doubling", "rotation", "spiral"):
        system = SYSTEMS[name]
        y0 = (F(7, 5), F(0)) if name == "spiral" else (F(3, 10),)
        for d in (F(1, 2), F(3, 4)):
            traj = generate(system, y0, d, 20, trial_stream(5))
            assert traj.points == reference_chain(system, y0, d, 20,
                                                  trial_stream(5)), (name, d)


def test_empty_tails_match_the_full_walk():
    """Propagation stops at the first empty set; the sets it returns must
    still be the reference's, which steps image_set and intersect over the
    whole horizon."""
    for name in ("tent", "spiral", "pwl"):
        system = SYSTEMS[name]
        y0 = (F(7, 5), F(0)) if name == "spiral" else (F(3, 10),)
        traj = generate(system, y0, F(1, 7), 40, trial_stream(3))
        sets = shadow_set_forward(system, traj, F(1, 200))
        ref = reference_sets(system, traj.points, F(1, 200))
        assert len(sets) == 41
        assert sets[5].is_empty(), name
        assert [s.fragments for s in sets] == [s.fragments for s in ref]


def test_saturated_sets_give_exact_witnesses():
    """eps >= 1/2 makes the shadow sets the whole circle or interval, one
    fragment (0, unit); the witness pulled back from its midpoint stays
    exact."""
    for name in ("doubling", "tent", "spiral"):
        system = SYSTEMS[name]
        y0 = (F(13, 10), F(1, 2)) if name == "spiral" else (F(1, 3),)
        traj = generate(system, y0, F(1, 10), 12, trial_stream(416))
        verdict = decide_shadowable(system, traj, F(3, 5))
        ref = reference_sets(system, traj.points, F(3, 5))
        assert verdict.verdict.value == "Yes"
        assert all(type(c) is F for c in verdict.witness), name
        assert verdict.witness == reference_witness(system, ref, 12)
        assert all(type(c) is F for c in pick_point(ref[12])), name


def primes_above(low, count):
    out = []
    k = low
    while len(out) < count:
        k += 1
        if all(k % p for p in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


def denominator(values) -> int:
    return math.lcm(*(F(v).denominator for v in values))


@pytest.mark.parametrize("spec", ["doubling", "pwl:0:5/2,2/5:5/3",
                                  "pwl:0:-2", "pwl:0:3,1/2:-1"])
def test_hostile_denominators_keep_the_scale_down(tmp_path, spec):
    """Points k/p_n with a different prime p_n at each step: the kernel
    reduces each set once per step, so its unit stays within the lcm of the
    denominators that the previous set and the new ball carry, instead of
    collecting every prime seen so far. The witness is pulled back through
    sets whose units do not divide its scale, on doubling and on circle
    maps of two pieces, of a negative slope and of a decreasing piece."""
    system = parse_system(spec)
    eps = F(1, 20)
    n = 60
    sampled = generate(system, (F(3, 10),), F(1, 50), n, trial_stream(11))
    hostile = tuple((F(round(y[0] * p), p) % 1,)
                    for y, p in zip(sampled.points, primes_above(1000, n + 1)))
    save_trajectory(Pseudotrajectory(hostile, F(1, 40), Provenance("loaded")),
                    spec, tmp_path / "hostile")
    traj, _ = load_trajectory(tmp_path / "hostile")
    assert traj.points == hostile

    verdict = decide_shadowable(system, traj, eps)
    ref = reference_sets(system, hostile, eps)
    assert verdict.verdict.value == "Yes"
    assert verdict.witness == reference_witness(system, ref, n)

    sets = shadow_set_forward(system, traj, eps)
    assert [s.fragments for s in sets] == [s.fragments for s in ref]
    for k in range(1, n + 1):
        previous = denominator(v for f in ref[k - 1].fragments for v in f)
        ball = denominator(ball_set(system.space, hostile[k], eps).fragments[0])
        assert math.lcm(previous, ball) % sets[k].unit == 0, k


def test_loaded_points_nest_their_scales(tmp_path):
    """A stored doubling trajectory's points keep the previous point's scale
    whenever their reduced denominator divides it, so the map's integer
    tables stay valid from step to step."""
    traj = generate(doubling(), (F(3, 10),), F(1, 50), 200, trial_stream(7))
    save_trajectory(traj, "doubling", tmp_path / "stored")
    loaded, _ = load_trajectory(tmp_path / "stored")
    scales = loaded.scaled.scales
    assert tuple(loaded.scaled) == traj.points
    assert len(set(scales)) <= 3
    assert max(scales) == max(p[0].denominator for p in traj.points)
