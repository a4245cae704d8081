"""The integer-lattice kernel against references that step by hand.

``generate``, ``shadow_set_forward``, ``pull_back_witness`` and
``orbit_tracks`` run on integers over a common denominator, each step
fused. The references here take the steps one at a time: the ``Fraction``
sampler and map of ``tests/reference.py``, one draw at a time, for the
chain; the public ``apply_set`` and ``intersect`` for the shadow sets;
the ``Fraction`` ``pick_point`` and ``preimages`` of ``tests/reference.py``
with ``contains`` for the pull-back.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from shadowing import (annulus_spiral, ball_set, decide_shadowable, doubling,
                       generate, intersect, load_trajectory, orbit_tracks,
                       pwl, rotation, save_trajectory, shadow_set_forward,
                       tent, trial_stream)
from shadowing.pseudotraj import Provenance, Pseudotrajectory
from shadowing.shadowcheck import pull_back_witness

from reference import apply, pick_point, preimages, sample_uniform_ball

SYSTEMS = {
    "doubling": doubling(),
    "rotation": rotation(F(610, 987)),
    "tent": tent(F(3, 2)),
    "spiral": annulus_spiral(F(1, 2), F(610, 987), F(1, 2)),
    # negative and non-integer slopes, breakpoints off the dyadic grid
    "pwl": pwl([(0, F(3, 2)), (F(1, 3), F(-3, 4)), (F(2, 3), F(3, 2))],
               space_kind="interval"),
    # a degree-2 circle map with two non-integer slopes: its preimages
    # come from both pieces and from several windings
    "circle-pwl": pwl([(0, F(5, 2)), (F(2, 5), F(5, 3))]),
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
                    intersect(system.apply_set(current),
                              ball_set(space, y, eps)))
    return sets


def reference_witness(system, sets, m):
    x = pick_point(sets[m])
    for n in range(m - 1, -1, -1):
        x = next(p for p in preimages(system, x) if sets[n].contains(p))
    return x


def start_point(system, data):
    space = system.space
    x = data.draw(st.fractions(0, 1, max_denominator=1000), label="x0")
    if space.kind == "annulus":
        r = data.draw(st.fractions(1 - space.w, 1 + space.w,
                                   max_denominator=1000), label="r0")
        return (r, x % 1)
    return (x % 1,) if space.kind == "circle" else (x,)


def lattice_matches_fractions(name, data):
    system = SYSTEMS[name]
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    n = data.draw(st.integers(0, 60), label="n")
    d = data.draw(st.sampled_from([F(1, 50), F(3, 200), F(1, 7), F(9, 800)]),
                  label="d")
    # 1/200 against d = 1/7 empties most sets within a few steps, so the
    # shortened propagation meets reference_sets' walk over the empty tail
    eps = data.draw(st.sampled_from([F(1, 20), F(1, 30), F(2, 21), F(3, 5),
                                     F(1, 200)]), label="eps")
    y0 = start_point(system, data)

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


def test_empty_tails_match_the_full_walk():
    """Propagation stops at the first empty set; the sets it returns must
    still be the reference's, which steps apply_set and intersect over the
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


def test_hostile_denominators_keep_the_scale_down(tmp_path):
    """Points k/p_n with a different prime p_n at each step: the kernel
    reduces each set once per step, so its unit stays within the lcm of the
    denominators that the previous set and the new ball carry, instead of
    collecting every prime seen so far."""
    system = doubling()
    eps = F(1, 20)
    n = 60
    sampled = generate(system, (F(3, 10),), F(1, 50), n, trial_stream(11))
    hostile = tuple((F(round(y[0] * p), p) % 1,)
                    for y, p in zip(sampled.points, primes_above(1000, n + 1)))
    save_trajectory(Pseudotrajectory(hostile, F(1, 40), Provenance("loaded")),
                    "doubling", tmp_path / "hostile")
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
