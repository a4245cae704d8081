"""Generator contract, splicing and the drift witness."""

import csv
import random
from fractions import Fraction as F
from itertools import islice

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from shadowing import (DomainError, SearchFailure, UsageError,
                       decide_shadowable, doubling, generate, load_trajectory,
                       rotation, save_trajectory, trial_stream,
                       worst_case_pseudotrajectory)
from shadowing import annulus_spiral, tent
from shadowing.pseudotraj import Provenance, Pseudotrajectory
from shadowing.spaces import ScaledPoints

from reference import (dist, exact_orbit, prefix, random_point,
                       rotation_oracle, signed_circ_diff, splice, validate)

ROT = rotation(F(610, 987))
DBL = doubling()


def test_zero_horizon_is_single_point():
    traj = generate(ROT, (F(1, 3),), F(1, 50), 0, trial_stream(1))
    assert traj.points == ((F(1, 3),),)


def test_generated_steps_stay_within_bound():
    traj = generate(ROT, (F(0),), F(1, 50), 100, trial_stream(2))
    alpha = ROT.alpha
    for a, b in zip(traj.points, traj.points[1:]):
        assert dist(ROT.space, b, ((a[0] + alpha) % 1,)) <= F(1, 50)
    assert validate(ROT, traj.points, F(1, 50))


@pytest.mark.parametrize("system", [
    DBL, ROT, annulus_spiral(F(1, 2), F(610, 987), F(1, 2))],
    ids=["doubling", "rotation", "spiral"])
def test_validates_at_own_bound_exactly(system):
    traj = generate(system, random_point(system.space, trial_stream(3)),
                    F(1, 50), 2000, trial_stream(4))
    assert validate(system, traj.points, traj.d)


def test_validate_rejects_oversized_step():
    d = F(1, 50)
    pts = [(F(0),), ((ROT.alpha + 2 * d) % 1,)]
    assert not validate(ROT, pts, d)
    assert validate(ROT, pts, 2 * d)


def test_exact_orbit_validates_at_any_bound():
    traj = exact_orbit(DBL, (F(1, 7),), 50)
    assert validate(DBL, traj.points, F(1, 10 ** 9))
    assert traj.d == 0


def test_prefix_property_of_streams():
    long = generate(ROT, (F(0),), F(1, 50), 60, trial_stream(42, 7))
    short = generate(ROT, (F(0),), F(1, 50), 25, trial_stream(42, 7))
    assert long.points[:26] == short.points
    assert prefix(long, 25).points == short.points


def test_trials_are_independent_streams():
    t0 = generate(ROT, (F(0),), F(1, 50), 10, trial_stream(42, 0))
    t1 = generate(ROT, (F(0),), F(1, 50), 10, trial_stream(42, 1))
    assert t0.points != t1.points
    again = generate(ROT, (F(0),), F(1, 50), 10, trial_stream(42, 1))
    assert again.points == t1.points


def test_trial_streams_are_numpys_streams_bit_for_bit():
    # numpy's default_rng(SeedSequence(seed, spawn_key=(trial,))).random()
    # draws k / 2**53. The seeds give one to five words of run entropy,
    # 2**128 + 5 more than the pool holds; the trials one or two spawn
    # words. Master seeds come as A, B, A, so a stale seeding memo fails.
    draws = 10_000
    rnd = random.Random(2014)
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 128 + 5] \
        + [rnd.getrandbits(70) for _ in range(3)]
    trials = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3]
    for a, b in zip(seeds, seeds[1:]):
        for seed in (a, b, a):
            for trial in trials:
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(trial,)))
                want = (rng.random(draws) * 2 ** 53).astype(np.int64)
                got = list(islice(trial_stream(seed, trial), draws))
                assert got == want.tolist(), (seed, trial)


@pytest.mark.parametrize("seed,trial", [(-1, 0), (0, -1), (-2 ** 70, 3)])
def test_negative_seeds_and_trials_are_refused(seed, trial):
    with pytest.raises(DomainError):
        trial_stream(seed, trial)


def test_step_deviations_uniform_chi_square():
    # signed deviations from the map image are uniform on [-d, d)
    d = F(1, 50)
    traj = generate(DBL, (F(1, 3),), d, 10_000, trial_stream(5))
    devs = [float(signed_circ_diff(b[0], DBL.apply(a)[0]))
            for a, b in zip(traj.points, traj.points[1:])]
    counts = np.histogram(devs, bins=10, range=(-float(d), float(d)))[0]
    assert counts.sum() == 10_000
    assert chisquare(counts).pvalue > 0.001


def test_step_distribution_depends_only_on_current_point():
    # Markov property: step from the same current point after different
    # histories (different seeds and consumed randomness); the next-step
    # deviation histograms must be indistinguishable
    d = F(1, 50)
    y_star = (F(2, 7),)
    image = ROT.apply(y_star)[0]
    devs = {3: [], 9: []}
    for warmup, bucket in devs.items():
        for trial in range(400):
            rng = trial_stream(600 + warmup, trial)
            generate(ROT, (F(0),), d, warmup, rng)  # history, then restart
            step = generate(ROT, y_star, d, 1, rng)
            bucket.append(float(signed_circ_diff(step.points[1][0], image)))
    table = [np.histogram(v, bins=8, range=(-float(d), float(d)))[0]
             for v in devs.values()]
    assert chi2_contingency(np.array(table)).pvalue > 0.001


# -- splice ---------------------------------------------------------------

def test_splice_degenerate_equals_tail():
    tail = generate(ROT, (F(1, 5),), F(1, 100), 10, trial_stream(7))
    out = splice(ROT, (F(1, 5),), (F(1, 5),), tail, F(1, 20))
    assert out.points == tail.points
    assert out.d == 2 * tail.d
    assert out.provenance.kind == "spliced"


def test_splice_validates_at_doubled_tail_bound():
    delta1 = F(1, 20)
    d = 8 * delta1
    rng = trial_stream(8)
    for _ in range(100):
        z0 = random_point(ROT.space, rng)
        p0 = random_point(ROT.space, rng)
        tail = generate(ROT, p0, d / 2, 5, rng)
        out = splice(ROT, (F(0),), z0, tail, delta1)
        assert validate(ROT, out.points, d)
        assert out.points[-6:] == tail.points


def test_splice_junction_inequalities():
    delta1 = F(1, 200)
    z0, p0 = (F(17, 100),), (F(83, 100),)
    tail = generate(ROT, p0, F(1, 100), 3, trial_stream(9))
    out = splice(ROT, (F(0),), z0, tail, delta1)
    seg_len = out.horizon - tail.horizon
    orbit_pts = [(k * ROT.alpha % 1,) for k in range(2000)]
    n1 = next(i for i, p in enumerate(orbit_pts)
              if dist(ROT.space, z0, p) < 2 * delta1)
    n2 = next(i for i, p in enumerate(orbit_pts)
              if i >= n1 and dist(ROT.space, p0, p) < 2 * delta1)
    assert seg_len == n2 - n1
    assert dist(ROT.space, z0, orbit_pts[n1]) < 2 * delta1
    assert dist(ROT.space, p0, orbit_pts[n2]) < 2 * delta1


def test_splice_reports_unreachable_ball():
    quarter = rotation(F(1, 4))  # orbit of 0 visits only 4 points
    tail = exact_orbit(quarter, (F(1, 8),), 2)
    tail = Pseudotrajectory(tail.points, F(1, 100), Provenance("exact_orbit"))
    with pytest.raises(SearchFailure) as err:
        splice(quarter, (F(0),), (F(1, 8),), tail, F(1, 100), horizon=50)
    assert err.value.target == (F(1, 8),)
    assert err.value.radius == F(1, 50)
    assert "1/50-ball around (1/8) within 50 steps" in str(err.value)


# -- the drift witness -------------------------------------------------------

def test_worst_case_horizon_and_bound():
    wc = worst_case_pseudotrajectory(ROT, F(1, 50), F(1, 20))
    assert wc.horizon == 11  # ceil(4 eps / d) + 1
    assert wc.d == F(1, 100)
    assert validate(ROT, wc.points, F(1, 100))
    assert not validate(ROT, wc.points, F(1, 101))


def test_worst_case_total_drift_exceeds_twice_eps():
    d, eps = F(1, 50), F(1, 20)
    wc = worst_case_pseudotrajectory(ROT, d, eps)
    assert wc.horizon * d / 2 > 2 * eps
    assert not rotation_oracle(ROT, wc, eps)
    assert decide_shadowable(ROT, wc, eps).verdict.value == "No"


def test_worst_case_rejects_invalid_inputs():
    with pytest.raises(DomainError):
        worst_case_pseudotrajectory(ROT, F(1, 50), F(1, 4))
    with pytest.raises(UsageError):
        worst_case_pseudotrajectory(DBL, F(1, 50), F(1, 20))


@pytest.mark.parametrize("system,y0,eps", [
    (DBL, (F(3, 10),), F(1, 20)),
    (ROT, (F(0),), F(1, 20)),
    (annulus_spiral(F(1, 2), F(610, 987), F(1, 2)), (F(7, 5), F(0)), F(1, 5)),
], ids=["doubling", "rotation", "spiral"])
def test_fraction_built_trajectory_equals_the_generated_one(system, y0, eps):
    """A trajectory built from Fraction points holds them as ScaledPoints,
    as ``generate``'s does: the two agree on every reading."""
    sampled = generate(system, y0, F(1, 50), 300, trial_stream(5))
    built = Pseudotrajectory(sampled.points, sampled.d, sampled.provenance)
    assert built == sampled
    assert built.points == sampled.points
    assert built.horizon == sampled.horizon == 300
    for m in (0, 1, 37, 300):
        assert prefix(built, m).points == prefix(sampled, m).points
        assert prefix(built, m).horizon == m
    assert decide_shadowable(system, built, eps).to_json() == \
        decide_shadowable(system, sampled, eps).to_json()


# -- serialization -------------------------------------------------------------

def test_trajectory_round_trip(tmp_path):
    traj = generate(ROT, (F(0),), F(1, 50), 12, trial_stream(11, 3),
                    Provenance("random", 11, 3))
    base = tmp_path / "traj"
    save_trajectory(traj, "rotation:alpha=610/987", base)
    loaded, spec = load_trajectory(base)
    assert spec == "rotation:alpha=610/987"
    assert loaded.points == traj.points
    assert loaded.d == traj.d
    header = (base.with_suffix(".csv")).read_text().splitlines()[0]
    assert header == "n,coord0"


def test_worst_case_round_trip_keeps_verdict(tmp_path):
    wc = worst_case_pseudotrajectory(ROT, F(1, 50), F(1, 20))
    base = tmp_path / "wc"
    save_trajectory(wc, "rotation:alpha=610/987", base)
    loaded, _ = load_trajectory(base)
    assert loaded.points == wc.points and loaded.d == wc.d
    assert decide_shadowable(ROT, loaded, F(1, 20)).verdict.value == "No"
    assert not rotation_oracle(ROT, loaded, F(1, 20))


def fraction_loaded(base) -> ScaledPoints:
    """The stored points as ``Fraction(token)`` coordinates, over the
    nested scales of ``ScaledPoints.from_points``."""
    with open(base.with_suffix(".csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    ncoords = len(rows[0]) - 1
    return ScaledPoints.from_points(
        tuple(F(c) for c in row[1:1 + ncoords]) for row in rows[1:])


@pytest.mark.parametrize("name", ["doubling", "rotation", "tent", "annulus"])
def test_loaded_points_equal_fraction_parsing(tmp_path, name):
    system, spec, y0 = {
        "doubling": (DBL, "doubling", (F(3, 10),)),
        "rotation": (ROT, "rotation:alpha=610/987", (F(0),)),
        "tent": (tent(F(3, 2)), "tent:s=3/2", (F(1, 3),)),
        "annulus": (annulus_spiral(F(1, 2), F(610, 987), F(1, 2)),
                    "annulus:lambda=1/2,alpha=610/987,w=0.5",
                    (F(7, 5), F(0))),
    }[name]
    traj = generate(system, y0, F(1, 50), 200, trial_stream(13))
    base = tmp_path / name
    save_trajectory(traj, spec, base)
    loaded, _ = load_trajectory(base)
    ref = fraction_loaded(base)
    assert loaded.scaled.nums == ref.nums
    assert loaded.scaled.scales == ref.scales
    assert loaded.points == tuple(ref) == traj.points


def test_loader_parses_other_tokens_as_fractions(tmp_path):
    base = tmp_path / "hand"
    base.with_suffix(".json").write_text(
        '{"system": "doubling", "d": "1/50"}')
    base.with_suffix(".csv").write_text(
        "n,coord0\n0,2/4\n1,0.5\n2,-0\n3, 3/7\n4,1_000/3\n5,6/14\n")
    loaded, _ = load_trajectory(base)
    ref = fraction_loaded(base)
    assert loaded.scaled.nums == ref.nums
    assert loaded.scaled.scales == ref.scales
    assert loaded.points == tuple(ref)


@pytest.mark.parametrize("token, error", [("1/0", ZeroDivisionError),
                                          ("3 /4", ValueError),
                                          ("", ValueError)])
def test_loader_rejects_what_fraction_rejects(tmp_path, token, error):
    base = tmp_path / "bad"
    base.with_suffix(".json").write_text(
        '{"system": "doubling", "d": "1/50"}')
    base.with_suffix(".csv").write_text(f"n,coord0\n0,1/3\n1,{token}\n")
    with pytest.raises(error) as got:
        load_trajectory(base)
    with pytest.raises(error) as expected:
        F(token)
    assert str(got.value) == str(expected.value)


def test_annulus_trajectory_round_trip(tmp_path):
    spiral = annulus_spiral(F(1, 2), F(610, 987), F(1, 2))
    traj = generate(spiral, (F(7, 5), F(0)), F(1, 100), 5, trial_stream(12))
    base = tmp_path / "ann"
    save_trajectory(traj, "annulus:lambda=1/2,alpha=610/987,w=0.5", base)
    loaded, _ = load_trajectory(base)
    assert loaded.points == traj.points
    header = (base.with_suffix(".csv")).read_text().splitlines()[0]
    assert header == "n,coord0,coord1"
