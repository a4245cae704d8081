"""Acceptance suite: the shipped quantitative targets, one criterion per test.

Each test prints a PASS line on success; pytest -v names give the same
per-criterion report. Tolerances are pinned here and nowhere else.
"""

import filecmp
import time
from fractions import Fraction as F

from scipy.stats import binomtest, chisquare
import numpy as np

from shadowing import (ExperimentConfig, annulus_spiral, circle,
                       decide_shadowable, delta_for_inclusion, doubling,
                       estimate_probability, eta, generate, interval,
                       nonshadow_lower_bound, rotation, rotation_first_failure,
                       run_attractor_experiment, run_dichotomy_experiment,
                       trial_stream)
from shadowing.bounds import attractor_quantities
from shadowing.pseudotraj import Provenance

from grid_oracle import brute_force_oracle
from reference import (dist, exact_orbit, in_absorbing_band, orbit,
                       sample_uniform_ball, tube_probability_bound, validate)

ROT = rotation(F(610, 987))
DBL = doubling()
SPIRAL = annulus_spiral(F(1, 2), F(610, 987), F(1, 2))

CFG_DOUBLING = ExperimentConfig(
    system_spec="doubling", y0=(F(3, 10),), d=F(1, 50), eps=F(1, 20),
    horizons=(200,), trials=200, seed=42)

CFG_ROTATION = ExperimentConfig(
    system_spec="rotation:alpha=610/987", y0=(F(0),), d=F(1, 50),
    eps=F(1, 20), horizons=(10, 50, 200, 500), trials=400, seed=43)


def test_criterion_1_dichotomy_branch_shadowing():
    # doubling, d=0.02, eps=0.05, N=200, 200 trials: all certified Yes with
    # witnesses re-checked directly against the orbit, in under 2 minutes
    start = time.monotonic()
    result = estimate_probability(CFG_DOUBLING)
    stat = result.horizon_stats[0]
    assert stat.decided == 200 and stat.unknown == 0
    assert stat.shadowable == 200
    assert stat.p_hat == 1.0
    for trial in range(200):
        traj = generate(DBL, CFG_DOUBLING.y0, CFG_DOUBLING.d, 200,
                        trial_stream(42, trial), Provenance("random", 42, trial))
        verdict = decide_shadowable(DBL, traj, CFG_DOUBLING.eps)
        assert verdict.verdict.value == "Yes"
        pts = orbit(DBL, verdict.witness, 200)
        assert all(dist(DBL.space, p, y) <= CFG_DOUBLING.eps
                   for p, y in zip(pts, traj.points))
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\nPASS criterion 1: 200/200 doubling trials certified Yes, "
          f"witnesses re-checked exactly ({elapsed:.1f}s)")


def test_criterion_2_dichotomy_branch_nonshadowing():
    # rotation 610/987: p_hat nonincreasing, p_hat(500) <= 0.05, and the
    # certified verdict agrees with the closed-form oracle on every trial
    result = estimate_probability(CFG_ROTATION)
    ps = {s.horizon: s.p_hat for s in result.horizon_stats}
    assert ps[10] >= ps[50] >= ps[200] >= ps[500]
    assert ps[500] <= 0.05
    assert all(s.unknown == 0 for s in result.horizon_stats)
    for outcome in result.trial_outcomes:
        traj = generate(ROT, CFG_ROTATION.y0, CFG_ROTATION.d, 500,
                        trial_stream(43, outcome.trial))
        assert rotation_first_failure(ROT, traj, CFG_ROTATION.eps) \
            == outcome.first_empty
    print(f"\nPASS criterion 2: rotation decay "
          f"{[ps[h] for h in (10, 50, 200, 500)]}, oracle agreement 400/400")


def test_criterion_3_oracle_equivalence():
    # 50 rotation + 50 doubling trajectories, N <= 20: certified verdict vs
    # grid oracle at resolution 1e-5, slack-zone cases reported not counted
    res = F(1, 10 ** 5)
    unexplained = 0
    slack_zone = 0
    cases = [(ROT, (F(0),), 43_000), (DBL, (F(3, 10),), 44_000)]
    for system, y0, seed_base in cases:
        for trial in range(50):
            rng = trial_stream(seed_base, trial)
            n = 5 + next(rng) % 16
            traj = generate(system, y0, F(1, 50), n, rng)
            certified = decide_shadowable(system, traj, F(1, 20))
            grid = brute_force_oracle(system, traj, F(1, 20), res)
            if certified.verdict.value == "Yes":
                if not grid.found:
                    unexplained += 1
            else:
                if grid.strict:
                    unexplained += 1
                elif grid.found:
                    slack_zone += 1
    assert unexplained == 0
    print(f"\nPASS criterion 3: 100 trajectories, zero unexplained "
          f"disagreements ({slack_zone} slack-zone cases reported)")


def test_criterion_4_tube_probability_bound():
    # rotation, d=0.1, delta=0.025, tube length 3, 1e5 trials
    d = F(1, 10)
    delta = delta_for_inclusion(ROT, d)
    assert delta == F(1, 40)
    length, trials = 3, 100_000
    anchor = exact_orbit(ROT, (F(0),), length)
    hits = 0
    for t in range(trials):
        traj = generate(ROT, (F(0),), d, length, trial_stream(45, t))
        if all(dist(ROT.space, z, p) < delta
               for z, p in zip(traj.points[1:], anchor.points[1:])):
            hits += 1
    # stated numeric floor 0.001; one-sided binomial non-rejection at 0.001
    assert binomtest(hits, trials, 0.001, alternative="less").pvalue >= 0.001
    # the sharp bound eta^3 with eta = mu(B(delta))/mu(B(d)) = 1/4 also holds
    sharp = tube_probability_bound(eta(circle(), delta, d), length)
    assert sharp == F(1, 64)
    assert binomtest(hits, trials, float(sharp),
                     alternative="less").pvalue >= 0.001
    p_hat = hits / trials
    assert abs(p_hat - 0.015625) < 0.002  # point estimate near (delta/d)^3
    print(f"\nPASS criterion 4: tube frequency {p_hat:.4f} >= 0.001, "
          f"near (delta/d)^3 = 0.015625")


def test_criterion_5_eta_closed_form_and_bracket():
    assert eta(circle(), F(1, 100), F(1, 10)) == F(1, 10)
    assert eta(interval(), F(1, 100), F(1, 10)) == F(1, 20)
    print("\nPASS criterion 5: circle eta = 1/10 and interval eta = 1/20, "
          "both exact")


def test_criterion_6_block_bound_arithmetic():
    value = nonshadow_lower_bound(F(1, 2), 2, 3)
    assert value == F(37, 64)
    assert float(value) == 0.578125
    sweep = [nonshadow_lower_bound(F(1, 2), 2, k) for k in range(100)]
    assert all(b >= a for a, b in zip(sweep, sweep[1:]))
    k99 = next(k for k in range(1, 100)
               if nonshadow_lower_bound(F(1, 2), 2, k) >= F(99, 100))
    assert k99 == 17
    print(f"\nPASS criterion 6: bound(1/2, 2, 3) = 37/64 exactly, "
          f"monotone over 100-point sweep, >= 0.99 at k = {k99}")


def test_criterion_7_attractor_mechanism(tmp_path):
    q = attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)))
    assert q.rho == F(1, 20)
    assert q.n0 == 4
    assert q.d0 == F(9, 400)
    assert q.settle_s is not None and q.settle_s > 0
    config = ExperimentConfig(
        system_spec="annulus:lambda=1/2,alpha=610/987,w=0.5",
        y0=(F(7, 5), F(0)), d=q.d0 / 2, eps=F(1, 5),
        horizons=(100, 300, 1000), trials=200, seed=44)
    # every trial point from step n0 on must lie in the band, else the run
    # aborts with an invariant failure
    report = run_attractor_experiment(config, out=tmp_path)
    curve = {row["horizon"]: row["p_hat"] for row in
             report["result"]["horizons"]}
    assert curve[1000] <= 0.05
    for trial in range(0, 200, 10):  # visible spot re-check of containment
        traj = generate(SPIRAL, config.y0, config.d, 1000,
                        trial_stream(44, trial))
        assert all(in_absorbing_band(p, q.rho) for p in traj.points[q.n0:])
    print(f"\nPASS criterion 7: rho=1/20, n0=4, d0=9/400, S={q.settle_s}; "
          f"zero band violations; p_hat(1000) = {curve[1000]:.3f} <= 0.05 "
          f"at eps0 = 1/20")


def test_criterion_8_generator_contract():
    for system, y0 in [(DBL, (F(3, 10),)), (ROT, (F(0),)),
                       (SPIRAL, (F(7, 5), F(0)))]:
        traj = generate(system, y0, F(1, 50), 10_000, trial_stream(46))
        assert validate(system, traj.points, traj.d)
    sp = circle()
    rng = trial_stream(47)
    xs = [float(sample_uniform_ball(sp, (F(1, 2),), F(1, 10), rng)[0])
          for _ in range(10_000)]
    counts = np.histogram(xs, bins=10, range=(0.4, 0.6))[0]
    pvalue = chisquare(counts).pvalue
    assert counts.sum() == 10_000
    assert pvalue > 0.001
    print(f"\nPASS criterion 8: 10^4-step trajectories validate exactly for "
          f"all three systems; in-ball sampling chi-square p = {pvalue:.3f}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    run_dichotomy_experiment(CFG_DOUBLING, CFG_ROTATION, out=out_a)
    run_dichotomy_experiment(CFG_DOUBLING, CFG_ROTATION, out=out_b)
    rel = ["report.json",
           "shadowing/summary.json", "shadowing/curve.csv",
           "nonshadowing/summary.json", "nonshadowing/curve.csv",
           "shadowing/trials.csv", "nonshadowing/trials.csv"]
    for name in rel:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    match, mismatch, errors = filecmp.cmpfiles(
        out_a, out_b, rel, shallow=False)
    assert not mismatch and not errors
    print("\nPASS criterion 9: dichotomy reruns byte-identical across "
          f"{len(rel)} output files")
