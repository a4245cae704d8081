"""The streaming trial kernel against the whole-trajectory decision.

``experiment._run_trial`` samples a trajectory only while its shadow set
lives. The annulus band check reads the same walk's exact points from the
entry step on: an exact step moves the radius by at most lam |r - 1| + d,
so a band with lam * rho + d <= rho holds every point after one inside it
and the check stops there. The references here sample every point with
``generate`` and decide with ``decide_horizons``, as ``check`` does.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from shadowing import (ExperimentConfig, InvariantViolation,
                       attractor_quantities, decide_horizons, enclosure,
                       experiment, generate, parse_system, trial_stream)
from shadowing.errors import DomainError, EnclosureCapError
from shadowing.experiment import TrialOutcome, _run_trial
from shadowing.pseudotraj import LatticeWalk
from shadowing.spaces import Space

from test_lattice import PROPERTY, SYSTEMS

STARTS = {
    "doubling": ((F(3, 10),), F(1, 50)),
    "rotation": ((F(0),), F(1, 50)),
    "tent": ((F(1, 3),), F(1, 50)),
    "spiral": ((F(7, 5), F(0)), F(9, 800)),
    "pwl": ((F(1, 2),), F(1, 50)),
    "circle-pwl": ((F(3, 10),), F(1, 50)),
}

SPIRAL_SPEC = "annulus:lambda=1/2,alpha=610/987,w=0.5"


def config(name, eps, horizons, seed=11, trials=1):
    y0, d = STARTS[name]
    return ExperimentConfig(system_spec=name, y0=y0, d=d, eps=eps,
                            horizons=horizons, trials=trials, seed=seed)


def whole_trajectory_outcome(system, cfg, trial):
    """The trial decided on every point up to the largest horizon."""
    traj = generate(system, cfg.y0, cfg.d, cfg.max_horizon,
                    trial_stream(cfg.seed, trial))
    try:
        found = decide_horizons(system, traj, cfg.eps, cfg.horizons)
    except EnclosureCapError as exc:
        return TrialOutcome(trial, None, ("Unknown",) * len(cfg.horizons),
                            error=str(exc))
    return TrialOutcome(trial, found.first_empty,
                        tuple(v.value for v in found.verdicts))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_streamed_trials_equal_whole_trajectory_decisions(name):
    system = SYSTEMS[name]
    seen_no = seen_yes = False
    for eps in (F(1, 200), F(1, 20), F(1, 4)):
        for horizons in ((), (0,), (5, 40), (10, 50, 120)):
            cfg = config(name, eps, horizons)
            for trial in range(3):
                got = _run_trial(system, cfg, trial)
                assert got == whole_trajectory_outcome(system, cfg, trial)
                seen_no |= "No" in got.verdicts
                seen_yes |= "Yes" in got.verdicts
    # eps = 1/200 empties the sets early on every system
    assert seen_no and seen_yes


def test_streamed_cap_errors_equal_whole_trajectory(monkeypatch):
    monkeypatch.setattr(enclosure, "DEFAULT_FRAGMENT_CAP", 0)
    cfg = config("rotation", F(1, 20), (10, 50))
    got = _run_trial(SYSTEMS["rotation"], cfg, 0)
    assert got.error and got.verdicts == ("Unknown", "Unknown")
    assert got == whole_trajectory_outcome(SYSTEMS["rotation"], cfg, 0)


def count_samples(monkeypatch):
    calls = []
    original = Space.sample_scaled

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(Space, "sample_scaled", counting)
    return calls


def test_a_no_trial_samples_only_to_its_first_empty_step(monkeypatch):
    cfg = ExperimentConfig(system_spec="rotation:alpha=610/987", y0=(F(0),),
                           d=F(1, 50), eps=F(1, 20),
                           horizons=(10, 50, 200, 500), trials=1, seed=43)
    calls = count_samples(monkeypatch)
    out = _run_trial(cfg.system, cfg, 0)
    assert out.first_empty is not None and out.first_empty < 500
    assert len(calls) == out.first_empty


def test_an_all_yes_trial_samples_every_step(monkeypatch):
    cfg = ExperimentConfig(system_spec="doubling", y0=(F(3, 10),),
                           d=F(1, 50), eps=F(1, 20), horizons=(200,),
                           trials=1, seed=42)
    calls = count_samples(monkeypatch)
    out = _run_trial(cfg.system, cfg, 0)
    assert out.verdicts == ("Yes",)
    assert len(calls) == 200


# -- the annulus band check ---------------------------------------------------

BANDS = {
    # the shipped spiral; a non-dyadic contraction; a contraction whose
    # d, w and y0 are dyadic; a band narrower than d, where every step is
    # truncated at one edge or at both
    "shipped": (SPIRAL_SPEC, (F(7, 5), F(0)), F(9, 800)),
    "lambda=2/3": ("annulus:lambda=2/3,alpha=610/987,w=0.5",
                   (F(7, 5), F(0)), F(3, 400)),
    "lambda=1/3": ("annulus:lambda=1/3,alpha=610/987,w=0.5",
                   (F(5, 4), F(0)), F(1, 128)),
    "narrow": ("annulus:lambda=1/2,alpha=610/987,w=1/100", (F(1), F(0)),
               F(9, 800)),
}


def radial_gaps(pts):
    """|r - 1| at every point of a trajectory's ``scaled``."""
    return [abs(F(y[0] - s, s)) for y, s in zip(pts.nums, pts.scales)]


@PROPERTY
@given(p=st.integers(1, 38), q=st.integers(2, 39), w=st.integers(1, 99),
       eps=st.integers(1, 999), share=st.integers(1, 999))
def test_every_accepted_noise_level_closes_the_band(p, q, w, eps, share):
    """lam * rho + d <= rho at d = d0 itself, so at every d < d0 that
    ``attractor_quantities`` accepts; it rejects d0."""
    lam, w, eps = F(min(p, q - 1), q), F(w, 100), F(eps, 1000)
    system = parse_system(f"annulus:lambda={lam},alpha=610/987,w={w}")
    d0 = attractor_quantities(system, eps, (F(1), F(0))).d0
    with pytest.raises(DomainError):
        attractor_quantities(system, eps, (F(1), F(0)), d=d0)
    q = attractor_quantities(system, eps, (F(1), F(0)), d=d0 * share / 1000)
    assert lam * q.rho + d0 <= q.rho
    assert lam * q.rho + q.d <= q.rho


@pytest.mark.parametrize("name", sorted(BANDS))
def test_an_exact_step_moves_the_radius_by_at_most_lam_gap_plus_d(name):
    """|r' - 1| <= lam |r - 1| + d at every step of ``generate``, truncated
    or not."""
    spec, y0, d = BANDS[name]
    system = parse_system(spec)
    for trial in range(2):
        gaps = radial_gaps(generate(system, y0, d, 1000,
                                    trial_stream(44, trial)).scaled)
        for gap, nxt in zip(gaps, gaps[1:]):
            assert nxt <= system.lam * gap + d


def test_a_closed_band_keeps_every_exact_step_inside():
    """A band with lam * rho + d <= rho, once an exact point is in it,
    holds every later point of ``generate``. Every band but the narrow
    annulus's is entered from outside; there every closed band is the
    whole annulus."""
    for name, (spec, y0, d) in BANDS.items():
        system = parse_system(spec)
        tight = d / (1 - system.lam)
        for trial in range(2):
            gaps = radial_gaps(generate(system, y0, d, 1000,
                                        trial_stream(44, trial)).scaled)
            for rho in (tight, tight * 5 / 4, tight * 2):
                assert system.lam * rho + d <= rho
                entry = next(n for n, gap in enumerate(gaps) if gap <= rho)
                assert all(gap <= rho for gap in gaps[entry:])
                assert name == "narrow" or entry > 0


def radius_after_one_step(system, d, gap, k):
    """|r - 1| one exact step past the radius 1 + gap, for the radial draw
    k."""
    _, (y, s) = LatticeWalk(system, (1 + gap, F(0)), d, 1, iter([k, 0]))
    return abs(F(y[0] - s, s))


def test_weaker_closure_tests_admit_escapes():
    """Dropping d from the closure test, lam * rho <= rho, claims bands
    that an exact step leaves: from the band's edge at the largest draws,
    and in the late-violation trial, whose entry point lies in its band."""
    rng = random.Random(18)
    closed = escaped = 0
    for _ in range(150):
        q = rng.randint(2, 40)
        lam = F(rng.randint(1, q - 1), q)
        w = F(rng.randint(1, 100), 100)
        rho = w * F(rng.randint(1, 99), 100)
        d = F(rng.randint(1, 999), 10 ** rng.randint(2, 4))
        system = parse_system(f"annulus:lambda={lam},alpha=610/987,w={w}")
        assert lam * rho <= rho
        gaps = [radius_after_one_step(system, d, x, k)
                for x in (-rho, rho) for k in (0, 2 ** 53 - 1)]
        if lam * rho + d <= rho:
            closed += 1
            assert max(gaps) <= rho
        else:
            escaped += max(gaps) > rho
    assert closed and escaped
    system, cfg, (rho, n0), message = late_violation_case()
    assert system.lam * rho + cfg.d > rho
    assert f" at step {n0} " not in message  # taken[n0] lies in the band
    with pytest.raises(InvariantViolation) as info:
        _run_trial(system, cfg, 0, (rho, n0))
    assert str(info.value) == message


def band_message(system, cfg, trial, rho, n0):
    """The first band violation from step n0 on, found on every point."""
    pts = generate(system, cfg.y0, cfg.d, cfg.max_horizon,
                   trial_stream(cfg.seed, trial)).scaled
    for n in range(n0, len(pts)):
        r, s = pts.nums[n][0], pts.scales[n]
        if abs(r - s) * rho.denominator > rho.numerator * s:
            r, theta = pts[n]
            return (f"trial {trial}: point ({r}, {theta}) at step {n} "
                    f"escaped the absorbing band of half-width {rho} "
                    f"(entry step {n0})")
    return None


LATE_CONFIG = ExperimentConfig(system_spec=SPIRAL_SPEC, y0=(F(7, 5), F(0)),
                               d=F(9, 800), eps=F(1, 200),
                               horizons=(100, 300, 1000), trials=1, seed=44)


def band_gaps(system, cfg, n0):
    """|r - 1| of trial 0 at every step from n0 on."""
    pts = generate(system, cfg.y0, cfg.d, cfg.max_horizon,
                   trial_stream(cfg.seed, 0)).scaled
    return radial_gaps(pts)[n0:]


def late_violation_case():
    """A band that only the farthest radius from step 700 on leaves: one
    violation, well after the first empty step."""
    system, cfg, n0 = SYSTEMS["spiral"], LATE_CONFIG, 700
    gaps = band_gaps(system, cfg, n0)
    widest, second = sorted(set(gaps))[:-3:-1]
    rho = (widest + second) / 2
    step = n0 + gaps.index(widest)
    message = band_message(system, cfg, 0, rho, n0)
    assert f" at step {step} " in message
    assert band_message(system, cfg, 0, rho, step + 1) is None
    assert whole_trajectory_outcome(system, cfg, 0).first_empty < n0
    return system, cfg, (rho, n0), message


def test_band_violation_after_the_first_empty_step_raises():
    system, cfg, band, message = late_violation_case()
    with pytest.raises(InvariantViolation) as info:
        _run_trial(system, cfg, 0, band)
    assert str(info.value) == message


def test_band_violation_after_a_cap_error_raises(monkeypatch):
    system, cfg, band, message = late_violation_case()
    monkeypatch.setattr(enclosure, "DEFAULT_FRAGMENT_CAP", 0)
    with pytest.raises(InvariantViolation) as info:
        _run_trial(system, cfg, 0, band)
    assert str(info.value) == message


def test_shipped_attractor_trials_stay_in_their_band():
    system = SYSTEMS["spiral"]
    q = attractor_quantities(system, F(1, 5), (F(7, 5), F(0)), d=F(9, 800))
    cfg = ExperimentConfig(system_spec=SPIRAL_SPEC, y0=(F(7, 5), F(0)),
                           d=F(9, 800), eps=q.eps0,
                           horizons=(100, 300, 1000), trials=4, seed=44)
    for trial in range(4):
        assert band_message(system, cfg, trial, q.rho, q.n0) is None
        got = _run_trial(system, cfg, trial, (q.rho, q.n0))
        assert got == whole_trajectory_outcome(system, cfg, trial)


def test_the_band_is_checked_from_its_entry_step_on():
    system, cfg, (rho, n0), _ = late_violation_case()
    gaps = band_gaps(system, cfg, n0)
    step = n0 + gaps.index(max(gaps))
    with pytest.raises(InvariantViolation) as info:
        _run_trial(system, cfg, 0, (rho, step))
    assert str(info.value) == band_message(system, cfg, 0, rho, step)
    got = _run_trial(system, cfg, 0, (rho, step + 1))
    assert got == whole_trajectory_outcome(system, cfg, 0)


def test_a_band_met_with_equality_is_confirmed_exactly(monkeypatch):
    """rho equal to the widest gap from n0 on: a band that is not closed,
    read to the largest horizon, whose widest radius lies on its edge."""
    system, cfg, n0 = SYSTEMS["spiral"], LATE_CONFIG, 700
    rho = max(band_gaps(system, cfg, n0))
    assert system.lam * rho + cfg.d > rho
    assert band_message(system, cfg, 0, rho, n0) is None
    calls = count_samples(monkeypatch)
    got = _run_trial(system, cfg, 0, (rho, n0))
    assert len(calls) == cfg.max_horizon
    assert got == whole_trajectory_outcome(system, cfg, 0)


# -- how far a band check samples ----------------------------------------------

def test_shipped_attractor_trials_need_no_exact_scan(monkeypatch):
    """The shipped run's band is closed and entered before the first empty
    step: a trial checks the one point taken[n0] that it already holds,
    samples no point beyond its shadow sets and never calls ``generate``."""
    system = SYSTEMS["spiral"]
    q = attractor_quantities(system, F(1, 5), (F(7, 5), F(0)))
    cfg = ExperimentConfig(system_spec=SPIRAL_SPEC, y0=(F(7, 5), F(0)),
                           d=q.d, eps=q.eps0, horizons=(100, 300, 1000),
                           trials=4, seed=44)
    assert system.lam * q.rho + q.d <= q.rho
    monkeypatch.setattr(experiment, "generate", None)
    calls = count_samples(monkeypatch)
    for trial in range(4):
        calls.clear()
        got = _run_trial(system, cfg, trial, (q.rho, q.n0))
        assert q.n0 < got.first_empty < cfg.max_horizon
        assert len(calls) == got.first_empty


def count_band_reads(monkeypatch):
    reads = []
    original = experiment._outside_band

    def counting(taken, n, rho):
        reads.append(n)
        return original(taken, n, rho)

    monkeypatch.setattr(experiment, "_outside_band", counting)
    return reads


def test_a_shipped_trial_reads_one_tail_enclosure(monkeypatch):
    """The tail past the entry step is the walk's exact points: a closed
    band reads only the point at n0 and none of the later ones."""
    system = SYSTEMS["spiral"]
    q = attractor_quantities(system, F(1, 5), (F(7, 5), F(0)))
    cfg = ExperimentConfig(system_spec=SPIRAL_SPEC, y0=(F(7, 5), F(0)),
                           d=q.d, eps=q.eps0, horizons=(100, 300, 1000),
                           trials=4, seed=44)
    reads = count_band_reads(monkeypatch)
    for trial in range(4):
        reads.clear()
        got = _run_trial(system, cfg, trial, (q.rho, q.n0))
        assert q.n0 < got.first_empty < cfg.max_horizon
        assert reads == [q.n0]


def test_a_closed_band_past_the_first_empty_step_samples_to_its_entry(
        monkeypatch):
    system, cfg, n0 = SYSTEMS["spiral"], LATE_CONFIG, 700
    rho = F(1, 20)
    assert system.lam * rho + cfg.d <= rho
    calls = count_samples(monkeypatch)
    got = _run_trial(system, cfg, 0, (rho, n0))
    assert got.first_empty < n0
    assert len(calls) == n0
    assert got == whole_trajectory_outcome(system, cfg, 0)


def test_a_band_that_is_not_closed_is_read_to_its_end(monkeypatch):
    """rho = 1/50 holds every radius from step 700 on but is not closed
    (lam * rho + d > rho at d = 9/800): the walk is sampled to the largest
    horizon. The late-violation band is sampled up to its violation."""
    system, cfg, (rho, n0), message = late_violation_case()
    gaps = band_gaps(system, cfg, n0)
    step = n0 + gaps.index(max(gaps))
    calls = count_samples(monkeypatch)
    assert system.lam * F(1, 50) + cfg.d > F(1, 50)
    _run_trial(system, cfg, 0, (F(1, 50), n0))
    assert len(calls) == cfg.max_horizon
    calls.clear()
    with pytest.raises(InvariantViolation) as info:
        _run_trial(system, cfg, 0, (rho, n0))
    assert str(info.value) == message
    assert len(calls) == step


def test_a_walk_reads_n_times_ndim_draws_of_an_endless_stream():
    """A trial stream never ends. A walk stopped anywhere and resumed on
    the same iterator reads 2 draws per sampled step, n * ndim in all,
    gives the points of ``generate`` and then stops without a further
    read."""
    system, (y0, d) = SYSTEMS["spiral"], STARTS["spiral"]
    whole = generate(system, y0, d, 1000, trial_stream(44)).scaled
    for stop in (0, 1, 37, 1000):
        read = []

        def counted(stream):
            for k in stream:
                read.append(k)
                yield k

        walk = LatticeWalk(system, y0, d, 1000, counted(trial_stream(44)))
        steps = iter(walk)
        for _ in zip(range(stop + 1), steps):
            pass
        assert len(read) == 2 * stop
        assert len(list(steps)) == 1000 - stop
        assert next(steps, None) is None
        assert len(read) == 1000 * system.space.ndim
        assert walk.taken.nums == whole.nums
        assert walk.taken.scales == whole.scales
