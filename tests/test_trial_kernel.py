"""The streaming trial kernel against the whole-trajectory decision.

``experiment._run_trial`` samples a trajectory only while its shadow set
lives and carries the annulus band check on with an integer enclosure of
the radial chain alone, confirmed exactly before a violation is reported.
The references here sample every point with ``generate`` and decide with
``decide_horizons``, as ``check`` does.
"""

import random
from fractions import Fraction as F
from itertools import islice

import pytest

from shadowing import (ExperimentConfig, InvariantViolation,
                       attractor_quantities, decide_horizons, enclosure,
                       experiment, generate, parse_system, trial_stream)
from shadowing.errors import EnclosureCapError
from shadowing.experiment import TrialOutcome, _run_trial
from shadowing.pseudotraj import TAIL_BITS, LatticeWalk
from shadowing.spaces import Space

from test_lattice import SYSTEMS

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

ENCLOSED = {
    # the shipped spiral; a non-dyadic contraction; a band narrower than
    # d, where every step is truncated at one edge or at both
    "shipped": (SPIRAL_SPEC, (F(7, 5), F(0)), F(9, 800)),
    "lambda=2/3": ("annulus:lambda=2/3,alpha=610/987,w=0.5",
                   (F(7, 5), F(0)), F(3, 400)),
    "narrow": ("annulus:lambda=1/2,alpha=610/987,w=1/100", (F(1), F(0)),
               F(9, 800)),
    # d, w and y0 dyadic: only lam * x is rounded, so the interval is tight
    "lambda=1/3": ("annulus:lambda=1/3,alpha=610/987,w=0.5",
                   (F(5, 4), F(0)), F(1, 128)),
}


@pytest.mark.parametrize("name", sorted(ENCLOSED))
def test_tail_enclosures_hold_the_exact_radii(name):
    spec, y0, d = ENCLOSED[name]
    system = parse_system(spec)
    for trial in range(2):
        traj = generate(system, y0, d, 1000, trial_stream(44, trial)).scaled
        for stop in (0, 1, 37, 500, 999, 1000):
            walk = LatticeWalk(system, y0, d, 1000, trial_stream(44, trial))
            for n, (y, s) in zip(range(stop + 1), walk):
                assert (y, s) == (traj.nums[n], traj.scales[n])
            tail = list(walk.radius_enclosures())
            assert len(tail) == 1000 - stop
            for n, (lo, hi) in enumerate(tail, stop + 1):
                r, s = traj.nums[n][0], traj.scales[n]
                # lo <= (r/s - 1) * 2**TAIL_BITS <= hi, and a tight interval
                assert lo * s <= (r - s) << TAIL_BITS <= hi * s
                assert hi - lo <= 16


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
    return [abs(F(pts.nums[n][0] - pts.scales[n], pts.scales[n]))
            for n in range(n0, len(pts))]


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


def count_exact_scans(monkeypatch):
    calls = []
    original = experiment.generate

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(experiment, "generate", counting)
    return calls


def test_a_band_met_with_equality_is_confirmed_exactly(monkeypatch):
    """rho equal to the widest gap from n0 on: the enclosure cannot show
    that radius inside the closed band, the exact scan finds no escape."""
    system, cfg, n0 = SYSTEMS["spiral"], LATE_CONFIG, 700
    rho = max(band_gaps(system, cfg, n0))
    assert band_message(system, cfg, 0, rho, n0) is None
    scans = count_exact_scans(monkeypatch)
    got = _run_trial(system, cfg, 0, (rho, n0))
    assert len(scans) == 1
    assert got == whole_trajectory_outcome(system, cfg, 0)


def test_shipped_attractor_trials_need_no_exact_scan(monkeypatch):
    system = SYSTEMS["spiral"]
    q = attractor_quantities(system, F(1, 5), (F(7, 5), F(0)))
    cfg = ExperimentConfig(system_spec=SPIRAL_SPEC, y0=(F(7, 5), F(0)),
                           d=q.d0 / 2, eps=q.eps0,
                           horizons=(100, 300, 1000), trials=4, seed=44)
    scans = count_exact_scans(monkeypatch)
    for trial in range(4):
        _run_trial(system, cfg, trial, (q.rho, q.n0))
    assert scans == []


# -- closing the band tail by induction ----------------------------------------

def step_from(system, d, m, k):
    """The tail enclosure one step past the radius 1 + m / 2**TAIL_BITS,
    which the walk holds as lo = hi = m, for the radial draw k."""
    walk = LatticeWalk(system, (1 + F(m, 2 ** TAIL_BITS), F(0)), d, 1,
                       iter([k, 0]))
    (lo, hi), = walk.radius_enclosures()
    return lo, hi


def closure_cases():
    """(system, d, bound) at random contractions, widths, noise levels and
    bands rho <= w, and one built so that ceil(p*B/q) + d_hi is B + 1
    while floor(p*B/q) + d_hi is B."""
    rng = random.Random(15)
    for _ in range(150):
        q = rng.randint(2, 40)
        lam = F(rng.randint(1, q - 1), q)
        w = F(rng.randint(1, 100), 100)
        rho = w * F(rng.randint(1, 100), 100)
        d = F(rng.randint(1, 999), 10 ** rng.randint(2, 6))
        system = parse_system(f"annulus:lambda={lam},alpha=610/987,w={w}")
        yield system, d, (rho.numerator << TAIL_BITS) // rho.denominator
    # d * 2**64 = 2**44 exactly and B = 2**45 - 1: hi = B steps to B + 1
    # at the largest draw, which the floor would admit
    yield parse_system(SPIRAL_SPEC), F(1, 2 ** 20), 2 ** 45 - 1


def escapes(system, d, bound):
    """Whether one step from an enclosure in [-B, B] leaves it, for ends
    and random points of the band and draws 0, 2**53 - 1 and random ones."""
    rng = random.Random(bound)
    starts = (-bound, -bound + 1, 0, bound - 1, bound,
              rng.randint(-bound, bound))
    draws = (0, 1, 2 ** 52, 2 ** 53 - 1, rng.randrange(2 ** 53))
    for m in starts:
        for k in draws:
            lo, hi = step_from(system, d, m, k)
            if lo < -bound or hi > bound:
                return True
    return False


def closes(system, d, bound):
    return LatticeWalk(system, (F(1), F(0)), d, 0, iter(())).band_closed(bound)


def test_a_closed_band_keeps_every_enclosure_step_inside():
    closed = [closes(*case) for case in closure_cases()]
    for case, is_closed in zip(closure_cases(), closed):
        if is_closed:
            assert not escapes(*case)
    assert any(closed) and not all(closed)


def test_weaker_closure_tests_admit_escapes():
    """Dropping d_hi or rounding p*B/q down claims bands that a step
    leaves: the brute force catches both."""
    no_noise = dropped_ceiling = 0
    for system, d, bound in closure_cases():
        if closes(system, d, bound) or not escapes(system, d, bound):
            continue
        p, q = system.lam.as_integer_ratio()
        d_hi = -(-(d.numerator << TAIL_BITS) // d.denominator)
        no_noise += -(-p * bound // q) <= bound
        dropped_ceiling += p * bound // q + d_hi <= bound
    assert no_noise and dropped_ceiling


def count_tail_reads(monkeypatch):
    reads = []
    original = LatticeWalk.radius_enclosures

    def counting(self):
        for pair in original(self):
            reads.append(pair)
            yield pair

    monkeypatch.setattr(LatticeWalk, "radius_enclosures", counting)
    return reads


def test_a_shipped_trial_reads_one_tail_enclosure(monkeypatch):
    system = SYSTEMS["spiral"]
    q = attractor_quantities(system, F(1, 5), (F(7, 5), F(0)))
    cfg = ExperimentConfig(system_spec=SPIRAL_SPEC, y0=(F(7, 5), F(0)),
                           d=q.d, eps=q.eps0, horizons=(100, 300, 1000),
                           trials=4, seed=44)
    reads = count_tail_reads(monkeypatch)
    for trial in range(4):
        reads.clear()
        got = _run_trial(system, cfg, trial, (q.rho, q.n0))
        assert q.n0 < got.first_empty < cfg.max_horizon
        assert len(reads) == 1


def test_a_band_that_is_not_closed_is_read_to_its_end(monkeypatch):
    """rho = 1/50 holds every radius from step 700 on but is not closed
    (ceil(B/2) + d_hi > B at d = 9/800): the tail is read to the largest
    horizon. The late-violation band is read up to its violation."""
    system, cfg, (rho, n0), message = late_violation_case()
    reads = count_tail_reads(monkeypatch)
    assert not closes(system, cfg.d, (1 << TAIL_BITS) // 50)
    first_empty = _run_trial(system, cfg, 0, (F(1, 50), n0)).first_empty
    assert len(reads) == cfg.max_horizon - first_empty
    reads.clear()
    gaps = band_gaps(system, cfg, n0)
    step = n0 + gaps.index(max(gaps))
    with pytest.raises(InvariantViolation) as info:
        _run_trial(system, cfg, 0, (rho, n0))
    assert str(info.value) == message
    assert len(reads) == step - first_empty


def test_a_walk_reads_n_times_ndim_draws_of_an_endless_stream():
    """A trial stream never ends and rho = 1/100 < 2d is not closed under
    the tail's step, so the tail is read to the horizon: n + 1 - len(taken)
    enclosures, and n * ndim draws in all, wherever the walk stopped."""
    system, (y0, d) = SYSTEMS["spiral"], STARTS["spiral"]
    bound = (1 << TAIL_BITS) // 100
    for stop in (0, 1, 37, 1000):
        read = []

        def counted(stream):
            for k in stream:
                read.append(k)
                yield k

        walk = LatticeWalk(system, y0, d, 1000, counted(trial_stream(44)))
        for _ in zip(range(stop + 1), walk):
            pass
        assert len(read) == 2 * stop
        assert not walk.band_closed(bound)
        # islice: an unbounded tail fails the count instead of hanging
        tail = list(islice(walk.radius_enclosures(), 1001))
        assert len(tail) == 1000 + 1 - len(walk.taken) == 1000 - stop
        assert len(read) == 1000 * system.space.ndim
