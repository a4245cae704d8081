"""Constructive quantities: inclusion radius, eta, cover times, block bounds,
absorbing-band data."""

import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.stats import binomtest

from shadowing import (DomainError, SearchFailure, UsageError, annulus,
                       annulus_spiral, attractor_quantities, bounds, circle,
                       cover_time, delta_for_inclusion, doubling, eta,
                       generate, interval, nonshadow_lower_bound,
                       parse_system, rotation, tent, trial_stream)
from shadowing.bounds import _first_missed_center
from shadowing.cli import main
from shadowing.enclosure import ball_set

from reference import (ball_measure, dist, epsilon_net, exact_orbit,
                       first_missed_center_by_scan, grid_centers,
                       in_absorbing_band, lattice_apply, make, random_point,
                       sample_uniform_ball, tube_probability_bound)

ROT = rotation(F(610, 987))
DBL = doubling()
SPIRAL = annulus_spiral(F(1, 2), F(610, 987), F(1, 2))
LAM, ALPHA, W = F(1, 2), F(610, 987), F(1, 2)  # SPIRAL's parameters


# -- inclusion radius --------------------------------------------------------

def test_delta_closed_forms():
    assert delta_for_inclusion(ROT, F(1, 10)) == F(1, 40)
    assert delta_for_inclusion(DBL, F(3, 50)) == F(1, 100)
    assert delta_for_inclusion(SPIRAL, F(1, 10)) == F(1, 40)


def _probe_arrays(system, d, n, seed):
    """Vectorized probes: x random, z in B(delta, x), y in B(d/2, f(x));
    returns dist(y, f(z)) as floats."""
    delta = float(delta_for_inclusion(system, d))
    rng = np.random.default_rng(seed)
    if system.space.kind == "annulus":
        w, lam, alpha = float(W), float(LAM), float(ALPHA)

        def apply(r, t):
            return 1 + lam * (r - 1), (t + alpha) % 1.0

        xr = 1 - w + 2 * w * rng.random(n)
        xt = rng.random(n)
        zr = np.clip(xr + rng.uniform(-delta, delta, n), 1 - w, 1 + w)
        zt = (xt + rng.uniform(-delta, delta, n)) % 1.0
        fxr, fxt = apply(xr, xt)
        yr = np.clip(fxr + rng.uniform(-float(d) / 2, float(d) / 2, n),
                     1 - w, 1 + w)
        yt = (fxt + rng.uniform(-float(d) / 2, float(d) / 2, n)) % 1.0
        fzr, fzt = apply(zr, zt)
        tt = np.abs((yt - fzt) % 1.0)
        return np.maximum(np.abs(yr - fzr), np.minimum(tt, 1.0 - tt))
    from grid_oracle import _apply_array
    if system.space.kind == "circle":
        x = rng.random(n)
        z = (x + rng.uniform(-delta, delta, n)) % 1.0
    else:
        x = rng.random(n)
        z = np.clip(x + rng.uniform(-delta, delta, n), 0.0, 1.0)
    fx = _apply_array(system, x)
    if system.space.kind == "circle":
        y = (fx + rng.uniform(-float(d) / 2, float(d) / 2, n)) % 1.0
    else:
        y = np.clip(fx + rng.uniform(-float(d) / 2, float(d) / 2, n), 0.0, 1.0)
    fz = _apply_array(system, z)
    if system.space.kind == "circle":
        t = np.abs((y - fz) % 1.0)
        return np.minimum(t, 1.0 - t)
    return np.abs(y - fz)


@pytest.mark.parametrize("system,d", [
    (ROT, F(1, 10)), (DBL, F(3, 50)), (SPIRAL, F(1, 10))],
    ids=["rotation", "doubling", "spiral"])
def test_delta_inclusion_probe_oracle(system, d):
    # ball inclusion B(delta, y) in B(d, f(z)) reduces to dist + delta <= d
    delta = delta_for_inclusion(system, d)
    dists = _probe_arrays(system, d, 10_000, 501)
    assert (dists + float(delta) <= float(d) + 1e-12).all()


@pytest.mark.parametrize("system,d", [
    (ROT, F(1, 10)), (DBL, F(3, 50)), (SPIRAL, F(1, 10))],
    ids=["rotation", "doubling", "spiral"])
def test_delta_inclusion_probe_oracle_exact(system, d):
    # smaller exact-arithmetic probe confirms the closed inequality
    space = system.space
    delta = delta_for_inclusion(system, d)
    rng = trial_stream(501)
    for _ in range(500):
        x = random_point(space, rng)
        z = sample_uniform_ball(space, x, delta, rng)
        y = sample_uniform_ball(space, lattice_apply(system, x), d / 2, rng)
        assert dist(space, y, lattice_apply(system, z)) + delta <= d


# -- eta -----------------------------------------------------------------------

def test_eta_circle_closed_form():
    assert eta(circle(), F(1, 100), F(1, 10)) == F(1, 10)
    assert eta(circle(), F(1, 10), F(1, 10)) == 1


def test_eta_interval_bracket_contains_analytic_value():
    # end ball: delta; largest: 2d
    assert eta(interval(), F(1, 100), F(1, 10)) == F(1, 20)


def test_eta_annulus_bracket_contains_analytic_value():
    # corner ball: radial delta, angular 2*delta; largest: radial 2d by 2d
    analytic = (F(1, 100) * F(2, 100)) / (F(2, 10) * F(2, 10))
    assert eta(annulus(F(1, 2)), F(1, 100), F(1, 10)) == analytic


def net_bracket(space, delta, d, h):
    """The ratio's inf and sup bracketed over the epsilon-net at radius h:
    net centers bound it from above, radii shrunk or grown by h from
    below."""
    centers = grid_centers(space, h)
    inf_hi = min(ball_measure(space, c, delta) for c in centers)
    sup_lo = max(ball_measure(space, c, d) for c in centers)
    inf_lo = min(ball_measure(space, c, delta - h) for c in centers)
    sup_hi = max(ball_measure(space, c, d + h) for c in centers)
    return inf_lo / sup_hi, inf_hi / sup_lo


ETA_CASES = {  # space, delta, d, net radius
    "interval": (interval(), F(1, 100), F(1, 10), F(1, 500)),
    "interval-wide": (interval(), F(1, 10), F(3, 5), F(1, 50)),
    "interval-delta=d": (interval(), F(3, 5), F(3, 5), F(1, 50)),
    "w=1/100-delta=w": (annulus(F(1, 100)), F(1, 100), F(1, 20), F(1, 500)),
    "w=1/100-delta>2w": (annulus(F(1, 100)), F(1, 20), F(1, 10), F(1, 100)),
    "w=1/10": (annulus(F(1, 10)), F(1, 20), F(1, 10), F(1, 100)),
    "w=1/10-delta>2w-d>=1/2": (annulus(F(1, 10)), F(3, 10), F(1, 2),
                               F(1, 50)),
    "w=1/2": (annulus(F(1, 2)), F(1, 20), F(1, 10), F(1, 100)),
    "w=1/2-d>=1/2": (annulus(F(1, 2)), F(1, 4), F(3, 5), F(1, 50)),
    "w=1/2-delta>1/2": (annulus(F(1, 2)), F(3, 5), F(7, 10), F(1, 50)),
}


@pytest.mark.parametrize("case", ETA_CASES)
def test_eta_closed_form_lies_in_the_net_bracket(case):
    space, delta, d, h = ETA_CASES[case]
    lo, hi = net_bracket(space, delta, d, h)
    assert lo <= eta(space, delta, d) <= hi


def test_eta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        eta(circle(), F(0), F(1, 10))
    with pytest.raises(DomainError):
        eta(circle(), F(1, 5), F(1, 10))


# -- tube probability ------------------------------------------------------------

def test_tube_bound_arithmetic():
    assert tube_probability_bound(F(1, 10), 3) == F(1, 1000)
    assert tube_probability_bound(F(1, 2), 0) == 1
    with pytest.raises(DomainError):
        tube_probability_bound(F(0), 2)


def _tube_frequency_vectorized(alpha, d, delta, length, trials, seed):
    """Independent float simulation of the rotation kernel tube event."""
    rng = np.random.default_rng(seed)
    z = np.zeros(trials)
    p = np.zeros(trials)
    stay = np.ones(trials, dtype=bool)
    for _ in range(length):
        z = z + alpha + rng.uniform(-d, d, trials)
        p = p + alpha
        t = np.abs((z - p) % 1.0)
        stay &= np.minimum(t, 1.0 - t) < delta
    return stay.sum()


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_tube_frequency_beats_bound_vectorized(length):
    d, delta = F(1, 10), delta_for_inclusion(ROT, F(1, 10))
    bound = tube_probability_bound(eta(circle(), delta, d), length)
    trials = 100_000
    hits = _tube_frequency_vectorized(float(ROT.alpha), float(d),
                                      float(delta), length, trials, 502)
    # one-sided binomial test: do not reject "frequency >= bound" at 0.001
    assert binomtest(int(hits), trials, float(bound),
                     alternative="less").pvalue >= 0.001


def test_tube_frequency_with_real_generator():
    d = F(1, 10)
    delta = delta_for_inclusion(ROT, d)
    length, trials = 3, 20_000
    anchor = exact_orbit(ROT, (F(0),), length)
    hits = 0
    for t in range(trials):
        traj = generate(ROT, (F(0),), d, length, trial_stream(503, t))
        if all(dist(ROT.space, z, p) < delta
               for z, p in zip(traj.points[1:], anchor.points[1:])):
            hits += 1
    bound = tube_probability_bound(eta(circle(), delta, d), length)
    assert binomtest(hits, trials, float(bound),
                     alternative="less").pvalue >= 0.001
    # point estimate near (delta/d)^3 = 1/64
    assert abs(hits / trials - (0.25) ** 3) < 0.005


# -- cover time --------------------------------------------------------------------

def _enumerate_cover(system, r, delta1, budget=100):
    """Independent direct enumeration of the first all-balls-visited time."""
    space = system.space
    centers = epsilon_net(space, delta1)
    pts = exact_orbit(system, r, budget).points
    pending = set(range(len(centers)))
    for n, p in enumerate(pts):
        pending -= {i for i in pending if dist(space, p, centers[i]) < delta1}
        if not pending:
            return n
    return None


def test_cover_time_period_four_rotation():
    quarter = rotation(F(1, 4))
    # radius 1/4: each net ball is entered exactly when its center is hit,
    # so the period-4 orbit needs 3 steps per pass and k = 3 + 3 + 1
    cov = cover_time(quarter, (F(0),), F(1, 4))
    assert cov == (3, 3, 7)
    assert _enumerate_cover(quarter, (F(0),), F(1, 4)) == 3
    # radius 3/10: the same four balls overlap neighboring orbit points,
    # direct enumeration gives the earlier time 1 per pass
    cov = cover_time(quarter, (F(0),), F(3, 10))
    assert cov == (1, 1, 3)
    assert _enumerate_cover(quarter, (F(0),), F(3, 10)) == 1


def test_cover_time_dense_rotation_with_rescan():
    delta1 = F(1, 20)
    cov = cover_time(ROT, (F(0),), delta1, horizon=5000)
    assert cov.k == cov.k1 + cov.k2 + 1
    centers = epsilon_net(ROT.space, delta1)
    pts = exact_orbit(ROT, (F(0),), cov.k1).points
    for c in centers:
        assert any(dist(ROT.space, p, c) < delta1 for p in pts)


def test_cover_time_failure_names_unvisited_ball():
    with pytest.raises(SearchFailure) as err:
        cover_time(DBL, (F(1, 3),), F(1, 10), horizon=200)
    assert err.value.target == (F(0),)
    assert err.value.horizon == 200
    assert "around net center (0) within 200 steps" in str(err.value)


def test_cover_time_refuses_a_net_ball_outside_the_image(capsys):
    # the tent s = 3/2 maps [0, 1] onto [0, 3/4]; the orbit of 0.3 can
    # never enter the net balls above 3/4 + delta1, and the search used to
    # scan all 10**6 steps in Fractions whose denominators double per step
    tent_map = tent(F(3, 2))
    start = time.perf_counter()
    with pytest.raises(SearchFailure) as err:
        cover_time(tent_map, (F(3, 10),), F(1, 1000))
    assert time.perf_counter() - start < 1
    assert err.value.target == (F(1503, 2000),)
    assert err.value.horizon == 0
    assert F(3, 4) + F(1, 1000) < err.value.target[0]
    start = time.perf_counter()
    assert main(["bounds", "--system", "tent:s=3/2", "--d", "0.02",
                 "--y0", "0.3"]) == 2
    assert time.perf_counter() - start < 1
    assert "around net center (1503/2000)" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "tent:s=3/2",  # image [0, 3/4]
    "tent:s=5/4",  # image [0, 5/8]
    # image [1/4, 1/2]: balls missed below and above it
    "pwl:0:1/2,1/2:-1/2,v0=1/4,space=interval",
    # image the arc [0, 1/2]
    "pwl:0:1,1/2:-1",
    # image the arc [7/10, 1 + 1/5]: it wraps past 0
    "pwl:0:1,1/2:-1,v0=7/10",
    "rotation:alpha=610/987",  # onto
])
def test_first_missed_center_matches_the_scan_of_every_center(spec):
    system = parse_system(spec)
    space = system.space
    image = system.apply_set(ball_set(space, (F(0),), space.diameter))
    # at 1/6 (tents), 1/8 and 1/10 (arcs) a center lies exactly delta1
    # from an end of the image: its closed ball meets the image
    radii = [F(1, 1000), F(1, 100), F(3, 40), F(1, 6), F(1, 7), F(1, 8),
             F(1, 10), F(1, 4), F(3, 8), F(1, 2)]
    rng = np.random.default_rng(5)
    radii += [F(int(a), int(b)) for a, b in
              zip(rng.integers(1, 20, 12), rng.integers(21, 300, 12))]
    missed = []
    for delta1 in radii:
        n = space.net_size(delta1)
        found = _first_missed_center(image, delta1, n)
        assert found == first_missed_center_by_scan(image, delta1), delta1
        missed.append(found)
    if spec.startswith("rotation"):  # onto: every ball meets the image
        assert set(missed) == {None}
    else:  # some radii miss a ball and some do not
        assert None in missed and set(missed) != {None}


@pytest.mark.parametrize("space", [circle(), interval()],
                         ids=["circle", "interval"])
def test_first_missed_center_merges_runs_that_touch(space):
    # hand-made images of two to four fragments on a grid of a quarter
    # of the net spacing, so that the runs of centers their closed balls
    # meet often touch (one run ends where the next begins) and often
    # start past center 0
    rng = np.random.default_rng(23)
    touching = late = 0
    for _ in range(300):
        n = int(rng.integers(3, 25))
        delta1, q = F(1, n), 4 * n
        frags = []
        for _ in range(int(rng.integers(2, 5))):
            lo, size = int(rng.integers(0, q)), int(rng.integers(0, n))
            frags.append((F(lo, q), F(size, q)) if space.kind == "circle"
                         else (F(lo, q), F(min(lo + size, q), q)))
        image = make(space, frags)
        found = _first_missed_center(image, delta1, n)
        assert found == first_missed_center_by_scan(image, delta1), frags
        ends = ((s, s + length) for s, length in image.nums) \
            if space.kind == "circle" else image.nums
        runs = sorted(run for lo, hi in ends
                      for run in space.net_runs(lo, hi, image.unit, delta1,
                                                n, closed=True))
        touching += any(a[1] + 1 == b[0] for a, b in zip(runs, runs[1:]))
        late += runs[0][0] > 0
    assert touching > 20 and late > 20


@pytest.mark.parametrize("system,d,y0,repeat", [
    # 3/10 -> 3/5 -> 1/5 -> 2/5 -> 4/5 -> 3/5: step 8 repeats step 4
    ("doubling", "0.02", "0.3", "it cycles by step 8,"),
    # period 987 on the multiples of 1/987; delta1 = 1/4000 falls between
    # them, and step 2011 repeats step 1024
    ("rotation:alpha=610/987", "0.004", "0", "it cycles by step 2011,"),
])
def test_cover_time_stops_on_an_eventually_periodic_orbit(capsys, system, d,
                                                          y0, repeat):
    # both searches used to run all 10**6 steps before failing
    start = time.perf_counter()
    assert main(["bounds", "--system", system, "--d", d, "--eps", "0.05",
                 "--y0", y0]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "within 1000000 steps" in err and repeat in err


def test_cover_time_refuses_an_annulus_map():
    spiral = annulus_spiral(F(1, 2), F(610, 987), F(1, 2))
    with pytest.raises(UsageError, match="the annulus has no cover net"):
        cover_time(spiral, (F(7, 5), F(0)), F(1, 100))


# -- block bound --------------------------------------------------------------------

def test_nonshadow_lower_bound_exact_value():
    assert nonshadow_lower_bound(F(1, 2), 2, 3) == F(37, 64)
    assert float(F(37, 64)) == 0.578125
    assert nonshadow_lower_bound(F(1, 2), 2, 0) == 0


def test_nonshadow_lower_bound_monotone_and_limits():
    values = [nonshadow_lower_bound(F(1, 2), 2, k) for k in range(100)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0 <= v < 1 for v in values)
    etas = [F(i, 10) for i in range(1, 11)]
    assert all(nonshadow_lower_bound(b, 3, 5) >= nonshadow_lower_bound(a, 3, 5)
               for a, b in zip(etas, etas[1:]))


# -- absorbing band -------------------------------------------------------------------

def test_attractor_quantities_reference_case():
    q = attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)))
    assert q.rho == F(1, 20)
    assert q.eps0 == F(1, 20)
    assert q.n0 == 4
    assert q.d0 == F(9, 400)
    assert q.d == F(9, 800)          # defaults to d0 / 2
    assert q.delta == F(9, 3200)     # d / (2 (1 + Lip)) with Lip = 1
    assert q.settle_s == 7           # first n with lam^n rho <= delta / 4
    assert (q.band_lo, q.band_hi) == (F(19, 20), F(21, 20))


def test_attractor_band_is_absorbing_algebra():
    q = attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)))
    lam = LAM
    # image band has half-width lam*rho; adding any d < d0 stays inside
    assert lam * q.rho + q.d0 < q.rho
    # true orbits from the band settle within delta/4 of the circle by S
    assert lam ** q.settle_s * q.rho <= q.delta / 4
    assert lam ** (q.settle_s - 1) * q.rho > q.delta / 4


def test_attractor_rejects_bad_inputs():
    with pytest.raises(DomainError):
        attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)), d=F(9, 400))
    with pytest.raises(DomainError):
        attractor_quantities(SPIRAL, F(1, 5), (F(9, 5), F(0)))


def test_the_band_record_is_memoized_once_d_is_resolved(capsys):
    """A call with d=None and one with the d it resolves to share one
    record, whatever form the inputs take; a refused d is refused at every
    call, and so is a start outside the annulus. The ``attractor`` command
    asks twice (for the default d, then in the run) and computes once."""
    q = attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)))
    assert attractor_quantities(SPIRAL, "0.2", ("1.4", 0), d=q.d) is q
    assert attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)),
                                d=F(9, 1600)) is not q
    for _ in range(3):
        with pytest.raises(DomainError, match="need 0 < d < d0 = 9/400"):
            attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)), d=q.d0)
        with pytest.raises(DomainError, match="outside the annulus"):
            attractor_quantities(SPIRAL, F(1, 5), (F(9, 5), F(0)))
    bounds._band_record.cache_clear()
    assert main(["attractor", "--trials", "2", "--horizons", "5"]) == 0
    capsys.readouterr()
    info = bounds._band_record.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_pseudotrajectories_confined_after_entry():
    q = attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)))
    horizon = q.n0 + 8
    for trial in range(10_000):
        traj = generate(SPIRAL, (F(7, 5), F(0)), q.d, horizon,
                        trial_stream(504, trial))
        for p in traj.points[q.n0:]:
            assert in_absorbing_band(p, q.rho)


def test_entry_time_matches_direct_iteration():
    lam, rho = LAM, F(1, 20)
    for d, entry in ((F(9, 800), 4), (F(111, 5000), 7)):
        # |r_n - 1| <= lam^n |r0 - 1| + d / (1 - lam), at most rho from n0 on
        n = 0
        while lam ** n * F(2, 5) + d / (1 - lam) > rho:
            n += 1
        assert n == entry
        q = attractor_quantities(SPIRAL, F(1, 5), (F(7, 5), F(0)), d=d)
        assert q.n0 == n
