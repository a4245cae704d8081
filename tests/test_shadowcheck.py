"""Certified verdicts against independent closed-form and grid oracles."""

import math
import random
from fractions import Fraction as F

import pytest

from shadowing import enclosure, shadowcheck
from shadowing import (DomainError, UsageError, Verdict, annulus_spiral,
                       ball_set, decide_horizons, decide_shadowable, doubling,
                       generate, load_trajectory, orbit_tracks, rotation,
                       rotation_first_failure, save_trajectory,
                       shadow_set_forward, tent, trial_stream,
                       worst_case_pseudotrajectory)
from shadowing.pseudotraj import Pseudotrajectory, Provenance
from shadowing.spaces import ScaledPoints

from grid_oracle import brute_force_oracle
from reference import (dist, exact_orbit, first_empty_step, orbit, prefix,
                       rotation_lift_first_failure, rotation_oracle,
                       signed_circ_diff)

ROT = rotation(F(610, 987))
DBL = doubling()
SPIRAL = annulus_spiral(F(1, 2), F(610, 987), F(1, 2))
EPS = F(1, 20)
D = F(1, 50)


def fragment_points(es, rng, k=20):
    """Sample points of an enclosure set, fragment parameterized."""
    pts = []
    for _ in range(k):
        frag = es.fragments[rng.randrange(len(es.fragments))]
        u = F(rng.random())
        if es.space.kind == "circle":
            pts.append(((frag[0] + frag[1] * u) % 1,))
        elif es.space.kind == "interval":
            pts.append((frag[0] + (frag[1] - frag[0]) * u,))
        else:
            v = F(rng.random())
            pts.append((frag[0] + (frag[1] - frag[0]) * u,
                        (frag[2] + frag[3] * v) % 1))
    return pts


# -- shadow set propagation ---------------------------------------------------

def test_rotation_exact_orbit_keeps_full_balls():
    traj = exact_orbit(ROT, (F(1, 3),), 40)
    sets = shadow_set_forward(ROT, traj, EPS)
    for y, a in zip(traj.points, sets):
        assert a.fragments == ball_set(ROT.space, y, EPS).fragments


def test_worst_case_sets_shrink_linearly_then_empty():
    wc = worst_case_pseudotrajectory(ROT, D, EPS)
    sets = shadow_set_forward(ROT, wc, EPS)
    for n, a in enumerate(sets):
        expected = 2 * EPS - n * D / 2
        if expected >= 0:
            assert not a.is_empty()
            assert a.measure() == expected
        else:
            assert a.is_empty()
    assert first_empty_step(ROT, wc, EPS) == 11


def count_propagation_calls(monkeypatch, system) -> dict:
    """Count the balls built and the images taken from here on."""
    calls = {"ball": 0, "image": 0}
    ball, image = enclosure._ball, type(system).image_in_ball

    def counted_ball(*args):
        calls["ball"] += 1
        return ball(*args)

    def counted_image(self, *args):
        calls["image"] += 1
        return image(self, *args)

    monkeypatch.setattr(enclosure, "_ball", counted_ball)
    monkeypatch.setattr(type(system), "image_in_ball", counted_image)
    return calls


def drift_past_failure(n):
    """The worst-case drift of worst_case_pseudotrajectory, run on to n."""
    step = ROT.alpha + D / 2
    return Pseudotrajectory(tuple(((step * k) % 1,) for k in range(n + 1)),
                            D / 2, Provenance("worst_case"))


@pytest.mark.parametrize("case", ["rotation", "annulus"])
def test_propagation_stops_at_first_empty_set(monkeypatch, case):
    if case == "rotation":
        system, traj, first = ROT, drift_past_failure(30), 11
    else:
        system, first = SPIRAL, 100
        traj = generate(SPIRAL, (F(7, 5), F(0)), F(9, 800), 300,
                        trial_stream(44, 0))
    assert first_empty_step(system, traj, EPS) == first
    calls = count_propagation_calls(monkeypatch, system)
    sets = shadow_set_forward(system, traj, EPS)
    assert calls == {"ball": first + 1, "image": first}
    assert len(sets) == traj.horizon + 1
    assert not sets[first - 1].is_empty()
    assert all(s.is_empty() for s in sets[first:])


def test_propagation_normalizes_once_per_step(monkeypatch):
    """A step meets the raw image of the previous set with the ball and
    normalizes the result; the image is not normalized on its own."""
    traj = generate(DBL, (F(3, 10),), D, 200, trial_stream(7))
    calls = 0
    make = enclosure._make

    def counted_make(*args):
        nonlocal calls
        calls += 1
        return make(*args)

    monkeypatch.setattr(enclosure, "_make", counted_make)
    sets = shadow_set_forward(DBL, traj, EPS)
    assert not sets[-1].is_empty()
    assert calls <= 200


def test_doubling_exact_orbit_sets_stay_full_balls():
    traj = exact_orbit(DBL, (F(1, 7),), 1000)
    sets = shadow_set_forward(DBL, traj, EPS)
    assert all(not a.is_empty() for a in sets)
    # expanding map regenerates the whole tolerance ball each step
    for y, a in zip(traj.points, sets):
        assert a.measure() == 2 * EPS
        assert a.contains(y)


def test_shadow_sets_prefix_independent():
    traj = generate(ROT, (F(0),), D, 30, trial_stream(401))
    full = shadow_set_forward(ROT, traj, EPS)
    short = shadow_set_forward(ROT, prefix(traj, 12), EPS)
    assert [s.fragments for s in full[:13]] == [s.fragments for s in short]


def test_set_recursion_containments():
    rng = random.Random(402)
    for system, y0 in [(DBL, (F(1, 3),)), (ROT, (F(0),)),
                       (SPIRAL, (F(7, 5), F(0)))]:
        traj = generate(system, y0, D, 25, trial_stream(403))
        sets = shadow_set_forward(system, traj, EPS)
        for n in range(1, len(sets)):
            if sets[n].is_empty():
                continue
            ball = ball_set(system.space, traj.points[n], EPS)
            image = system.apply_set(sets[n - 1])
            for p in fragment_points(sets[n], rng):
                assert ball.contains(p)
                assert image.contains(p)


# -- verdicts -----------------------------------------------------------------

@pytest.mark.parametrize("system,x0", [
    (DBL, (F(1, 7),)), (ROT, (F(2, 5),)), (SPIRAL, (F(13, 10), F(1, 4))),
], ids=["doubling", "rotation", "spiral"])
def test_trajectory_shadows_itself(system, x0):
    traj = exact_orbit(system, x0, 30)
    v = decide_shadowable(system, traj, F(1, 100))
    assert v.verdict.value == "Yes"
    assert v.witness is not None
    pts = orbit(system, v.witness, traj.horizon)
    assert all(dist(system.space, p, y) <= F(1, 100)
               for p, y in zip(pts, traj.points))


def test_worst_case_certified_no():
    wc = worst_case_pseudotrajectory(ROT, D, EPS)
    v = decide_shadowable(ROT, wc, EPS)
    assert v.verdict.value == "No"
    assert v.n_empty == 11
    assert v.witness is None


def count_pull_backs(monkeypatch) -> list:
    """The horizon of every witness pull-back from here on."""
    calls = []
    pull_back = shadowcheck.pull_back_witness

    def counted(system, sets, m):
        calls.append(m)
        return pull_back(system, sets, m)

    monkeypatch.setattr(shadowcheck, "pull_back_witness", counted)
    return calls


def test_one_pull_back_per_decision(monkeypatch):
    horizons = (10, 50, 200, 500)
    calls = count_pull_backs(monkeypatch)
    # a rotation trajectory that is Yes at horizons 10 and 50 only
    traj = next(t for t in (generate(ROT, (F(0),), D, 500,
                                     trial_stream(43, k)) for k in range(20))
                if 50 < (first_empty_step(ROT, t, EPS) or 0) <= 200)
    assert calls == []
    found = decide_horizons(ROT, traj, EPS, horizons)
    assert found.verdicts == (Verdict.YES, Verdict.YES, Verdict.NO,
                              Verdict.NO)
    assert calls == [50]

    calls.clear()
    found = decide_horizons(ROT, exact_orbit(ROT, (F(1, 3),), 500), EPS,
                            horizons)
    assert found.verdicts == (Verdict.YES,) * 4 and calls == [500]

    # drifting by the full step bound empties A_6, before every horizon
    calls.clear()
    step = ROT.alpha + D
    drift = Pseudotrajectory(tuple(((step * k) % 1,) for k in range(501)), D,
                             Provenance("worst_case"))
    found = decide_horizons(ROT, drift, EPS, horizons)
    assert found.first_empty <= 10 and found.witness is None
    assert found.verdicts == (Verdict.NO,) * 4 and calls == []


def test_yes_witness_passes_direct_recheck():
    for trial in range(20):
        traj = generate(DBL, (F(1, 3),), D, 40, trial_stream(404, trial))
        v = decide_shadowable(DBL, traj, EPS)
        assert v.verdict.value == "Yes"
        pts = orbit(DBL, v.witness, traj.horizon)
        assert all(dist(DBL.space, p, y) <= EPS
                   for p, y in zip(pts, traj.points))


def test_monotone_verdicts_over_prefixes():
    traj = generate(ROT, (F(0),), F(1, 25), 80, trial_stream(405, 5))
    fe = first_empty_step(ROT, traj, F(1, 30))
    seen_no = False
    for m in range(0, traj.horizon + 1, 4):
        v = decide_shadowable(ROT, prefix(traj, m), F(1, 30))
        if seen_no:
            assert v.verdict.value == "No"
        if v.verdict.value == "No":
            seen_no = True
            assert fe is not None and fe <= m
    if fe is not None:
        assert seen_no


def test_verdict_json_shape():
    wc = worst_case_pseudotrajectory(ROT, D, EPS)
    payload = decide_shadowable(ROT, wc, EPS).to_json()
    assert payload["verdict"] == "No"
    assert payload["n_empty"] == 11
    assert payload["witness"] is None
    assert payload["set_stats"]["fragments"] == 0


# -- rotation oracle -----------------------------------------------------------

def test_rotation_oracle_on_exact_orbit():
    traj = exact_orbit(ROT, (F(1, 9),), 50)
    traj = Pseudotrajectory(traj.points, F(1, 100), Provenance("exact_orbit"))
    assert rotation_oracle(ROT, traj, F(1, 100))


def test_rotation_oracle_validity_region():
    wc = worst_case_pseudotrajectory(ROT, D, EPS)
    with pytest.raises(DomainError):
        rotation_oracle(ROT, wc, F(26, 100))
    with pytest.raises(UsageError):
        rotation_oracle(DBL, wc, EPS)


def test_oracle_equivalence_with_certified_checker():
    disagreements = 0
    for trial in range(100):
        traj = generate(ROT, (F(0),), D, 20, trial_stream(406, trial))
        certified = decide_shadowable(ROT, traj, EPS).verdict.value == "Yes"
        if certified != rotation_oracle(ROT, traj, EPS):
            disagreements += 1
    assert disagreements == 0


def test_oracle_first_failure_matches_first_empty():
    for trial in range(50):
        traj = generate(ROT, (F(0),), F(1, 25), 60, trial_stream(407, trial))
        assert rotation_first_failure(ROT, traj, F(1, 30)) \
            == first_empty_step(ROT, traj, F(1, 30))


def test_rotation_first_failure_equals_the_fraction_lift(tmp_path):
    """The integer lift against the ``Fraction`` one: on generated
    trajectories (one scale), on the same ones saved and loaded (nested
    scales, each point's reduced denominator) and on the worst case."""
    cases = []
    for trial in range(20):
        traj = generate(ROT, (F(0),), D, 500, trial_stream(409, trial))
        save_trajectory(traj, "rotation:alpha=610/987", tmp_path / "t")
        loaded, _ = load_trajectory(tmp_path / "t")
        assert len(set(loaded.scaled.scales)) > 1
        cases += [(traj, eps) for eps in (F(1, 30), EPS, F(1, 5))]
        cases.append((loaded, F(1, 30)))
    for d, eps in ((D, EPS), (F(1, 7), F(1, 5)), (F(3, 1000), F(1, 100))):
        cases.append((worst_case_pseudotrajectory(ROT, d, eps), eps))
    found = [rotation_first_failure(ROT, traj, eps) for traj, eps in cases]
    assert found == [rotation_lift_first_failure(ROT, traj, eps)
                     for traj, eps in cases]
    assert None in found and any(n is not None for n in found)


def test_rotation_oracle_against_grid_search():
    for trial in range(100):
        traj = generate(ROT, (F(0),), D, 30, trial_stream(408, trial))
        oracle = rotation_oracle(ROT, traj, EPS)
        grid = brute_force_oracle(ROT, traj, EPS, F(1, 10 ** 5))
        if oracle:
            assert grid.found
        else:
            assert not grid.strict


# -- brute-force oracle ----------------------------------------------------------

def test_brute_force_finds_exact_orbit():
    for system, x0 in [(DBL, (F(1, 3),)), (ROT, (F(1, 5),))]:
        traj = exact_orbit(system, x0, 20)
        res = brute_force_oracle(system, traj, EPS, F(1, 10 ** 6))
        assert res.found and res.strict


def test_certified_no_never_has_strict_grid_candidate():
    checked = 0
    for trial in range(100):
        traj = generate(ROT, (F(0),), F(1, 25), 20, trial_stream(409, trial))
        if decide_shadowable(ROT, traj, F(1, 30)).verdict.value == "No":
            res = brute_force_oracle(ROT, traj, F(1, 30), F(1, 10 ** 5))
            assert not res.strict
            checked += 1
    assert checked >= 10


def test_certified_yes_always_found_by_grid():
    for trial in range(50):
        traj = generate(DBL, (F(1, 3),), D, 20, trial_stream(410, trial))
        assert decide_shadowable(DBL, traj, EPS).verdict.value == "Yes"
        assert brute_force_oracle(DBL, traj, EPS, F(1, 10 ** 5)).found


def test_resolution_halving_keeps_found_verdicts():
    for trial in range(60):
        traj = generate(ROT, (F(0),), F(1, 25), 20, trial_stream(411, trial))
        coarse = brute_force_oracle(ROT, traj, F(1, 30), F(1, 10 ** 4))
        fine = brute_force_oracle(ROT, traj, F(1, 30), F(1, 2 * 10 ** 4))
        if coarse.found and not fine.found:
            pytest.fail("refinement flipped a found verdict")


def test_brute_force_rejects_annulus():
    traj = exact_orbit(SPIRAL, (F(7, 5), F(0)), 5)
    with pytest.raises(UsageError):
        brute_force_oracle(SPIRAL, traj, EPS, F(1, 1000))


# -- independent annulus oracle (product criterion) -------------------------------

def annulus_product_oracle(system, traj, eps):
    """Max-metric shadowing splits into an angular span test and a radial
    interval-intersection test; both are checked in exact arithmetic."""
    lam, alpha, w = system.lam, system.alpha, system.space.w
    # angular: continuous lift of deviations, span at most 2 eps
    dev = F(0)
    devs = [dev]
    for a, b in zip(traj.points[1:], traj.points):
        dev += signed_circ_diff(a[1], b[1] + alpha)
        devs.append(dev)
    if max(devs) - min(devs) > 2 * eps:
        return False
    # radial: some initial offset q in [-w, w] with |r_n - 1 - lam^n q| <= eps
    lo, hi = -w, w
    scale = F(1)
    for p in traj.points:
        lo = max(lo, (p[0] - 1 - eps) / scale)
        hi = min(hi, (p[0] - 1 + eps) / scale)
        if lo > hi:
            return False
        scale *= lam
    return True


def test_spiral_verdicts_match_product_oracle():
    for trial in range(40):
        traj = generate(SPIRAL, (F(7, 5), F(0)), F(1, 100), 60,
                        trial_stream(412, trial))
        certified = decide_shadowable(SPIRAL, traj, F(1, 25))
        assert (certified.verdict.value == "Yes") \
            == annulus_product_oracle(SPIRAL, traj, F(1, 25))


# -- fragmented and saturated set flows ------------------------------------------

def test_offset_step_splits_shadow_set():
    # random kernel steps keep the next ball nearly concentric with the
    # image arc, so a split needs a legal adversarial step: jumping half a
    # circle puts the ball against both ends of the image arc at once
    eps = F(1, 5)
    y0 = (F(1, 3),)
    y1 = ((DBL.apply(y0)[0] + F(1, 2)) % 1,)
    y2 = DBL.apply(y1)
    traj = Pseudotrajectory((y0, y1, y2), F(1, 2), Provenance("crafted"))
    sets = shadow_set_forward(DBL, traj, eps)
    assert sets[1].fragment_count() == 2
    assert sets[1].measure() == F(1, 5)
    # the survivors at step 2 are exactly the two tolerance-boundary points
    assert sets[2].fragment_count() == 2
    assert sets[2].measure() == 0 and not sets[2].is_empty()
    v = decide_shadowable(DBL, traj, eps)
    assert v.verdict.value == "Yes"
    pts = orbit(DBL, v.witness, traj.horizon)
    assert all(dist(DBL.space, p, y) <= eps
               for p, y in zip(pts, traj.points))
    assert brute_force_oracle(DBL, traj, eps, F(1, 10 ** 4)).found


def test_saturated_tolerance_keeps_full_circle():
    # eps >= 1/2 makes every ball the whole circle, so the shadow sets stay
    # saturated and anything is shadowed
    traj = generate(DBL, (F(1, 3),), F(1, 10), 15, trial_stream(416))
    sets = shadow_set_forward(DBL, traj, F(3, 5))
    assert all(s.measure() == 1 for s in sets)
    assert decide_shadowable(DBL, traj, F(3, 5)).verdict.value == "Yes"


@pytest.mark.parametrize("system,x0,eps,shift", [
    # the rotation by 1/4 is at 1/100 at steps 0, 4 and 8, where a shift
    # by -eps crosses the wrap at 0
    (rotation(F(1, 4)), (F(1, 100),), F(1, 20), (-1,)),
    (tent(F(3, 2)), (F(3, 10),), F(1, 20), (1,)),
    (tent(F(3, 2)), (F(3, 10),), F(1, 20), (-1,)),
    (SPIRAL, (F(7, 5), F(0)), F(1, 5), (-1, 0)),
    # the angle is 0 at step 0
    (SPIRAL, (F(7, 5), F(0)), F(1, 5), (0, -1)),
])
def test_orbit_tracks_rejects_one_lattice_unit_past_eps(system, x0, eps,
                                                        shift):
    n = 8
    exact = orbit(system, x0, n)
    space = system.space
    for k in (0, n // 2, n):
        tick = F(1, 1000 * math.lcm(eps.denominator,
                                    *(c.denominator for c in exact[k])))
        for excess, tracks in ((0, True), (tick, False)):
            points = list(exact)
            points[k] = space.canonical(tuple(
                c + sign * (eps + excess) for c, sign in zip(exact[k], shift)))
            assert dist(space, points[k], exact[k]) == eps + excess
            for given in (points, ScaledPoints.from_points(points)):
                assert orbit_tracks(system, given, x0, eps) is tracks, \
                    (k, excess, type(given))
