"""Monte Carlo estimation, reports and persistence."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta

from shadowing import (DomainError, ExperimentConfig, InvariantViolation,
                       UsageError, clopper_pearson, emit, estimate_probability,
                       nonshadow_lower_bound, run_attractor_experiment,
                       run_dichotomy_experiment)
from shadowing.cli import DEFAULT_DICHOTOMY
from shadowing.experiment import (TrialOutcome, _aggregate, _run_trial,
                                  dichotomy_bound_curve, result_summary)


def config(**kw):
    base = dict(system_spec="rotation:alpha=610/987", y0=(F(0),),
                d=F(1, 50), eps=F(1, 20), horizons=(10, 40), trials=10,
                seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# -- configuration -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        config(trials=0)
    with pytest.raises(DomainError):
        config(horizons=(10, 10))
    with pytest.raises(DomainError):
        config(d=F(0))
    # config files may still name the one checker mode; any other is refused
    data = {"system": "doubling", "y0": "0.3", "d": "0.02", "eps": "0.05",
            "horizons": [10], "mode": "exact"}
    assert ExperimentConfig.from_dict(data).to_jsonable()["mode"] == "exact"
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict({**data, "mode": "outer"})


def test_config_from_dict_parses_exact_rationals():
    cfg = ExperimentConfig.from_dict({
        "system": "rotation:alpha=610/987", "y0": "0.3", "d": 0.02,
        "eps": "0.05", "horizons": [10, 50], "trials": 4, "seed": 1})
    assert cfg.d == F(1, 50)
    assert cfg.eps == F(1, 20)
    assert cfg.y0 == (F(3, 10),)


# -- binomial intervals ---------------------------------------------------------

def test_clopper_pearson_reference_values():
    lo, hi = clopper_pearson(200, 200)
    assert hi == 1.0 and lo > 0.98
    lo, hi = clopper_pearson(0, 50)
    assert lo == 0.0 and hi == pytest.approx(
        float(beta.ppf(0.975, 1, 50)))
    lo, hi = clopper_pearson(7, 20)
    assert lo == pytest.approx(float(beta.ppf(0.025, 7, 14)))
    assert hi == pytest.approx(float(beta.ppf(0.975, 8, 13)))
    assert lo < 7 / 20 < hi


def test_clopper_pearson_rejects_bad_counts():
    with pytest.raises(DomainError):
        clopper_pearson(5, 4)
    with pytest.raises(DomainError):
        clopper_pearson(-1, 4)
    with pytest.raises(DomainError):
        clopper_pearson(0, -1)


HALF_ALPHA = F(1, 40)


def mass(n, p, ks):
    """P_p(X in ks) for X ~ Binomial(n, p), as an exact Fraction."""
    p = F(p)
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in ks)


def at_least(k, n, p):
    if n - k < k:
        return mass(n, p, range(k, n + 1))
    return 1 - mass(n, p, range(k))


def at_most(k, n, p):
    return 1 - at_least(k + 1, n, p)


def assert_certified(k, n):
    """ci_lo is the largest double at or below the exact lower root,
    ci_hi the smallest double at or above the exact upper root."""
    lo, hi = clopper_pearson(k, n)
    if k == 0:
        assert lo == 0.0
    else:
        assert at_least(k, n, lo) <= HALF_ALPHA
        assert at_least(k, n, math.nextafter(lo, 1)) > HALF_ALPHA
    if k == n:
        assert hi == 1.0
    else:
        assert at_most(k, n, hi) <= HALF_ALPHA
        assert at_most(k, n, math.nextafter(hi, 0)) > HALF_ALPHA


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_clopper_pearson_ends_are_the_outer_doubles(kn):
    assert_certified(*kn)


def test_clopper_pearson_closed_form_ends():
    # k = 0: (1 - hi)^n = 1/40; k = n: lo^n = 1/40
    for n in (1, 2, 7, 200, 400):
        assert_certified(0, n)
        assert_certified(n, n)
        assert clopper_pearson(0, n)[1] == pytest.approx(
            1 - 40 ** (-1 / n), rel=1e-14)
        assert clopper_pearson(n, n)[0] == pytest.approx(
            40 ** (-1 / n), rel=1e-14)
    assert clopper_pearson(0, 0) == (0.0, 1.0)


def ulps_apart(x, y):
    return abs(x - y) / math.ulp(max(x, y))


def test_clopper_pearson_agrees_with_beta_quantiles():
    # scipy 1.17.1 puts one end of this grid, the lower one at (66, 200),
    # 7 ulps above the certified end; an end more than 4 ulps away must be
    # scipy's error, on the inside of the exact interval
    for n in (1, 2, 3, 5, 6, 10, 37, 100, 200, 400):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            lo, hi = clopper_pearson(k, n)
            if k > 0:
                ref = float(beta.ppf(0.025, k, n - k + 1))
                assert ulps_apart(lo, ref) <= 16
                if ulps_apart(lo, ref) > 4:
                    assert at_least(k, n, ref) > HALF_ALPHA
            if k < n:
                ref = float(beta.ppf(0.975, k + 1, n - k))
                assert ulps_apart(hi, ref) <= 16
                if ulps_apart(hi, ref) > 4:
                    assert at_most(k, n, ref) > HALF_ALPHA


@pytest.mark.parametrize("k, n, scipy_hi", [
    (0, 400, 0.00917980458366526),
    (125, 200, 0.6922861517823592),
    (10, 200, 0.09002753770135137),
    (0, 200, 0.01827534035513624),
])
def test_clopper_pearson_upper_end_on_the_safe_side(k, n, scipy_hi):
    # scipy 1.17.1's beta.ppf rounds these upper ends to nearest, 1-2 ulps
    # inside the exact root: the interval it gives is too narrow
    assert at_most(k, n, scipy_hi) > HALF_ALPHA
    assert clopper_pearson(k, n)[1] > scipy_hi
    assert_certified(k, n)


@pytest.mark.parametrize("k, n, scipy_lo", [
    (200, 200, 0.9817246596448638),
    (396, 400, 0.9745951990926638),
    (126, 400, 0.2697447150566541),
    (10, 200, 0.024234165472108552),
])
def test_clopper_pearson_lower_end_on_the_safe_side(k, n, scipy_lo):
    # the same rounding puts these lower ends one ulp above the exact root
    assert at_least(k, n, scipy_lo) > HALF_ALPHA
    assert clopper_pearson(k, n)[0] == math.nextafter(scipy_lo, 0)
    assert_certified(k, n)


# -- estimation -------------------------------------------------------------------

def test_single_point_is_always_shadowed():
    res = estimate_probability(config(trials=1, horizons=(0,)))
    assert res.horizon_stats[0].p_hat == 1.0
    assert res.horizon_stats[0].ci_hi == 1.0


def test_doubling_all_yes():
    cfg = config(system_spec="doubling", y0=(F(1, 3),), horizons=(50,),
                 trials=20, seed=11)
    res = estimate_probability(cfg)
    stat = res.horizon_stats[0]
    assert stat.shadowable == 20 and stat.p_hat == 1.0
    assert all(o.first_empty is None for o in res.trial_outcomes)


def test_rotation_curve_nonincreasing():
    cfg = config(horizons=(5, 20, 60, 150), trials=40, d=F(1, 25), seed=12)
    res = estimate_probability(cfg)
    ps = [s.p_hat for s in res.horizon_stats]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[-1] < ps[0]
    for s in res.horizon_stats:
        assert s.ci_lo <= s.p_hat <= s.ci_hi
        assert s.shadowable <= s.decided
        assert s.unknown == 0


def test_prefix_consistency_across_horizon_lists():
    short = estimate_probability(config(horizons=(10,), trials=15, seed=13))
    joint = estimate_probability(config(horizons=(10, 40), trials=15, seed=13))
    assert short.horizon_stats[0].p_hat == joint.horizon_stats[0].p_hat
    fe_short = [o.first_empty for o in short.trial_outcomes]
    fe_joint = [o.first_empty for o in joint.trial_outcomes]
    # first-empty indices agree wherever the shorter run can see them
    for a, b in zip(fe_short, fe_joint):
        if a is not None and a <= 10:
            assert a == b


def test_determinism_and_worker_independence():
    cfg = config(trials=12, seed=14)
    a = estimate_probability(cfg)
    b = estimate_probability(cfg)
    assert result_summary(a) == result_summary(b)
    c = estimate_probability(cfg, workers=2)
    assert result_summary(a) == result_summary(c)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_refused(workers):
    with pytest.raises(UsageError, match="workers must be at least 1"):
        estimate_probability(config(trials=2), workers=workers)


def test_unknowns_excluded_from_counts():
    outcomes = [
        TrialOutcome(0, None, ("Yes",)),
        TrialOutcome(1, 3, ("No",)),
        TrialOutcome(2, None, ("Unknown",), error="cap"),
        TrialOutcome(3, None, ("Yes",)),
    ]
    res = _aggregate(config(trials=4, horizons=(5,)), outcomes)
    stat = res.horizon_stats[0]
    assert stat.decided == 3
    assert stat.shadowable == 2
    assert stat.unknown == 1
    assert stat.p_hat == pytest.approx(2 / 3)


def test_band_violation_raises():
    cfg = config(system_spec="annulus:lambda=1/2,alpha=610/987,w=0.5",
                 y0=(F(7, 5), F(0)), d=F(1, 100), eps=F(1, 20),
                 horizons=(10,), trials=1, seed=15)
    with pytest.raises(InvariantViolation):
        _run_trial(cfg.system, cfg, 0, band=(F(1, 1000), 0))


# -- persistence ---------------------------------------------------------------------

def test_emit_files_and_determinism(tmp_path):
    cfg = config(trials=8, seed=16)
    res = estimate_probability(cfg)
    emit(res, tmp_path / "out")
    curve = (tmp_path / "out" / "curve.csv").read_text()
    trials = (tmp_path / "out" / "trials.csv").read_text()
    summary = (tmp_path / "out" / "summary.json").read_text()
    assert curve.splitlines()[0] == \
        "horizon,trials,shadowable,p_hat,ci_lo,ci_hi,bound"
    assert len(curve.splitlines()) == 1 + len(cfg.horizons)
    assert len(trials.splitlines()) == 1 + cfg.trials
    emit(estimate_probability(cfg), tmp_path / "again")
    assert (tmp_path / "again" / "curve.csv").read_text() == curve
    assert (tmp_path / "again" / "trials.csv").read_text() == trials
    assert (tmp_path / "again" / "summary.json").read_text() == summary
    payload = json.loads(summary)
    assert payload["config"]["d"] == "1/50"
    assert len(payload["trials"]) == cfg.trials


def test_emit_surfaces_io_errors_with_path(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    res = estimate_probability(config(trials=2, horizons=(5,)))
    with pytest.raises(OSError, match="occupied"):
        emit(res, blocker)


def test_emit_empty_horizons_header_only(tmp_path):
    res = estimate_probability(config(trials=2, horizons=()))
    emit(res, tmp_path)
    assert (tmp_path / "curve.csv").read_text() == \
        "horizon,trials,shadowable,p_hat,ci_lo,ci_hi,bound\n"


# -- shipped experiments ----------------------------------------------------------------

def test_dichotomy_report_shape(tmp_path):
    cfg_a = config(system_spec="doubling", y0=(F(1, 3),), horizons=(40,),
                   trials=10, seed=17)
    cfg_b = config(horizons=(10, 60), trials=10, d=F(1, 25), seed=18)
    report = run_dichotomy_experiment(cfg_a, cfg_b, out=tmp_path / "d",
                                      with_bound_curve=False)
    branch_a = report["shadowing_branch"]["horizons"]
    branch_b = report["nonshadowing_branch"]["horizons"]
    assert branch_a[0]["p_hat"] == 1.0
    assert branch_b[0]["p_hat"] >= branch_b[-1]["p_hat"]
    assert (tmp_path / "d" / "report.json").exists()
    assert (tmp_path / "d" / "shadowing" / "curve.csv").exists()
    assert (tmp_path / "d" / "nonshadowing" / "summary.json").exists()


def test_dichotomy_bound_curve_diagnostics():
    cfg = config(horizons=(10, 500, 5000), trials=1, seed=19)
    by_horizon, diag = dichotomy_bound_curve(cfg)
    assert set(by_horizon) == {10, 500, 5000}
    assert all(0.0 <= v <= 1.0 for v in by_horizon.values())
    lowers = [row["nonshadow_lower"] for row in diag["nonshadow_bound_curve"]]
    assert all(0.0 <= v <= 1.0 for v in lowers)
    assert all(b >= a for a, b in zip(lowers, lowers[1:]))
    assert diag["block_length"] == diag["cover_k"] + diag["tail_n"] + 1
    assert F(diag["eta_lo"]) > 0


def test_dichotomy_bound_curve_is_the_exact_block_bound():
    # the default rotation branch has L = 1231 and eta = 1/4: its first
    # block starts to count at horizon 2461, where eta^L = 2^-2462 is below
    # the smallest double
    data = dict(DEFAULT_DICHOTOMY["nonshadowing"],
                horizons=[500, 2460, 2461, 5000])
    by_horizon, diag = dichotomy_bound_curve(ExperimentConfig.from_dict(data))
    assert diag["block_length"] == 1231 and diag["eta_lo"] == "1/4"
    curve = diag["nonshadow_bound_curve"]
    assert [row["blocks"] for row in curve] == [0, 0, 1, 3]
    for row in curve:
        exact = nonshadow_lower_bound(F(1, 4), 1231, row["blocks"])
        assert row["nonshadow_lower"] == float(exact)
        assert by_horizon[row["horizon"]] == float(1 - exact)
    # with L = 114, eta^L = 2^-228 is a double, but 1 - eta^L rounds to 1:
    # the float formula 1 - (1 - eta^L)^k would read 0 here
    small = config(d=F(1, 5), eps=F(1, 5), horizons=(500,), y0=(F(0),))
    _, diag = dichotomy_bound_curve(small)
    assert diag["block_length"] == 114
    (row,) = diag["nonshadow_bound_curve"]
    assert row["blocks"] == 3
    assert row["nonshadow_lower"] == float(
        nonshadow_lower_bound(F(1, 4), 114, 3)) > 0
    assert 1 - (1 - 0.25 ** 114) ** 3 == 0.0


def test_dichotomy_bound_skipped_for_doubling():
    cfg = config(system_spec="doubling", y0=(F(1, 3),), horizons=(10,),
                 trials=1, seed=20)
    assert dichotomy_bound_curve(cfg) == ({}, {})


def test_attractor_report_and_rejection(tmp_path):
    base = dict(system_spec="annulus:lambda=1/2,alpha=610/987,w=0.5",
                y0=(F(7, 5), F(0)), eps=F(1, 5), horizons=(30, 100),
                trials=12, seed=21)
    cfg = ExperimentConfig(d=F(9, 1600), **base)
    report = run_attractor_experiment(cfg, out=tmp_path)
    q = report["quantities"]
    assert q["rho"] == "1/20" and q["n0"] == 4 and q["d0"] == "9/400"
    curve = report["result"]["horizons"]
    assert curve[0]["p_hat"] >= curve[-1]["p_hat"]
    assert (tmp_path / "report.json").exists()
    with pytest.raises(DomainError):
        run_attractor_experiment(ExperimentConfig(d=F(9, 400), **base))
