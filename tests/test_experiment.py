"""Monte Carlo estimation, reports and persistence."""

import json
from fractions import Fraction as F

import pytest
from scipy.stats import beta

from shadowing import (DomainError, ExperimentConfig, InvariantViolation,
                       UsageError, clopper_pearson, emit, estimate_probability,
                       run_attractor_experiment, run_dichotomy_experiment)
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
