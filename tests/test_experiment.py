"""Monte Carlo estimation, reports and persistence."""

import json
import math
import os
import re
import stat
import threading
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta

from shadowing import (DomainError, ExperimentConfig, InvariantViolation,
                       Provenance, UsageError, clopper_pearson, emit,
                       estimate_probability, experiment, generate,
                       nonshadow_lower_bound, parse_system,
                       run_attractor_experiment, run_dichotomy_experiment,
                       save_trajectory, trial_stream)
from shadowing.cli import DEFAULT_DICHOTOMY, main
from shadowing.experiment import (TrialOutcome, _aggregate, _run_trial,
                                  dichotomy_bound_curve, result_summary)
from shadowing.pseudotraj import LatticeWalk
from shadowing.rationals import json_text, jsonable, parse_point


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


def test_config_parses_its_system_once_when_built(monkeypatch, tmp_path,
                                                  capsys):
    """The spec is parsed when the config is built, so a bad spec is
    refused there, from flags and from a config file alike (exit 2), and
    reading ``system`` parses nothing."""
    with pytest.raises(UsageError, match="unknown system spec"):
        config(system_spec="squaring")
    path = tmp_path / "bad.json"
    path.write_text('{"system": "squaring", "y0": "0.3", "d": "0.02", '
                    '"eps": "0.05", "horizons": [5]}')
    assert main(["estimate", "--config", str(path)]) == 2
    assert main(["estimate", "--system", "squaring", "--y0", "0.3", "--d",
                 "0.02", "--eps", "0.05", "--horizons", "5"]) == 2
    assert capsys.readouterr().err.count("unknown system spec") == 2
    cfg = config()
    monkeypatch.setattr(experiment, "parse_system", None)
    assert cfg.system is cfg.system and cfg.system.kind == "rotation"


def test_a_rebuilt_config_shares_its_map():
    """Maps are memoized by spec string: a config rebuilt by ``replace``,
    as the attractor run rebuilds its config at eps0, shares its map with
    the config it came from, and so does a new config of the same spec."""
    cfg = config()
    assert replace(cfg, eps=F(1, 80)).system is cfg.system
    assert config(seed=8, trials=2).system is cfg.system


@pytest.mark.parametrize("spec,y0", [
    ("tent:s=3/2", "1.5"), ("tent:s=3/2", "-1/10"), ("doubling", "0.3,0.2"),
    ("annulus:lambda=1/2,alpha=610/987,w=0.5", "1.6,0"),
    ("annulus:lambda=1/2,alpha=610/987,w=0.5", "1.4")])
@pytest.mark.parametrize("source", ["flags", "config-file"])
def test_a_start_outside_the_space_is_refused_when_the_config_is_built(
        monkeypatch, tmp_path, capsys, spec, y0, source):
    """The config checks y0 against its map's space when it is built, with
    the walk's own error text, so ``estimate --workers 2`` exits 2 before
    it asks for a pool: the fake pool records no request."""
    sizes = fake_pool(monkeypatch)
    with pytest.raises((UsageError, DomainError)) as walk:
        LatticeWalk(parse_system(spec), parse_point(y0), F(1, 50), 5,
                    trial_stream(0))
    data = {"system": spec, "y0": y0, "d": "0.02", "eps": "0.05",
            "horizons": "5", "trials": "16"}
    if source == "flags":
        argv = [f"--{key}={value}" for key, value in data.items()]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        argv = ["--config", str(path)]
    assert main(["estimate", *argv, "--workers", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {walk.value}\n")
    assert sizes == []
    with pytest.raises(type(walk.value), match=re.escape(str(walk.value))):
        ExperimentConfig.from_dict(data)


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


def fake_pool(monkeypatch) -> list:
    """Install a process pool that maps in this process, starting none,
    and records the size asked of it in the list returned."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            assert chunksize == 8
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("trials,workers,started", [
    (2, 64, 1), (16, 2, 2), (17, 64, 3), (40, 2, 2)])
def test_the_pool_starts_no_more_processes_than_chunks(
        monkeypatch, trials, workers, started):
    """A fork-started pool starts all its processes at the first submit,
    so it is asked for at most one per chunk of 8 trials. The pool here
    records its size and maps in this process, so no process starts."""
    sizes = fake_pool(monkeypatch)
    cfg = config(trials=trials, horizons=(10,))
    got = estimate_probability(cfg, workers=workers)
    assert sizes == [started]
    assert result_summary(got) == result_summary(estimate_probability(cfg))


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


def write_every_output(kind, out, traj_base):
    """Write one kind of output file set under ``out``."""
    annulus = dict(system_spec="annulus:lambda=1/2,alpha=610/987,w=0.5",
                   y0=(F(7, 5), F(0)), eps=F(1, 5), d=F(9, 1600),
                   horizons=(30,), trials=3, seed=21)
    if kind == "emit":
        emit(estimate_probability(config(trials=4, seed=16)), out)
    elif kind == "dichotomy":
        run_dichotomy_experiment(
            config(system_spec="doubling", y0=(F(1, 3),), horizons=(40,),
                   trials=3, seed=17),
            config(trials=3, seed=18), out=out)
    elif kind == "attractor":
        run_attractor_experiment(ExperimentConfig(**annulus), out=out)
    elif kind == "save_trajectory":
        traj = generate(parse_system("doubling"), (F(3, 10),), F(1, 50), 20,
                        trial_stream(3, 0), Provenance("random", 3, 0))
        save_trajectory(traj, "doubling", out / "t")
    else:
        out.mkdir(exist_ok=True)  # check writes into an existing directory
        assert main(["check", "--traj", str(traj_base), "--eps", "0.05",
                     "--out", str(out / "v.json")]) == 0


def tree_bytes(root) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("kind", ["emit", "dichotomy", "attractor",
                                  "save_trajectory", "check"])
def test_rewriting_over_longer_files_gives_the_bytes_of_a_fresh_run(
        tmp_path, capsys, kind):
    traj_base = tmp_path / "input"
    main(["generate", "--system", "doubling", "--y0", "0.3", "--d", "0.02",
          "--n", "30", "--out", str(traj_base)])
    write_every_output(kind, tmp_path / "fresh", traj_base)
    fresh = tree_bytes(tmp_path / "fresh")
    assert fresh
    for name, data in fresh.items():
        garbage = tmp_path / "again" / name
        garbage.parent.mkdir(parents=True, exist_ok=True)
        garbage.write_bytes(b"garbage " * (len(data) // 8 + 100))
    write_every_output(kind, tmp_path / "again", traj_base)
    assert tree_bytes(tmp_path / "again") == fresh


def test_a_plain_output_file_is_replaced_not_truncated(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("old\n")
    with open(out / "summary.json") as old:
        emit(estimate_probability(config(trials=2, horizons=(5,))), out)
        assert old.read() == "old\n"  # the old file was removed, not rewritten
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] \
        == 7


def test_an_output_file_that_cannot_be_removed_is_written_in_place(
        tmp_path, monkeypatch):
    res = estimate_probability(config(trials=2, horizons=(5,)))
    emit(res, tmp_path / "fresh")
    fresh = tree_bytes(tmp_path / "fresh")
    emit(res, tmp_path / "out")

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse)  # as in a read-only directory
    emit(res, tmp_path / "out")
    assert tree_bytes(tmp_path / "out") == fresh


def test_a_link_at_an_output_path_is_written_through(tmp_path):
    res = estimate_probability(config(trials=2, horizons=(5,)))
    emit(res, tmp_path / "fresh")
    out = tmp_path / "out"
    out.mkdir()
    soft, hard = tmp_path / "soft-target", tmp_path / "hard-target"
    soft.write_text("old\n")
    hard.write_text("old\n")
    (out / "summary.json").symlink_to(soft)
    os.link(hard, out / "curve.csv")
    emit(res, out)
    assert (out / "summary.json").is_symlink()
    assert soft.read_bytes() == (tmp_path / "fresh/summary.json").read_bytes()
    assert (out / "curve.csv").stat().st_nlink == 2
    assert hard.read_bytes() == (tmp_path / "fresh/curve.csv").read_bytes()


def read_fifo_while(fifo, write) -> bytes:
    """Run ``write`` while a thread reads the FIFO ``fifo``; the bytes read."""
    got = []

    def reader():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        write()
    finally:
        try:  # release a reader still waiting for a writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass  # no reader left
        thread.join(timeout=10)
    return got[0]


@pytest.mark.parametrize("kind", ["check", "emit"])
def test_a_fifo_at_an_output_path_is_written_through(tmp_path, capsys, kind):
    traj_base = tmp_path / "input"
    main(["generate", "--system", "doubling", "--y0", "0.3", "--d", "0.02",
          "--n", "30", "--out", str(traj_base)])
    write_every_output(kind, tmp_path / "fresh", traj_base)
    name = "v.json" if kind == "check" else "curve.csv"
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / name)
    got = read_fifo_while(
        out / name, lambda: write_every_output(kind, out, traj_base))
    assert stat.S_ISFIFO(os.lstat(out / name).st_mode)
    assert got == (tmp_path / "fresh" / name).read_bytes()


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
        assert repr(row["nonshadow_lower"]) == "0.0" and exact >= 0  # not -0.0
        assert by_horizon[row["horizon"]] == 1.0 >= 1 - exact
    # with L = 114, eta^L = 2^-228 is a double, but 1 - eta^L rounds to 1:
    # the float formula 1 - (1 - eta^L)^k would read 0 here. The exact
    # bound lies just below 3 * 2^-228, its nearest double, so it is
    # written as the double below that
    small = config(d=F(1, 5), eps=F(1, 5), horizons=(500,), y0=(F(0),))
    _, diag = dichotomy_bound_curve(small)
    assert diag["block_length"] == 114
    (row,) = diag["nonshadow_bound_curve"]
    assert row["blocks"] == 3
    exact = nonshadow_lower_bound(F(1, 4), 114, 3)
    assert row["nonshadow_lower"] == math.nextafter(3 * 2.0 ** -228, 0) > 0
    assert F(row["nonshadow_lower"]) < exact < F(3 * 2.0 ** -228)


@pytest.mark.parametrize("lower", [F(1, 3), F(1, 10)],
                         ids=["upper-2/3", "lower-1/10"])
def test_dichotomy_bound_curve_rounds_outward(monkeypatch, lower):
    # the nearest double of the upper bound 2/3 lies below it, that of the
    # lower bound 1/10 above it: each must be written as the next double out
    assert F(float(F(2, 3))) < F(2, 3) and F(float(F(1, 10))) > F(1, 10)
    monkeypatch.setattr("shadowing.bounds.nonshadow_lower_bound",
                        lambda *args: lower)
    small = config(d=F(1, 5), eps=F(1, 5), horizons=(500,), y0=(F(0),))
    by_horizon, diag = dichotomy_bound_curve(small)
    up = by_horizon[500]
    (row,) = diag["nonshadow_bound_curve"]
    down = row["nonshadow_lower"]
    assert F(math.nextafter(up, -math.inf)) < 1 - lower <= F(up)
    assert F(down) <= lower < F(math.nextafter(down, math.inf))
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


def nested_deeper(members: dict) -> str:
    """The JSON text of an object whose members have the JSON texts
    ``members``: each text nested two spaces deeper under its name, in
    sorted order (written out here line by line, apart from
    ``json_join``)."""
    lines = ["{"]
    for i, name in enumerate(sorted(members)):
        first, *rest = members[name].rstrip("\n").split("\n")
        lines += [f'  "{name}": {first}', *("  " + line for line in rest)]
        if i < len(members) - 1:
            lines[-1] += ","
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("run", ["dichotomy", "attractor", "no-horizons"])
def test_report_json_is_its_member_texts_nested_deeper(tmp_path, capsys,
                                                       run):
    """report.json holds the text of each branch's summary.json, or of the
    quantities record and summary.json, nested two spaces deeper, and is
    the bytes of the whole report encoded at once; stdout is the same
    bytes. Checked on the default dichotomy and attractor runs and on a
    dichotomy whose summaries have no horizons (empty lists, an empty
    bound curve)."""
    out = tmp_path / run
    argv = [run]
    if run == "no-horizons":
        path = tmp_path / "no-horizons.json"
        path.write_text(json.dumps({
            branch: {**given, "horizons": [], "trials": 3}
            for branch, given in DEFAULT_DICHOTOMY.items()}))
        argv = ["dichotomy", "--config", str(path)]
    assert main([*argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    text = (out / "report.json").read_text()
    report = json.loads(text)
    if run == "attractor":
        members = {"quantities": json_text(report["quantities"]),
                   "result": (out / "summary.json").read_text()}
    else:
        members = {f"{branch}_branch":
                   (out / branch / "summary.json").read_text()
                   for branch in ("shadowing", "nonshadowing")}
        if run == "no-horizons":
            assert report["shadowing_branch"]["horizons"] == []
            assert report["nonshadowing_branch"]["diagnostics"][
                "nonshadow_bound_curve"] == []
    assert text == nested_deeper(members) == json_text(jsonable(report))
    assert printed == text
