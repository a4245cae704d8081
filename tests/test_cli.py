"""End-to-end CLI behavior."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import shadowing
from shadowing import (ExperimentConfig, InvariantViolation, enclosure,
                       experiment, run_attractor_experiment)
from shadowing.cli import DEFAULT_ATTRACTOR, DEFAULT_DICHOTOMY, main
from shadowing.experiment import dichotomy_bound_curve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_then_check(tmp_path, capsys):
    base = tmp_path / "traj"
    code, out, _ = run(capsys, "generate", "--system", "rotation:alpha=610/987",
                       "--y0", "0", "--d", "0.02", "--n", "30",
                       "--seed", "5", "--out", str(base))
    assert code == 0
    assert "31 points" in out
    assert base.with_suffix(".csv").exists()
    assert base.with_suffix(".json").exists()
    code, out, _ = run(capsys, "check", "--traj", str(base), "--eps", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] in ("Yes", "No")
    if payload["verdict"] == "Yes":
        assert payload["witness"] is not None


def test_check_writes_verdict_file(tmp_path, capsys):
    base = tmp_path / "t"
    run(capsys, "generate", "--system", "doubling", "--y0", "1/3",
        "--d", "0.02", "--n", "15", "--seed", "6", "--out", str(base))
    verdict_file = tmp_path / "verdict.json"
    code, _, _ = run(capsys, "check", "--traj", str(base), "--eps", "0.05",
                     "--out", str(verdict_file))
    assert code == 0
    assert json.loads(verdict_file.read_text())["verdict"] == "Yes"


def test_estimate_with_flags(tmp_path, capsys):
    out_dir = tmp_path / "est"
    code, out, _ = run(capsys, "estimate", "--system", "rotation:alpha=610/987",
                       "--y0", "0", "--d", "0.04", "--eps", "0.05",
                       "--horizons", "5,25", "--trials", "6", "--seed", "3",
                       "--out", str(out_dir))
    assert code == 0
    payload = json.loads(out)
    assert [h["horizon"] for h in payload["horizons"]] == [5, 25]
    assert (out_dir / "curve.csv").exists()
    assert (out_dir / "trials.csv").exists()


def test_estimate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "doubling", "y0": "1/3", "d": "0.02", "eps": "0.05",
        "horizons": [10], "trials": 5, "seed": 1}))
    code, out, _ = run(capsys, "estimate", "--config", str(cfg),
                       "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["trials"] == 3
    assert payload["horizons"][0]["trials"] == 3


def test_bounds_circle(capsys):
    code, out, _ = run(capsys, "bounds", "--system", "rotation:alpha=610/987",
                       "--d", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == "1/40"
    assert payload["delta1"] == "1/160"
    assert payload["eta_lo"] == payload["eta_hi"] == "1/4"
    # the drift tail needs eps < 1/4; above it the tail is left out
    code, out, _ = run(capsys, "bounds", "--system", "rotation:alpha=610/987",
                       "--d", "0.1", "--eps", "0.3")
    assert code == 0
    assert "tail_n" not in json.loads(out)


def test_bounds_with_eps_and_cover(capsys):
    code, out, _ = run(capsys, "bounds", "--system", "rotation:alpha=610/987",
                       "--d", "0.8", "--eps", "0.2", "--y0", "0",
                       "--horizon", "5000")
    assert code == 0
    payload = json.loads(out)
    assert payload["cover_k"] == payload["cover_k1"] + payload["cover_k2"] + 1
    # drift tail N = ceil(4 eps / d) + 1, as in the dichotomy report
    assert payload["tail_n"] == math.ceil(4 * F(1, 5) / F(4, 5)) + 1
    assert payload["block_length"] == (payload["cover_k"]
                                       + payload["tail_n"] + 1)


def test_bounds_prints_the_rotation_report_record(capsys):
    base = ExperimentConfig.from_dict(DEFAULT_DICHOTOMY["nonshadowing"])
    _, diagnostics = dichotomy_bound_curve(base)
    code, out, _ = run(capsys, "bounds", "--system", "rotation:alpha=610/987",
                       "--d", "0.02", "--eps", "0.05", "--y0", "0")
    assert code == 0
    payload = json.loads(out)
    del diagnostics["nonshadow_bound_curve"]
    assert {k: payload[k] for k in diagnostics} == diagnostics
    assert set(payload) == set(diagnostics) | {"d", "eps", "lipschitz"}


def test_bounds_annulus(capsys):
    code, out, _ = run(capsys, "bounds", "--system",
                       "annulus:lambda=1/2,alpha=610/987,w=0.5",
                       "--d", "0.01", "--eps", "0.2", "--y0", "1.4,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == "1/20"
    assert payload["n0"] == 4
    assert payload["d0"] == "9/400"
    # --d is the working noise level, not replaced by d0 / 2
    assert payload["d"] == "1/100"
    assert payload["delta"] == "1/400"
    assert None not in payload.values()


def test_bounds_annulus_rejects_noise_above_d0(capsys):
    code, _, err = run(capsys, "bounds", "--system",
                       "annulus:lambda=1/2,alpha=610/987,w=0.5",
                       "--d", "0.03", "--eps", "0.2", "--y0", "1.4,0")
    assert code == 2
    assert "error:" in err


def test_bounds_annulus_prints_the_attractor_report_record(capsys):
    data = dict(DEFAULT_ATTRACTOR, d="9/800", trials=2, horizons=[10])
    report = run_attractor_experiment(ExperimentConfig.from_dict(data))
    code, out, _ = run(capsys, "bounds", "--system", data["system"],
                       "--d", data["d"], "--eps", data["eps"],
                       "--y0", data["y0"])
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("eps") == "1/5"
    assert payload.pop("lipschitz") == "1"
    assert payload == report["quantities"]


def test_dichotomy_with_config(tmp_path, capsys):
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({
        "shadowing": {"trials": 4, "horizons": [20]},
        "nonshadowing": {"trials": 4, "horizons": [10, 30]},
    }))
    code, out, _ = run(capsys, "dichotomy", "--config", str(cfg),
                       "--out", str(tmp_path / "run"), "--no-bound-curve")
    assert code == 0
    payload = json.loads(out)
    assert payload["shadowing_branch"]["horizons"][0]["p_hat"] == 1.0
    assert (tmp_path / "run" / "report.json").exists()


def test_dichotomy_bound_fails_before_any_trial(tmp_path, capsys):
    # at d = 0.004 the rotation orbit of 0 is periodic on the multiples of
    # 1/987 and misses net balls of radius 1/4000: the cover search fails,
    # and it ran all 10**6 steps after every trial had run
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"nonshadowing": {"d": "0.004"}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "dichotomy", "--config", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "it cycles by step 2011, so it never will" in err
    assert not (tmp_path / "run").exists()


def test_dichotomy_without_a_block_length(tmp_path, capsys):
    # eps >= 1/4 lies outside the drift construction: no block length, no
    # bound, and the diagnostics are still the bounds record
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({
        "shadowing": {"trials": 2, "horizons": [10]},
        "nonshadowing": {"eps": "0.3", "trials": 4, "horizons": [10, 30]}}))
    code, out, _ = run(capsys, "dichotomy", "--config", str(cfg),
                       "--out", str(tmp_path / "run"))
    assert code == 0
    branch = json.loads(out)["nonshadowing_branch"]
    assert [h["bound"] for h in branch["horizons"]] == [None, None]
    curve = (tmp_path / "run" / "nonshadowing" / "curve.csv").read_text()
    assert all(line.endswith(",") for line in curve.splitlines()[1:])
    code, record, _ = run(capsys, "bounds", "--system",
                          "rotation:alpha=610/987", "--d", "0.02",
                          "--eps", "0.3", "--y0", "0")
    record = json.loads(record)
    for key in ("d", "eps", "lipschitz"):
        del record[key]
    assert branch["diagnostics"] == record
    assert "block_length" not in record


def test_attractor_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "attractor", "--trials", "5",
                       "--horizons", "20,60", "--out", str(tmp_path / "a"))
    assert code == 0
    payload = json.loads(out)
    assert payload["quantities"]["n0"] == 4
    assert (tmp_path / "a" / "curve.csv").exists()


def test_attractor_near_the_noise_ceiling_stays_in_its_band(capsys):
    # d = 111/5000 just below d0 = 9/400: the noise term d/(1 - lam) of
    # |r_n - 1| moves the entry step from 4 to 7, and every trial stays in
    # the band from there on
    code, out, _ = run(capsys, "attractor", "--d", "111/5000",
                       "--trials", "40")
    assert code == 0
    assert json.loads(out)["quantities"]["n0"] == 7


def test_bad_system_spec_exits_nonzero(capsys):
    code, _, err = run(capsys, "bounds", "--system", "squaring", "--d", "0.1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("estimate", "--system", "doubling", "--y0", "0.3", "--d", "0.02",
     "--eps", "0.05", "--horizons", "10", "--trials", "2"),
    ("attractor", "--trials", "2", "--horizons", "10"),
    ("dichotomy",),
], ids=["estimate", "attractor", "dichotomy"])
def test_workers_below_one_exit_nonzero(tmp_path, capsys, argv, workers):
    code, out, err = run(capsys, *argv, "--workers", workers,
                         "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err == "error: workers must be at least 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (("generate", "--seed", "-1"), "seed must be nonnegative, got -1"),
    (("generate", "--trial", "-1"), "trial must be nonnegative, got -1"),
    (("estimate", "--seed", "-1"), "seed must be nonnegative, got -1"),
], ids=["generate-seed", "generate-trial", "estimate-seed"])
def test_negative_seed_or_trial_exits_two(tmp_path, capsys, argv, message):
    common = ["--system", "doubling", "--y0", "0.3", "--d", "0.02",
              "--out", str(tmp_path / "out")]
    more = (["--n", "10"] if argv[0] == "generate" else
            ["--eps", "0.05", "--horizons", "10", "--trials", "2"])
    code, out, err = run(capsys, *argv, *common, *more)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_in_a_config_file_exits_two(tmp_path, capsys):
    config = tmp_path / "negative.json"
    config.write_text(json.dumps({
        "system": "doubling", "y0": "0.3", "d": "0.02", "eps": "0.05",
        "horizons": [10], "trials": 2, "seed": -5}))
    code, out, err = run(capsys, "estimate", "--config", str(config))
    assert (code, out, err) == (2, "", "error: seed must be nonnegative, "
                                       "got -5\n")


def unreadable_or_unwritable(tmp_path):
    """argv that fail on a file: a missing trajectory, a verdict file in a
    missing directory, a missing config file and experiment outputs under
    a path that is a file."""
    base = tmp_path / "t"
    main(["generate", "--system", "doubling", "--y0", "0.3", "--d", "0.02",
          "--n", "5", "--out", str(base)])
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return {
        "missing-traj": ["check", "--traj", str(tmp_path / "missing"),
                         "--eps", "0.05"],
        "missing-out-dir": ["check", "--traj", str(base), "--eps", "0.05",
                            "--out", str(tmp_path / "no" / "v.json")],
        "missing-config": ["estimate", "--config",
                           str(tmp_path / "missing.json")],
        "missing-dichotomy-config": ["dichotomy", "--config",
                                     str(tmp_path / "missing.json")],
        "emit": ["estimate", "--system", "doubling", "--y0", "0.3", "--d",
                 "0.02", "--eps", "0.05", "--horizons", "5", "--trials", "1",
                 "--out", str(blocker / "out")],
    }


@pytest.mark.parametrize("case", ["missing-traj", "missing-out-dir",
                                  "missing-config",
                                  "missing-dichotomy-config", "emit"])
def test_a_file_that_cannot_be_read_or_written_exits_two(tmp_path, capsys,
                                                        case):
    argv = unreadable_or_unwritable(tmp_path)[case]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if case == "emit":
        assert out == ""
        assert f"cannot write experiment outputs under {tmp_path}" in err


@pytest.mark.parametrize("argv,message", [
    # 3/10 -> 3/5 -> 1/5 -> 2/5 -> 4/5 -> 3/5
    (("doubling", "--d", "0.02", "--eps", "0.05", "--y0", "0.3"),
     "orbit never entered the open 1/1200-ball around net center (0) "
     "within 1000000 steps; it cycles by step 8, so it never will"),
    # period 987; delta1 = 1/4000 falls between the orbit points
    (("rotation:alpha=610/987", "--d", "0.004", "--eps", "0.05",
      "--y0", "0"),
     "orbit never entered the open 1/4000-ball around net center (1/4000) "
     "within 1000000 steps; it cycles by step 2011, so it never will"),
    # the tent s = 3/2 maps [0, 1] onto [0, 3/4]
    (("tent:s=3/2", "--d", "0.02", "--y0", "0.3"),
     "the image of the space misses the open 1/1000-ball around net center "
     "(1503/2000), so no orbit point after the first can enter it"),
], ids=["doubling-cycles", "rotation-cycles", "tent-image"])
def test_failing_cover_searches_print_their_exact_message(capsys, argv,
                                                          message):
    code, out, err = run(capsys, "bounds", "--system", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_broken_band_bound_exits_three(tmp_path, capsys, monkeypatch):
    # a band escape means the bound computation is wrong: it is reported
    # with its own exit code, not as a usage error or a traceback
    def escaping(system, config, trial, band=None):
        raise InvariantViolation(
            f"trial {trial}: point (3/2, 0) at step 9 escaped the absorbing "
            "band of half-width 1/20 (entry step 5)")

    monkeypatch.setattr(experiment, "_run_trial", escaping)
    code, out, err = run(capsys, "attractor", "--trials", "2",
                         "--horizons", "10", "--workers", "1",
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == ("error: trial 0: point (3/2, 0) at step 9 escaped the "
                   "absorbing band of half-width 1/20 (entry step 5)\n")


def test_rejected_attractor_noise_exits_nonzero(capsys):
    code, _, err = run(capsys, "attractor", "--trials", "2",
                       "--horizons", "10", "--d", "0.1")
    assert code == 2
    assert "d0" in err


def test_check_reports_fragment_cap_error(tmp_path, capsys, monkeypatch):
    base = tmp_path / "t"
    run(capsys, "generate", "--system", "doubling", "--y0", "0.3",
        "--d", "0.02", "--n", "30", "--seed", "1", "--out", str(base))
    monkeypatch.setattr(enclosure, "DEFAULT_FRAGMENT_CAP", 0)
    code, out, err = run(capsys, "check", "--traj", str(base),
                         "--eps", "0.05")
    assert code == 2
    assert out == ""
    assert err.startswith("error: fragment cap 0 exceeded")


def test_removed_outer_mode_exits_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["check", "--traj", str(tmp_path / "t"), "--eps", "0.05",
              "--mode", "outer"])
    assert stop.value.code == 2
    config = tmp_path / "outer.json"
    config.write_text(json.dumps({
        "system": "doubling", "y0": "0.3", "d": "0.02", "eps": "0.05",
        "horizons": [10], "trials": 1, "mode": "outer"}))
    code, out, err = run(capsys, "estimate", "--config", str(config))
    assert code == 2
    assert out == "" and "'outer'" in err


def run_python(*args):
    src = str(Path(shadowing.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})


def test_cli_and_check_never_import_scipy(tmp_path):
    # the runtime needs only the standard library: neither the random
    # stream loads numpy nor the intervals scipy
    found = run_python("-c", "import sys, shadowing.cli; "
                             "print(sorted(m for m in sys.modules "
                             "if m.split('.')[0] in ('numpy', 'scipy')))")
    assert found.returncode == 0 and found.stdout.strip() == "[]"
    base = tmp_path / "traj"
    config = tmp_path / "dichotomy.json"
    config.write_text(json.dumps({
        "shadowing": {"trials": 3, "horizons": [20]},
        "nonshadowing": {"trials": 3, "horizons": [10, 50]}}))
    runs = {
        "generate": ["generate", "--system", "doubling", "--y0", "0.3",
                     "--d", "0.02", "--n", "50", "--seed", "2",
                     "--out", str(base)],
        "check": ["check", "--traj", str(base), "--eps", "0.05"],
        "estimate": ["estimate", "--system", "doubling", "--y0", "0.3",
                     "--d", "0.02", "--eps", "0.05", "--horizons", "10,50",
                     "--trials", "3", "--out", str(tmp_path / "estimate")],
        "dichotomy": ["dichotomy", "--config", str(config),
                      "--out", str(tmp_path / "dichotomy")],
        "attractor": ["attractor", "--trials", "3", "--horizons", "30,100",
                      "--out", str(tmp_path / "attractor")],
    }
    for name, argv in runs.items():
        done = run_python("-X", "importtime", "-m", "shadowing.cli", *argv)
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in done.stderr.splitlines()
                    if line.startswith("import time:")]
        assert done.returncode == 0, (name, done.stderr[-2000:])
        assert "shadowing.experiment" in imported
        assert not any(m.split(".")[0] in ("numpy", "scipy")
                       for m in imported), name
        if name == "check":
            assert json.loads(done.stdout)["verdict"] == "Yes"
    summary = json.loads((tmp_path / "estimate" / "summary.json").read_text())
    assert all(0 <= h["ci_lo"] <= h["p_hat"] <= h["ci_hi"] <= 1
               for h in summary["horizons"])
