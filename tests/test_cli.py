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
                       experiment, run_attractor_experiment, shadowcheck)
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


@pytest.mark.parametrize("horizons,want", [("12", [12]),
                                            ("10,50", [10, 50])])
def test_config_horizons_in_one_string_are_comma_separated(
        tmp_path, capsys, horizons, want):
    """A config file's horizons given as one string read as the
    ``--horizons`` flag's text does, not character by character."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "doubling", "y0": "1/3", "d": "0.02", "eps": "0.05",
        "horizons": horizons, "trials": 2, "seed": 1}))
    code, out, _ = run(capsys, "estimate", "--config", str(cfg))
    assert code == 0
    assert [h["horizon"] for h in json.loads(out)["horizons"]] == want


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


def test_bounds_refuses_a_negative_cover_budget(capsys):
    """A negative ``--horizon`` is an input error that names the budget,
    not a cover search that failed on the orbit."""
    code, _, err = run(capsys, "bounds", "--system", "rotation:alpha=610/987",
                       "--d", "0.02", "--eps", "0.05", "--y0", "0",
                       "--horizon", "-1")
    assert code == 2
    assert "step budget (horizon) must be nonnegative, got -1" in err
    assert "never entered" not in err


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
    missing directory, a missing config file, experiment outputs under a
    path that is a file, and a verdict file or an experiment output file
    whose path is a directory."""
    base = tmp_path / "t"
    main(["generate", "--system", "doubling", "--y0", "0.3", "--d", "0.02",
          "--n", "5", "--out", str(base)])
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    (tmp_path / "verdict").mkdir()
    (tmp_path / "outputs" / "curve.csv").mkdir(parents=True)
    estimate = ["estimate", "--system", "doubling", "--y0", "0.3", "--d",
                "0.02", "--eps", "0.05", "--horizons", "5", "--trials", "1"]
    return {
        "missing-traj": ["check", "--traj", str(tmp_path / "missing"),
                         "--eps", "0.05"],
        "missing-out-dir": ["check", "--traj", str(base), "--eps", "0.05",
                            "--out", str(tmp_path / "no" / "v.json")],
        "missing-config": ["estimate", "--config",
                           str(tmp_path / "missing.json")],
        "missing-dichotomy-config": ["dichotomy", "--config",
                                     str(tmp_path / "missing.json")],
        "emit": [*estimate, "--out", str(blocker / "out")],
        "check-out-is-a-directory": ["check", "--traj", str(base), "--eps",
                                     "0.05", "--out",
                                     str(tmp_path / "verdict")],
        "emit-out-is-a-directory": [*estimate, "--out",
                                    str(tmp_path / "outputs")],
    }


@pytest.mark.parametrize("case", ["missing-traj", "missing-out-dir",
                                  "missing-config",
                                  "missing-dichotomy-config", "emit",
                                  "check-out-is-a-directory",
                                  "emit-out-is-a-directory"])
def test_a_file_that_cannot_be_read_or_written_exits_two(tmp_path, capsys,
                                                        case):
    argv = unreadable_or_unwritable(tmp_path)[case]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if case.startswith("emit"):
        assert out == ""
        assert f"cannot write experiment outputs under {tmp_path}" in err


def stored(tmp_path, sidecar, csv, name="hand"):
    """A trajectory written by hand: its sidecar text and its CSV text."""
    base = tmp_path / name
    base.with_suffix(".json").write_text(sidecar)
    base.with_suffix(".csv").write_text(csv)
    return str(base)


def malformed(tmp_path):
    """argv that carry a number, a trajectory file or a config that cannot
    be read, each with a part of the message it must exit 2 with."""
    def estimate(**changed):
        flags = {"--system": "doubling", "--y0": "0.3", "--d": "0.02",
                 "--eps": "0.05", "--horizons": "5", "--trials": "1",
                 **changed}
        return ["estimate", *(c for item in flags.items() for c in item)]

    def check(name, sidecar='{"system": "doubling", "d": "1/50"}',
              token="1/3", eps="0.05"):
        base = stored(tmp_path, sidecar, f"n,coord0\n0,1/3\n1,{token}\n",
                      name)
        return ["check", "--traj", base, "--eps", eps]

    def rows(name, text):
        base = stored(tmp_path, '{"system": "doubling", "d": "1/50"}',
                      "n,coord0\n" + text, name)
        return ["check", "--traj", base, "--eps", "0.05"]

    def config(name, text):
        path = tmp_path / f"config-{name}.json"
        path.write_text(text)
        return ["estimate", "--config", str(path)]

    def not_utf8(argv, name):
        (tmp_path / name).write_bytes(b"\xff\xfe")
        return argv

    good = {"system": "doubling", "y0": "0.3", "d": "0.02", "eps": "0.05",
            "horizons": [5], "trials": 1}
    return {
        "estimate-d-abc": (estimate(**{"--d": "abc"}),
                           "not a rational number: 'abc'"),
        "estimate-d-1/0": (estimate(**{"--d": "1/0"}),
                           "not a rational number: '1/0'"),
        "estimate-tent-s-x": (estimate(**{"--system": "tent:s=x"}),
                              "not a rational number: 'x'"),
        "estimate-horizons-10,x": (estimate(**{"--horizons": "10,x"}),
                                   "must be integers: invalid literal"),
        "check-eps-abc": (check("eps", eps="abc"),
                          "not a rational number: 'abc'"),
        "bounds-eps-abc": (["bounds", "--system", "doubling", "--d", "0.02",
                            "--eps", "abc"], "not a rational number: 'abc'"),
        "csv-abc": (check("abc", token="abc"),
                    "abc.csv: line 3: not a rational number: 'abc'"),
        "csv-1/0": (check("zero", token="1/0"),
                    "zero.csv: line 3: not a rational number: '1/0'"),
        "csv-header-x,y": (
            ["check", "--traj", stored(
                tmp_path, '{"system": "doubling", "d": "1/50"}',
                "x,y\n0,1/3\n1,1/2\n", "header"), "--eps", "0.05"],
            "header.csv: line 1: the header is 'x,y', not 'n,coord0' or "
            "'n,coord0,coord1'"),
        "csv-extra-field": (check("extra", token="1/3,9"),
                            "extra.csv: line 3: 3 field(s), the header has 2"),
        "csv-short-row": (rows("short", "0,1/3\n1\n"),
                          "short.csv: line 3: 1 field(s), the header has 2"),
        "csv-wrong-n": (rows("wrong-n", "0,3/10\n7,1/10\n"),
                        "wrong-n.csv: line 3: n is '7', not the row's index 1"),
        "csv-n-not-integer": (rows("n-half", "0,3/10\n1/2,1/10\n"),
                              "line 3: n is '1/2', not the row's index 1"),
        "csv-blank-line": (rows("blank", "0,3/10\n1,1/10\n\n"),
                           "blank.csv: line 4: a blank line"),
        "sidecar-not-json": (check("text", sidecar="{system: doubling"),
                             "text.json: not valid JSON"),
        "sidecar-without-d": (check("no-d", sidecar='{"system": "doubling"}'),
                              "no-d.json: no d"),
        "sidecar-N-disagrees": (
            check("cut", sidecar='{"system": "doubling", "d": "1/50", '
                  '"N": 500}'),
            "cut.csv: 2 row(s), so N is 1, but the sidecar says N is 500"),
        "config-not-json": (config("text", "{trials: 1"),
                            "config-text.json: not valid JSON"),
        "config-trials-x": (config("x", json.dumps({**good, "trials": "x"})),
                            "horizons, trials and seed must be integers"),
        "config-without-d": (config("no-d", json.dumps(
            {k: v for k, v in good.items() if k != "d"})), "config needs 'd'"),
        "config-system-5": (config("system", json.dumps({**good, "system": 5})),
                            "a system spec is a string, got 5"),
        "config-system-list": (config("system-list", json.dumps(
            {**good, "system": [1]})), "a system spec is a string, got [1]"),
        "config-trials-1.5": (config("float", json.dumps({**good,
                                                          "trials": 1.5})),
                              "must be integers: invalid literal for int() "
                              "with base 10: '1.5'"),
        "config-trials-true": (config("bool", json.dumps({**good,
                                                          "trials": True})),
                               "base 10: 'True'"),
        "config-seed-2.0": (config("seed", json.dumps({**good, "seed": 2.0})),
                            "base 10: '2.0'"),
        "config-horizons-5.0": (config("horizons", json.dumps(
            {**good, "horizons": [5.0]})), "base 10: '5.0'"),
        "config-horizons-empty": (config("no-horizons", json.dumps(
            {**good, "horizons": ""})), "must be integers: invalid literal"),
        "config-out-5": (config("out", json.dumps({**good, "out": 5})),
                         "out must be a path string, got 5"),
        "dichotomy-branch-5": (
            ["dichotomy", *config("branch", '{"shadowing": 5}')[1:]],
            "config 'shadowing' must be a JSON object, got 5"),
        "sidecar-system-5": (check("system-5",
                                   sidecar='{"system": 5, "d": "1/50"}'),
                             "a system spec is a string, got 5"),
        "csv-not-utf-8": (not_utf8(check("csv-bytes"), "csv-bytes.csv"),
                          "csv-bytes.csv: not UTF-8 text"),
        "sidecar-not-utf-8": (not_utf8(check("json-bytes"), "json-bytes.json"),
                              "json-bytes.json: not UTF-8 text"),
        "config-not-utf-8": (not_utf8(config("bytes", ""), "config-bytes.json"),
                             "config-bytes.json: not UTF-8 text"),
        "generate-pwl-space-banana": (
            generate("pwl:0:1/2,space=banana", tmp_path / "banana"),
            "unknown pwl space 'banana': expected circle or interval"),
        "generate-pwl-v0-twice": (
            generate("pwl:0:2,v0=1/3,v0=1/5", tmp_path / "v0"),
            "parameter 'v0' given twice"),
        "bounds-alpha-twice": (
            ["bounds", "--system", "rotation:alpha=1/3,alpha=1/5", "--d",
             "0.02", "--eps", "0.05", "--y0", "0"],
            "parameter 'alpha' given twice"),
    }


def generate(spec, out) -> list:
    """``generate`` argv for a short trajectory of the system ``spec``."""
    return ["generate", "--system", spec, "--y0", "0.3", "--d", "0.02",
            "--n", "5", "--out", str(out)]


@pytest.mark.parametrize("case", [
    "estimate-d-abc", "estimate-d-1/0", "estimate-tent-s-x",
    "estimate-horizons-10,x", "check-eps-abc", "bounds-eps-abc", "csv-abc",
    "csv-1/0", "csv-header-x,y", "csv-extra-field", "csv-short-row",
    "csv-wrong-n",
    "csv-n-not-integer", "csv-blank-line", "sidecar-not-json",
    "sidecar-without-d", "sidecar-N-disagrees", "config-not-json",
    "config-trials-x", "config-without-d", "config-system-5",
    "config-system-list",
    "config-trials-1.5", "config-trials-true", "config-seed-2.0",
    "config-horizons-5.0", "config-horizons-empty", "config-out-5",
    "dichotomy-branch-5", "sidecar-system-5", "csv-not-utf-8",
    "sidecar-not-utf-8",
    "config-not-utf-8", "generate-pwl-space-banana", "generate-pwl-v0-twice",
    "bounds-alpha-twice"])
def test_a_malformed_number_or_file_exits_two(tmp_path, capsys, case):
    argv, message = malformed(tmp_path)[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# stored trajectories whose points do not lie in their system's space
OUTSIDE = {
    "annulus-one-coordinate": (
        "annulus:lambda=1/2,alpha=610/987,w=0.5", "n,coord0\n0,1\n1,1\n",
        "point 0: annulus points have 2 coordinate(s), got 1"),
    "interval-below-0": ("tent:s=3/2", "n,coord0\n0,1/3\n1,-1/2\n",
                         "point 1 (-1/2) lies outside the interval"),
    "interval-above-1": ("tent:s=3/2", "n,coord0\n0,3/2\n",
                         "point 0 (3/2) lies outside the interval"),
    "annulus-radius-2": ("annulus:lambda=1/2,alpha=610/987,w=0.5",
                         "n,coord0,coord1\n0,1,0\n1,2,1/3\n",
                         "point 1 (2, 1/3) lies outside the annulus"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE))
def test_a_point_outside_the_space_exits_two(tmp_path, capsys, case):
    system, csv, message = OUTSIDE[case]
    base = stored(tmp_path, json.dumps({"system": system, "d": "1/50"}), csv)
    code, out, err = run(capsys, "check", "--traj", base, "--eps", "0.05")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("name,broken", [
    ("pull_back_witness", lambda *args: None),
    ("orbit_tracks", lambda *args: False),
], ids=["pull-back-finds-none", "re-check-fails"])
def test_a_failed_witness_exits_three(tmp_path, capsys, monkeypatch, name,
                                      broken):
    # exact sets always give a witness that passes: a failure is a bug,
    # not a fragment-cap error (exit 2)
    base = tmp_path / "t"
    run(capsys, "generate", "--system", "doubling", "--y0", "0.3",
        "--d", "0.02", "--n", "30", "--seed", "1", "--out", str(base))
    monkeypatch.setattr(shadowcheck, name, broken)
    code, out, err = run(capsys, "check", "--traj", str(base),
                         "--eps", "0.05", "--out", str(tmp_path / "v.json"))
    assert (code, out) == (3, "")
    assert err == "error: witness extraction failed at horizon 30\n"
    assert not (tmp_path / "v.json").exists()


def test_rejected_attractor_noise_exits_nonzero(capsys):
    code, _, err = run(capsys, "attractor", "--trials", "2",
                       "--horizons", "10", "--d", "0.1")
    assert code == 2
    assert "d0" in err


@pytest.mark.parametrize("w", ["1", "2"])
def test_an_annulus_half_width_of_one_or_more_exits_two(tmp_path, capsys, w):
    """From w = 1 on the band [1 - w, 1 + w] takes radii at or below 0:
    ``bounds`` and ``attractor`` refuse it, naming w, and write nothing."""
    spec = f"annulus:lambda=1/2,alpha=1/3,w={w}"
    for argv in (("bounds", "--system", spec, "--d", "0.01", "--eps", "0.2",
                  "--y0=-0.5,0"),
                 ("attractor", "--system", spec, "--trials", "2",
                  "--horizons", "5", "--out", str(tmp_path / "a"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: annulus half-width w must satisfy 0 < w < 1, "
                       "so every radius is positive\n")
    assert not (tmp_path / "a").exists()


def test_check_reports_fragment_cap_error(tmp_path, capsys, monkeypatch):
    """A two-piece circle map at large d and eps cuts its shadow sets into
    two fragments: at a fragment cap of 1 ``check`` fails the cap, and at
    2 it decides Yes."""
    base = tmp_path / "t"
    run(capsys, "generate", "--system", "pwl:0:5/2,2/5:5/3", "--y0", "0.3",
        "--d", "1/5", "--n", "100", "--seed", "7", "--out", str(base))
    monkeypatch.setattr(enclosure, "DEFAULT_FRAGMENT_CAP", 1)
    code, out, err = run(capsys, "check", "--traj", str(base),
                         "--eps", "6/25")
    assert code == 2
    assert out == ""
    assert err.startswith("error: fragment cap 1 exceeded")
    monkeypatch.setattr(enclosure, "DEFAULT_FRAGMENT_CAP", 2)
    code, out, _ = run(capsys, "check", "--traj", str(base), "--eps", "6/25")
    assert code == 0 and json.loads(out)["verdict"] == "Yes"


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


def test_importing_the_cli_loads_no_process_pool():
    # a run at one worker never starts a pool, so it loads none
    found = run_python("-c", "import sys, shadowing.cli; "
                             "print('multiprocessing' in sys.modules)")
    assert found.returncode == 0 and found.stdout.strip() == "False"


@pytest.mark.parametrize("command,encodings", [
    ("estimate", 1), ("dichotomy", 2), ("attractor", 2)])
def test_the_printed_text_is_the_written_text_encoded_once(
        tmp_path, capsys, monkeypatch, command, encodings):
    """With --out, stdout is the bytes of summary.json (``estimate``) or of
    report.json (``dichotomy``, ``attractor``), and without it the same
    text is printed. Either way each summary, and the attractor's
    quantities record, goes through the indented encoder once."""
    if command == "estimate":
        argv = ["estimate", "--system", "doubling", "--y0", "0.3", "--d",
                "0.02", "--eps", "0.05", "--horizons", "10,50", "--trials",
                "4"]
    elif command == "dichotomy":
        path = tmp_path / "dichotomy.json"
        path.write_text(json.dumps({branch: {"trials": 4}
                                    for branch in DEFAULT_DICHOTOMY}))
        argv = ["dichotomy", "--config", str(path)]
    else:
        argv = ["attractor", "--trials", "4", "--horizons", "10,50"]
    indented = []
    dumps = json.dumps

    def counting_dumps(payload, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(payload)
        return dumps(payload, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    code, printed, _ = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, len(indented)) == (0, encodings)
    written = "summary.json" if command == "estimate" else "report.json"
    assert printed == (tmp_path / "out" / written).read_text()
    indented.clear()
    assert run(capsys, *argv) == (0, printed, "")
    assert len(indented) == encodings
