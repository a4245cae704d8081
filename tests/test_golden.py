"""Golden outputs: SHA-256 digests of emitted files, pinned across versions.

Criterion 9 compares a rerun with a rerun, so it cannot see a change of
bytes between versions of the package. These digests were recorded with the
all-``Fraction`` pipeline (numpy 2.4.6); any change to the arithmetic inside
the sampler, the checker or the experiments must leave every one of them
unchanged. ``p_hat`` is a quotient of two counts, and the Clopper-Pearson
columns are certified doubles computed in the standard library
(``shadowing.binomial``), so no library version moves these bytes. The
random stream was numpy's when they were recorded; ``trial_stream`` now
computes the same stream in the standard library, bit for bit, and no
digest moved.

The ``summary.json``, ``curve.csv`` and ``report.json`` digests whose
``ci_lo`` or ``ci_hi`` digits moved were re-recorded once, when the
intervals stopped coming from scipy's ``beta.ppf``, which rounds to nearest,
and became the outward-rounded exact ends; no other byte moved, and no
``trials.csv`` or ``check`` digest changed.

The attractor ``summary.json`` and ``report.json`` digests were re-recorded
once, when the eight always-null dichotomy keys (``delta1``, ``eta_lo``,
``eta_hi``, ``cover_k1``, ``cover_k2``, ``cover_k``, ``tail_n``,
``block_length``) left their ``quantities`` objects; no other byte moved.

The annulus ``check`` digests pin the bytes of the box algebra's path
through ``check``.
"""

import hashlib

from shadowing import (ExperimentConfig, run_attractor_experiment,
                       run_dichotomy_experiment)
from shadowing.cli import DEFAULT_ATTRACTOR, main
from shadowing.experiment import emit, estimate_probability

EXPERIMENT_FILES = ("summary.json", "curve.csv", "trials.csv")

GOLDEN = {
    "dichotomy": {
        "report.json":
            "e0ba83da04a14335f9ec56b7ec814f38a628412faf57bc011daa51b464a40fe2",
        "shadowing/summary.json":
            "882417d4e7e15890aca0731313205443a07f859e172602d46aa2bc91760b75e3",
        "shadowing/curve.csv":
            "65eea24e8be57efe803e270eea102f519579daf640fa68b8186df7c13f85d094",
        "shadowing/trials.csv":
            "669f296ddfc081c704f658eff181a3c841952cc5c002ecfcc67277b299f5ccc5",
        "nonshadowing/summary.json":
            "aec0e48f84d179201ac42538484f26946ba522348a3242c8087f7267844f437d",
        "nonshadowing/curve.csv":
            "a04bd6df7ba025c476589a20f376d918fa78f1703805a5d5c24abcde70bf8c91",
        "nonshadowing/trials.csv":
            "298e72329da380aac2f0ca53601918990bb0ab5fd1eb1c442f947e72aa0cf242",
    },
    "tent": {
        "summary.json":
            "8e29e469488657bd096aff32bd40c0a64f3c8c594070b68733d5d67c4ec524fb",
        "curve.csv":
            "614dfe2f9c475e6ef44d39b37ff3b2a6d5c9932a22b1f4df19de252b4816ce2e",
        "trials.csv":
            "c6fa979b0475bb6495d84dadb4752cfeb24b3be7c2c6e8672b6d50640d762c53",
    },
    "attractor": {
        "summary.json":
            "18c4e3652785d69a802a2a20d2a350ad1de52aa12637be33ee5b38ed7aade405",
        "curve.csv":
            "2ea1f81e94c3bcfda19e13890546d4c659ed78b089e0fa1048be33593df3c7c1",
        "trials.csv":
            "04d8e9bc0b480062f269f6007c7e63e86fc286963c30ab3c944edd3a37c5b607",
        "report.json":
            "ac568b1c10741072e869aef56d3de71958e8c482d0bf26243f011a15874bf084",
    },
    "check": {
        "traj200.csv":
            "22ab1692cf99694d2ec937470d02e65c1ee1144a61e8c4219a1569b51d2f1855",
        "verdict200.json":
            "bcecdc622b9ade13d988b1eef60c526fcad3928a026870f53320daac893bc426",
        "traj500.csv":
            "0b1cc7529dfe03ae77a2db5a52551ba4464b4ba7832c3d148b66b1ea14782ec3",
        "verdict500.json":
            "698f9c016450b4015751918555d2b77a1a4ee689a410d9660736524476f44727",
        "traj1000.csv":
            "8350a6771605b880b95372143a5d44163f149eaf5a68dedfbd5adf4ae2e9822c",
        "verdict1000.json":
            "df657509847f19512999798cf60177d9bd82fa74f8294e977793ae6fcdae552c",
    },
    "annulus-check": {
        "verdict50_eps0.05.json":
            "f062552b82d31b3dfb1dfbdedd5d56c5587ddd96876ed1b6d5fa2070a47a235f",
        "verdict50_eps0.2.json":
            "f9bea204713037996594bd15e144be7bab35d7596aceadb4b528b60cd8bf5288",
        "verdict1000_eps0.05.json":
            "8a4bae6b2d2dd3d8d76b80ce9868d8a90c8ba45711669b1746edd245bef2a378",
        "verdict1000_eps0.2.json":
            "e442bf5baf535df550862bcaa5d155d12688732fcae984d10031fb5cf3e9a0f3",
    },
}


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(folder, names) -> dict:
    return {name: sha(folder / name) for name in names}


def dichotomy_digests(out, workers=1) -> dict:
    doubling = ExperimentConfig.from_dict({
        "system": "doubling", "y0": "0.3", "d": "0.02", "eps": "0.05",
        "horizons": [50, 200], "trials": 8, "seed": 42})
    rotation = ExperimentConfig.from_dict({
        "system": "rotation:alpha=610/987", "y0": "0", "d": "0.02",
        "eps": "0.05", "horizons": [10, 50, 200, 500], "trials": 8,
        "seed": 43})
    run_dichotomy_experiment(doubling, rotation, out=out, workers=workers)
    return {"report.json": sha(out / "report.json"),
            **{f"shadowing/{k}": v for k, v in
               digests(out / "shadowing", EXPERIMENT_FILES).items()},
            **{f"nonshadowing/{k}": v for k, v in
               digests(out / "nonshadowing", EXPERIMENT_FILES).items()}}


def tent_digests(out) -> dict:
    config = ExperimentConfig.from_dict({
        "system": "tent:s=3/2", "y0": "0.3", "d": "0.02", "eps": "0.05",
        "horizons": [10, 50, 200], "trials": 8, "seed": 45})
    emit(estimate_probability(config), out)
    return digests(out, EXPERIMENT_FILES)


def attractor_digests(out, workers=1) -> dict:
    data = dict(DEFAULT_ATTRACTOR, trials=8, d="9/800")
    run_attractor_experiment(ExperimentConfig.from_dict(data), out=out,
                             workers=workers)
    return digests(out, EXPERIMENT_FILES + ("report.json",))


def check_digests(tmp, capsys) -> dict:
    out = {}
    for i, n in enumerate((200, 500, 1000)):
        base = tmp / f"traj{n}"
        verdict = tmp / f"verdict{n}.json"
        assert main(["generate", "--system", "doubling", "--y0", "0.3",
                     "--d", "0.02", "--n", str(n), "--seed", "7",
                     "--trial", str(i), "--out", str(base)]) == 0
        assert main(["check", "--traj", str(base), "--eps", "0.05",
                     "--out", str(verdict)]) == 0
        out[f"traj{n}.csv"] = sha(base.with_suffix(".csv"))
        out[f"verdict{n}.json"] = sha(verdict)
    capsys.readouterr()
    return out


def annulus_check_digests(tmp, capsys) -> dict:
    """``check`` JSONs of one spiral trajectory: the box algebra's bytes."""
    out = {}
    for n in (50, 1000):
        base = tmp / f"traj{n}"
        assert main(["generate", "--system",
                     "annulus:lambda=1/2,alpha=610/987,w=0.5", "--y0", "1.4,0",
                     "--d", "9/800", "--n", str(n), "--seed", "44",
                     "--out", str(base)]) == 0
        for eps in ("0.05", "0.2"):
            verdict = tmp / f"verdict{n}_eps{eps}.json"
            assert main(["check", "--traj", str(base), "--eps", eps,
                         "--out", str(verdict)]) == 0
            out[verdict.name] = sha(verdict)
    capsys.readouterr()
    return out


def test_dichotomy_outputs_match_golden(tmp_path):
    assert dichotomy_digests(tmp_path) == GOLDEN["dichotomy"]


def test_dichotomy_outputs_match_golden_at_two_workers(tmp_path):
    assert dichotomy_digests(tmp_path, workers=2) == GOLDEN["dichotomy"]


def test_tent_outputs_match_golden(tmp_path):
    assert tent_digests(tmp_path) == GOLDEN["tent"]


def test_attractor_outputs_match_golden(tmp_path):
    assert attractor_digests(tmp_path) == GOLDEN["attractor"]


def test_attractor_outputs_match_golden_at_two_workers(tmp_path):
    assert attractor_digests(tmp_path, workers=2) == GOLDEN["attractor"]


def test_check_outputs_match_golden(tmp_path, capsys):
    assert check_digests(tmp_path, capsys) == GOLDEN["check"]



def test_annulus_check_outputs_match_golden(tmp_path, capsys):
    assert annulus_check_digests(tmp_path, capsys) == GOLDEN["annulus-check"]
