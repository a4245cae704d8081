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

The annulus ``check`` digests pin the bytes of the annulus sets' path
through ``check``, one radial segment times arcs, and the two trajectory
CSVs pin the order in which a spiral's walk reads its draws, the radius's
then the angle's at every step; the CSV digests were recorded while the
spiral was still one map of both coordinates, before it became the product
of its radial contraction and its rotation, each sampled, propagated and
pulled back on its own, and no digest here moved then. The wide annulus
``check`` (d = 1/5, eps = 9/20) puts the arcs of sets of two or more in
normal form 19 times before its witness is pulled back; its digests were
recorded while that normal form was still an angular sweep over arbitrary
box unions, before it became one radial segment times the normal form of
the arcs, and before an annulus set was stored as that segment and its
arcs.

The band-edge annulus ``check`` starts on the band's outer edge (y0 =
(3/2, 0), d = 1/5, eps = 9/20): the radial range of the eps-ball reaches
past the band at 149 of its 201 points, so the ball, built inline in
``shadow_sets`` as ``enclosure._ball`` builds it, and the spiral's step
cut it there, and its verdict is No at step 62. Its digests were
recorded before the spiral's step clipped its box inline and the walk
and the re-check carried their per-scale constants.

The ``pwl-check`` digests pin the stored trajectory and the ``check``
verdict JSON, witness included, of the trajectories that run the
interval, multi-piece and decreasing arithmetic through ``check``: tent
``s=3/2``, the two-piece circle map ``pwl:0:5/2,2/5:5/3`` at small and
at large d and eps (where its images are cut and its shadow sets
normalized), ``pwl:0:3,1/2:-1``, whose witness is pulled back through a
decreasing piece, and ``pwl:0:-2``, the one-piece circle map x -> -2x,
whose one image arc runs backwards from the image of a fragment's start
(a Yes whose witness has about 350 bits), and two doubling checks of one
trajectory at eps 49/100, where most pull-back steps find two
preimages in a set that is not the whole circle and the last arc wraps
past 1, and at eps 1/2, where every set is the whole circle. The first
four were recorded before the pull-back and the re-check ran inline in
the maps, the fifth before the walk stepped its point and propagation
mapped and clipped a one-fragment set inline, the two doubling checks
while the pull-back still tried every preimage of its point in turn.

The ``bounds`` digests pin the exit status, stdout and stderr of the
README's three ``bounds`` examples and of three cover searches that fail:
two orbits seen to cycle, and the tent ``s=3/2`` net of 20,000 centers,
one of whose balls lies outside the image of the space.
"""

import hashlib

import pytest

from shadowing import enclosure

from shadowing import (ExperimentConfig, run_attractor_experiment,
                       run_dichotomy_experiment)
from shadowing.cli import DEFAULT_ATTRACTOR, main
from shadowing.experiment import emit, estimate_probability

EXPERIMENT_FILES = ("summary.json", "curve.csv", "trials.csv")

NO_OUTPUT = hashlib.sha256(b"").hexdigest()

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
    # each case of PWL_CHECKS
    "pwl-check": {
        "tent/traj.csv":
            "33a9b272e5edb76a279185d1641117c5aaafe9263a83b27a739cf13b624cbe6a",
        "tent/verdict.json":
            "73a30a0687b0f4a878d4695bb1c52671ac96704de393a7c1a586aa614c8d94cd",
        "pwl/traj.csv":
            "dd6f0dbd4461e7c912880b6a20fbe0088f0c79e92f4ec4315b2f7a31f8a3d679",
        "pwl/verdict.json":
            "b63b128fc53181f450e984e7299d70b6a949f347517512f56ae50b7faf2e5982",
        "pwl-cut/traj.csv":
            "806e645faa61c32e18d91d2ae5865086ef368efbd138d970b88a65ad2a626cd8",
        "pwl-cut/verdict.json":
            "d417c94344129f62499d6f7842de8e3adfd149c9f4e5dd8699aff2811cad3143",
        "pwl-decreasing/traj.csv":
            "ea96f4d397419b4ba7c4a8824cff2aef106eb3202a8be7e823422d892502dfb0",
        "pwl-decreasing/verdict.json":
            "3f2b2be59fac75e0c8c7de2707f7ffca46d15ce46d4f13d467d2e8ef0a97cf0a",
        "pwl-flip/traj.csv":
            "a79acd9616b9d758ccac23211b303cc8a43221adb440b0a6ae22a645e5adbf6d",
        "pwl-flip/verdict.json":
            "5874477b77c5d31482e5ad8f3e445b2ae4d06c49e739fe6bd18cc3a469bd3107",
        "doubling-two-preimages/traj.csv":
            "ad590c7ac047de8303139dbfcafa52d10e62897805d828246c6b1dd82e451833",
        "doubling-two-preimages/verdict.json":
            "1ff7a18ce511621646a6f1219bf7db1af1adcf8811014865a1fe7bdca6162c5d",
        "doubling-whole-circle/traj.csv":
            "ad590c7ac047de8303139dbfcafa52d10e62897805d828246c6b1dd82e451833",
        "doubling-whole-circle/verdict.json":
            "b05d0312a1c3d2ba76a09e81fd0d2746b0434677d9eb5fa8e1492133f479de78",
    },
    # exit status, stdout digest, stderr digest
    "bounds": {
        "rotation:alpha=610/987 --d 0.02 --eps 0.05 --y0 0": (
            0,
            "a8336cf3e64c2d91475902fbb9191f6fe475a41f7f19c0ace1a37d16e46fa33b",
            NO_OUTPUT),
        "annulus:lambda=1/2,alpha=610/987,w=0.5 --d 0.01 --eps 0.2 "
        "--y0 1.4,0": (
            0,
            "6c8d6184ffb3409bad9478efd802f5f2a2776d7eda510ec8996fb72e524daeeb",
            NO_OUTPUT),
        "tent:s=3/2 --d 0.02 --eps 0.05": (
            0,
            "af26f9e30a8d66c3be79e1d52fba5f4c9883fe931ea6d4c1ffa574f12999eb1f",
            NO_OUTPUT),
        "doubling --d 0.02 --eps 0.05 --y0 0.3": (
            2,
            NO_OUTPUT,
            "59786870b3f0d870f5c41a15b772b22d9e07a3f345bc759f01e21348c31e7d6f"),
        "tent:s=2 --d 0.02 --eps 0.05 --y0 0.3": (
            2,
            NO_OUTPUT,
            "8b180692aa0c82b7464c1f0c757e1654108be4502ba0990b89ca87b1ff921c7a"),
        "tent:s=3/2 --d 1/1000 --y0 3/10": (
            2,
            NO_OUTPUT,
            "ce01cc9ba999c612ce19f9efabbf6be2a0b77bfbae30f2b635ae90a121e9fc52"),
    },
    "annulus-check": {
        "traj50.csv":
            "3d2da86334dc7f6be06b622e8b42e7a6dc97c37b90d6cfbe04ef8c322ebfced1",
        "traj1000.csv":
            "efa1e6fbdfe4f67b8e13195ad7ac03151452c5f02f88e3226ccba71c8cb94d6e",
        "verdict50_eps0.05.json":
            "f062552b82d31b3dfb1dfbdedd5d56c5587ddd96876ed1b6d5fa2070a47a235f",
        "verdict50_eps0.2.json":
            "f9bea204713037996594bd15e144be7bab35d7596aceadb4b528b60cd8bf5288",
        "verdict1000_eps0.05.json":
            "8a4bae6b2d2dd3d8d76b80ce9868d8a90c8ba45711669b1746edd245bef2a378",
        "verdict1000_eps0.2.json":
            "e442bf5baf535df550862bcaa5d155d12688732fcae984d10031fb5cf3e9a0f3",
    },
    "wide-annulus-check": {
        "traj.csv":
            "c51258547bb73bde1a62a6950ed2ac824248b2614d05c96fbe37d002295a5c29",
        "stdout":
            "6a8a63a6d56c9d6eea54b2c09f6e390d8aaf12929dad998302ce90260bc8d233",
    },
    "band-edge-annulus-check": {
        "traj.csv":
            "a1b0334643ec3a648b02d57c75a7c39df56e14026144b873415f29067ac3259a",
        "stdout":
            "87837745c8dc8f540dad571edf1ad3b04a06f963ea7f2ffbb31c1286bb85d9bd",
    },
}


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def text_sha(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
    """The spiral trajectories of the shipped attractor's d and seed, and
    their ``check`` JSONs: the draw order's bytes and the spiral's sets'."""
    out = {}
    for n in (50, 1000):
        base = tmp / f"traj{n}"
        assert main(["generate", "--system",
                     "annulus:lambda=1/2,alpha=610/987,w=0.5", "--y0", "1.4,0",
                     "--d", "9/800", "--n", str(n), "--seed", "44",
                     "--out", str(base)]) == 0
        out[f"traj{n}.csv"] = sha(base.with_suffix(".csv"))
        for eps in ("0.05", "0.2"):
            verdict = tmp / f"verdict{n}_eps{eps}.json"
            assert main(["check", "--traj", str(base), "--eps", eps,
                         "--out", str(verdict)]) == 0
            out[verdict.name] = sha(verdict)
    capsys.readouterr()
    return out


# generate (system, y0, d, n; seed 7), then check at eps
PWL_CHECKS = {
    "tent": ("tent:s=3/2", "0.3", "0.01", "200", "0.05"),
    "pwl": ("pwl:0:5/2,2/5:5/3", "0.3", "0.02", "500", "0.05"),
    "pwl-cut": ("pwl:0:5/2,2/5:5/3", "0.3", "1/5", "100", "6/25"),
    "pwl-decreasing": ("pwl:0:3,1/2:-1", "0.3", "0.02", "300", "0.05"),
    "pwl-flip": ("pwl:0:-2", "0.3", "0.02", "300", "0.05"),
    "doubling-two-preimages": ("doubling", "0.3", "0.02", "300", "49/100"),
    "doubling-whole-circle": ("doubling", "0.3", "0.02", "300", "1/2"),
}


@pytest.mark.parametrize("case", PWL_CHECKS)
def test_pwl_check_matches_golden(tmp_path, capsys, case):
    spec, y0, d, n, eps = PWL_CHECKS[case]
    base, verdict = tmp_path / "traj", tmp_path / "verdict.json"
    assert main(["generate", "--system", spec, "--y0", y0, "--d", d,
                 "--n", n, "--seed", "7", "--out", str(base)]) == 0
    assert main(["check", "--traj", str(base), "--eps", eps,
                 "--out", str(verdict)]) == 0
    capsys.readouterr()
    golden = GOLDEN["pwl-check"]
    assert sha(base.with_suffix(".csv")) == golden[f"{case}/traj.csv"]
    assert sha(verdict) == golden[f"{case}/verdict.json"]


def test_wide_annulus_check_matches_golden(tmp_path, capsys, monkeypatch):
    normalize = enclosure._normalize_arcs
    several = []

    def counted(arcs, unit):
        several.append(len(arcs) >= 2)
        return normalize(arcs, unit)

    base = tmp_path / "traj"
    assert main(["generate", "--system",
                 "annulus:lambda=1/2,alpha=610/987,w=0.5", "--y0", "1.4,0",
                 "--d", "1/5", "--n", "100", "--seed", "0",
                 "--out", str(base)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(enclosure, "_normalize_arcs", counted)
    assert main(["check", "--traj", str(base), "--eps", "9/20"]) == 0
    assert sum(several) == 19
    assert {"traj.csv": sha(base.with_suffix(".csv")),
            "stdout": text_sha(capsys.readouterr().out)} \
        == GOLDEN["wide-annulus-check"]


def test_band_edge_annulus_check_matches_golden(tmp_path, capsys):
    base = tmp_path / "traj"
    assert main(["generate", "--system",
                 "annulus:lambda=1/2,alpha=610/987,w=0.5", "--y0", "1.5,0",
                 "--d", "1/5", "--n", "200", "--seed", "3",
                 "--out", str(base)]) == 0
    capsys.readouterr()
    assert main(["check", "--traj", str(base), "--eps", "9/20"]) == 0
    assert {"traj.csv": sha(base.with_suffix(".csv")),
            "stdout": text_sha(capsys.readouterr().out)} \
        == GOLDEN["band-edge-annulus-check"]


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


@pytest.mark.parametrize("args", GOLDEN["bounds"])
def test_bounds_output_matches_golden(capsys, args):
    status = main(["bounds", "--system", *args.split()])
    out = capsys.readouterr()
    assert (status, text_sha(out.out), text_sha(out.err)) \
        == GOLDEN["bounds"][args]
