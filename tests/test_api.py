"""The public API and README's Library example, which uses it."""

import contextlib
import io
import re
from pathlib import Path

import shadowing

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_public_api_is_pinned():
    """Any change to the names the package exports edits this list."""
    assert sorted(shadowing.__all__) == [
        "CoverTime", "DichotomyQuantities", "DomainError",
        "EnclosureCapError", "EnclosureSet", "ExperimentConfig",
        "ExperimentResult", "HorizonStat", "InvariantViolation",
        "PiecewiseLinearMap", "Point", "ProductMap", "ProofQuantities",
        "Provenance", "Pseudotrajectory", "SearchFailure", "ShadowVerdict", "Space",
        "TrialOutcome", "UsageError", "Verdict", "annulus", "annulus_spiral",
        "attractor_quantities", "ball_set", "binomial", "bounds", "circle",
        "clopper_pearson", "cover_time", "decide_horizons",
        "decide_shadowable", "delta_for_inclusion", "dichotomy_quantities",
        "doubling", "emit", "enclosure", "errors", "estimate_probability",
        "eta", "experiment", "generate", "interval", "load_trajectory",
        "nonshadow_lower_bound", "orbit_tracks", "parse_system",
        "pseudotraj", "pwl", "rationals", "rotation",
        "rotation_first_failure", "run_attractor_experiment",
        "run_dichotomy_experiment", "save_trajectory", "shadow_set_forward",
        "shadowcheck", "spaces", "systems", "tent", "trial_stream",
        "tube_delta", "worst_case_pseudotrajectory"]


def test_the_readme_library_example_runs():
    """The first ``python`` block under ``## Library`` prints the No
    verdict with its first empty step 50, the closed form's False and the
    drift's certified No."""
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "No None 50", "False", "No"]
