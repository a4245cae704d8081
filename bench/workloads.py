"""The benchmark's four workloads, driven through the package's public API.

Each workload splits its work into requests, the unit a user waits on: a
batch of experiment trials (estimate, aggregate, emit) or one ``shadowing
check`` of a stored trajectory. ``before`` makes a request's input outside
the timed region; ``request`` is what the timed loop calls; ``check``
judges a request's outputs right after it, outside the timed region;
``reference`` re-runs a fixed request at the shipped seed and compares its
outputs with ``reference.json``.

``emit`` and ``load_trajectory`` are called through their modules, so that
the traced run's wrappers (``probes.py``) see these calls too.
"""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from pathlib import Path

from shadowing import (ExperimentConfig, Provenance, TrialOutcome, Verdict,
                       attractor_quantities, decide_shadowable,
                       estimate_probability, experiment, generate,
                       orbit_tracks, parse_system, pseudotraj,
                       rotation_first_failure, run_attractor_experiment,
                       save_trajectory, trial_stream)
from shadowing import cli
from shadowing.errors import EnclosureCapError
from shadowing.experiment import dichotomy_bound_curve
from shadowing.rationals import frac, parse_point

from benchstats import digest, min_samples_for

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def request_seed(seed: int, k: int) -> int:
    """Master seed of the k-th request of a run started with ``seed``."""
    return seed * 1_000_000 + k


def read_outputs(out: Path) -> dict:
    """The parts of an experiment's files that the reference pins: the
    trials.csv digest and, per horizon, the counts and p_hat of curve.csv
    (its ``bound`` column is left out on purpose)."""
    with open(out / "curve.csv", newline="") as fh:
        curve = [{"horizon": int(row["horizon"]), "trials": int(row["trials"]),
                  "shadowable": int(row["shadowable"]),
                  "p_hat": float(row["p_hat"])}
                 for row in csv.DictReader(fh)]
    return {"trials_csv_sha256": digest((out / "trials.csv").read_text()),
            "curve": curve}


def reference_problems(name: str, got: dict) -> list[str]:
    want = REFERENCE[name]
    return [f"{name}: reference {key} is {want[key]!r}, got {got.get(key)!r}"
            for key in want if key not in ("seed", "trials")
            and got.get(key) != want[key]]


def outcome_bad(outcome, horizons) -> bool:
    """True when a trial outcome is malformed: an error, an Unknown, or a
    verdict that disagrees with the first empty step."""
    if outcome.error is not None or len(outcome.verdicts) != len(horizons):
        return True
    for m, v in zip(horizons, outcome.verdicts):
        empty_by_m = outcome.first_empty is not None and m >= outcome.first_empty
        if v != ("No" if empty_by_m else "Yes"):
            return True
    return False


# Requests per run that leave ten latencies beyond the reported p90.
P90_REQUESTS = min_samples_for(90)


class Workload:
    """What the runner calls: ``prepare``, ``reference`` and ``once``
    before the timed loop; ``before``, ``request`` and ``check`` for each
    request; ``curve`` in the traced run."""

    name = ""
    shipped_seed = 0
    min_requests = 1
    # Workers and trials of the pooled requests: the reference request and
    # the traced run's T1/T2 pair. 1 means the workload uses no pool.
    pool_workers = 1
    pool_trials = 0
    # The calibration kernel whose arithmetic is closest to the requests'
    # (see benchstats.calibration_kernel).
    kernel = "narrow"
    request_span = "batch"
    cli_args: list = []
    curve_horizons = (1000, 2000, 4000)

    def configure(self) -> dict:
        """Parse the CLI arguments and build config and system the way the
        CLI does at start-up; this is what ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, seed: int, work: Path) -> dict:
        state = self.configure()
        state.update(seed=seed, work=work)
        return state

    def once(self, state, tracer=None):
        """Work done once per run, before the first request."""

    def before(self, state, k: int):
        """Make the input of request k; not timed."""

    def curve(self, state):
        """(system, y0, d, horizons) for the sampler growth curve."""
        cfg = state["base"]
        return cfg.system, cfg.y0, cfg.d, self.curve_horizons


class ExperimentWorkload(Workload):
    """Requests are batches of experiment trials, through ``execute``."""

    request_trials = 1

    def config(self, state, seed: int, trials: int) -> ExperimentConfig:
        return ExperimentConfig.from_dict(
            {**state["data"], "seed": seed, "trials": trials})

    def execute(self, state, config, out: Path, workers: int):
        """Run and emit one batch; returns (trial outcomes, p_hat list)."""
        raise NotImplementedError

    def request(self, state, k: int, workers: int = 1,
                trials: int | None = None):
        config = self.config(state, request_seed(state["seed"], k),
                             trials or self.request_trials)
        return (config, *self.execute(state, config, state["work"] / "req",
                                      workers))

    def trials_of(self, result) -> int:
        return result[0].trials

    def errors_of(self, result) -> int:
        return sum(1 for o in result[1] if o.error is not None)

    def check(self, state, k: int, result) -> int:
        """Number of failed trials in one request."""
        config, outcomes, p_hats = result
        failed = max(0, config.trials - len(outcomes))
        for t, o in enumerate(outcomes):
            failed += (o.trial != t or outcome_bad(o, config.horizons)
                       or not self.trial_ok(state, config, o))
        if any(b > a for a, b in zip(p_hats, p_hats[1:])):
            failed = config.trials
        return min(failed, config.trials)

    def trial_ok(self, state, config, outcome) -> bool:
        return True

    def reference(self, state) -> tuple[int, list[str]]:
        ref = REFERENCE[self.name]
        config = self.config(state, ref["seed"], ref["trials"])
        out = state["work"] / "reference"
        result = (config, *self.execute(state, config, out,
                                        self.pool_workers))
        problems = reference_problems(self.name, read_outputs(out))
        failed = self.check(state, 0, result)
        return ref["trials"], problems + (
            [f"{failed} reference trials failed"] if failed else [])


class EstimateWorkload(ExperimentWorkload):
    """One branch of the shipped ``dichotomy`` run."""

    branch = ""
    cli_args = ["dichotomy"]

    def configure(self) -> dict:
        cli.build_parser().parse_args(self.cli_args)
        data = dict(cli.DEFAULT_DICHOTOMY[self.branch])
        base = ExperimentConfig.from_dict(data)
        return {"data": data, "base": base, "system": base.system}

    def execute(self, state, config, out, workers):
        result = estimate_probability(config, workers=workers)
        if "bounds" in state:
            result = result.with_bounds(*state["bounds"])
        experiment.emit(result, out)
        return (result.trial_outcomes,
                [s.p_hat for s in result.horizon_stats])


class DoublingEstimate(EstimateWorkload):
    name = "doubling-estimate"
    branch = "shadowing"
    shipped_seed = 42
    request_trials = 3
    min_requests = P90_REQUESTS

    def trial_ok(self, state, config, outcome) -> bool:
        """The expanding branch is shadowable at every horizon."""
        return outcome.first_empty is None and all(
            v == "Yes" for v in outcome.verdicts)


class RotationDecay(EstimateWorkload):
    name = "rotation-decay"
    branch = "nonshadowing"
    shipped_seed = 43
    request_trials = 6
    min_requests = P90_REQUESTS
    curve_horizons = (1000, 10_000, 100_000)

    def once(self, state, tracer=None):
        """The bound curve depends on the config only, so a run computes it
        once, as the shipped ``dichotomy`` run does."""
        with tracer.span("bounds", "run") if tracer else nullcontext():
            state["bounds"] = dichotomy_bound_curve(state["base"])

    def trial_ok(self, state, config, outcome) -> bool:
        """The closed-form rotation oracle must find the same first
        failure as the certified propagation; checked on the first trial
        of each request to keep the check cheap."""
        if outcome.trial != 0:
            return True
        traj = generate(state["system"], config.y0, config.d,
                        config.max_horizon,
                        trial_stream(config.seed, outcome.trial))
        return rotation_first_failure(state["system"], traj,
                                      config.eps) == outcome.first_empty


class AnnulusAttractor(ExperimentWorkload):
    """The shipped ``attractor`` run.

    The timed requests run at one worker: through the pool, a request's
    time on a shared 2-vCPU host followed neither the parent's calibration
    kernel nor one run in two processes at once, and its run-to-run spread
    exceeded its bound. The pool still runs in every run's reference request
    (16 trials, two chunks of 8, one per worker), whose outputs must match
    the reference, and the traced run times it against one worker."""

    name = "annulus-attractor"
    shipped_seed = 44
    request_trials = 2
    min_requests = P90_REQUESTS
    pool_workers = 2
    pool_trials = 16
    kernel = "wide"
    cli_args = ["attractor"]

    def configure(self) -> dict:
        cli.build_parser().parse_args(self.cli_args)
        data = dict(cli.DEFAULT_ATTRACTOR)
        system = parse_system(data["system"])
        q = attractor_quantities(system, frac(data["eps"]),
                                 parse_point(data["y0"]))
        data["d"] = str(q.d0 / 2)
        base = ExperimentConfig.from_dict(data)
        return {"data": data, "base": base, "system": system}

    def execute(self, state, config, out, workers):
        report = run_attractor_experiment(config, out=out, workers=workers)
        summary = report["result"]
        outcomes = [TrialOutcome(r["trial"], r["first_empty"],
                                 tuple(r["verdicts"]), r["error"])
                    for r in summary["trials"]]
        return outcomes, [h["p_hat"] for h in summary["horizons"]]


class CheckLong(Workload):
    """``shadowing check`` on stored doubling trajectories up to N=1000.

    Each request checks a trajectory of its own, generated and saved by
    ``before``, so no input is checked twice in a run."""

    name = "check-long"
    shipped_seed = 0
    request_span = "check"
    horizons = (200, 500, 1000)
    min_requests = P90_REQUESTS

    def configure(self) -> dict:
        cli.build_parser().parse_args(
            ["check", "--traj", "input", "--eps",
             cli.DEFAULT_DICHOTOMY["shadowing"]["eps"]])
        data = dict(cli.DEFAULT_DICHOTOMY["shadowing"])
        base = ExperimentConfig.from_dict(data)
        return {"data": data, "base": base, "system": base.system,
                "eps": base.eps}

    def make_input(self, state, seed: int, i: int, base: Path) -> Path:
        """Save the i-th input trajectory of ``seed`` under ``base``."""
        cfg = state["base"]
        n = self.horizons[i % len(self.horizons)]
        traj = generate(cfg.system, cfg.y0, cfg.d, n, trial_stream(seed, i),
                        Provenance("random", seed, i))
        save_trajectory(traj, cfg.system_spec, base)
        return base

    def before(self, state, k):
        state["input"] = self.make_input(state, state["seed"], k,
                                         state["work"] / "input")

    def _check(self, base, eps):
        traj, spec = pseudotraj.load_trajectory(base)
        system = parse_system(spec)
        try:
            verdict = decide_shadowable(system, traj, eps)
        except EnclosureCapError:
            verdict = None
        return traj, system, verdict

    def request(self, state, k):
        return self._check(state["input"], state["eps"])

    def trials_of(self, result) -> int:
        return 1

    def errors_of(self, result) -> int:
        return int(result[2] is None)

    def check(self, state, k, result) -> int:
        traj, system, v = result
        ok = (v is not None and v.verdict == Verdict.YES and v.n_empty is None
              and orbit_tracks(system, traj.points, v.witness, state["eps"]))
        return 0 if ok else 1

    @staticmethod
    def verdict_line(v) -> str:
        if v is None:
            return "error\n"
        w = None if v.witness is None else [str(c) for c in v.witness]
        return f"{v.verdict.value}|{w}|{v.n_empty}\n"

    def reference(self, state):
        ref = REFERENCE[self.name]
        folder = state["work"] / "reference"
        results = [self._check(self.make_input(state, ref["seed"], i,
                                               folder / f"traj{i:04d}"),
                               state["eps"])
                   for i in range(ref["trials"])]
        got = {"verdicts_sha256": digest(
            "".join(self.verdict_line(r[2]) for r in results))}
        failed = sum(self.check(state, 0, r) for r in results)
        return ref["trials"], reference_problems(self.name, got) + (
            [f"{failed} reference checks failed"] if failed else [])


WORKLOADS = {w.name: w for w in (DoublingEstimate(), RotationDecay(),
                                 AnnulusAttractor(), CheckLong())}
