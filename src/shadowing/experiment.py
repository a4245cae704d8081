"""Monte Carlo estimation of shadowing probability and the shipped experiments.

An experiment draws independent random pseudotrajectories and decides
shadowability of every horizon prefix on the same samples, so the
estimated curve p_hat(N) is nonincreasing by construction. A trial samples
its trajectory only while its shadow set lives: up to the first empty set,
or to the largest horizon if none is empty, since no verdict reads a later
point. Each trial owns a stream derived from (master seed, trial),
making runs reproducible and trials order-independent; reruns of the same
config produce byte-identical output files.

Every verdict is exact. A trial whose shadow sets outgrow the fragment cap
gets Unknown at every horizon, with the error text; Unknowns are excluded
from both the numerator and the denominator of p_hat and reported
separately.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from . import bounds as bounds_mod
# _aggregate calls clopper_pearson through this module's namespace, where
# bench/probes.py wraps it
from .binomial import clopper_pearson
from .errors import DomainError, EnclosureCapError, InvariantViolation, UsageError
# generate, and orbit_tracks, pull_back_witness and shadow_set_forward
# below, are unused here: a trial reads its walk's points directly.
# bench/probes.py looks all four up here
from .pseudotraj import LatticeWalk, generate, trial_stream
from .rationals import frac, jsonable, parse_point, point_text
from .shadowcheck import (horizon_verdicts, orbit_tracks, pull_back_witness,
                          shadow_set_forward, shadow_sets)
from .systems import AnnulusSpiral, parse_system


@dataclass(frozen=True)
class ExperimentConfig:
    system_spec: str
    y0: tuple
    d: Fraction
    eps: Fraction
    horizons: tuple
    trials: int
    seed: int
    out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("need at least one trial")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.d <= 0 or self.eps <= 0:
            raise DomainError("d and eps must be positive")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise DomainError("horizons must increase strictly")
        if any(h < 0 for h in self.horizons):
            raise DomainError("horizons must be nonnegative")

    @property
    def system(self):
        return parse_system(self.system_spec)

    @property
    def max_horizon(self) -> int:
        return max(self.horizons) if self.horizons else 0

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if data.get("mode", "exact") != "exact":
            raise UsageError(f"checker mode {data['mode']!r} is not "
                             "supported; every check is exact")
        return cls(
            system_spec=data["system"],
            y0=parse_point(data["y0"]),
            d=frac(data["d"]),
            eps=frac(data["eps"]),
            horizons=tuple(int(h) for h in data.get("horizons", [])),
            trials=int(data.get("trials", 1)),
            seed=int(data.get("seed", 0)),
            out=data.get("out"),
        )

    def to_jsonable(self) -> dict:
        return {
            "system": self.system_spec,
            "y0": [str(c) for c in self.y0],
            "d": str(self.d),
            "eps": str(self.eps),
            "horizons": list(self.horizons),
            "trials": self.trials,
            "seed": self.seed,
            "mode": "exact",  # the only checker; kept in the output
        }


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    first_empty: int | None
    verdicts: tuple
    error: str | None = None


@dataclass(frozen=True)
class HorizonStat:
    horizon: int
    decided: int
    shadowable: int
    unknown: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    bound: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    horizon_stats: tuple
    trial_outcomes: tuple
    diagnostics: dict = field(default_factory=dict)

    def with_bounds(self, bound_by_horizon: dict,
                    diagnostics: dict) -> "ExperimentResult":
        stats = tuple(replace(s, bound=bound_by_horizon.get(s.horizon))
                      for s in self.horizon_stats)
        return replace(self, horizon_stats=stats,
                       diagnostics={**self.diagnostics, **diagnostics})


def _outside_band(taken, n, rho) -> bool:
    """Whether point n of ``taken`` lies outside the annulus band
    |r - 1| <= rho, read exactly from its numerator and scale."""
    return abs(taken.nums[n][0] - taken.scales[n]) * rho.denominator \
        > rho.numerator * taken.scales[n]


def _run_trial(system, config: ExperimentConfig, trial: int,
               band=None) -> TrialOutcome:
    """Sample one trajectory while its shadow set lives, decide every
    horizon prefix on it.

    Sampling and propagation are one loop that stops at the first empty
    set; no verdict reads a later point. ``band`` is (rho, n0) for
    attractor runs: every point from step n0 on must lie in the absorbing
    band, else the bound computation is wrong. The check reads the walk's
    exact points from n0 on, sampling on past a trial that stopped sooner.
    A step moves the radius by |r' - 1| <= lam |r - 1| + d, truncated or
    not, so when lam * rho + d <= rho (every d < d0) one point in the band
    keeps every later one in it and the check stops at the first point;
    otherwise it reads on to the largest horizon.
    """
    walk = LatticeWalk(system, config.y0, config.d, config.max_horizon,
                       trial_stream(config.seed, trial))
    steps = iter(walk)
    try:
        found = horizon_verdicts(system,
                                 list(shadow_sets(system, steps, config.eps)),
                                 walk.taken, config.eps, config.horizons)
        outcome = TrialOutcome(trial, found.first_empty,
                               tuple(v.value for v in found.verdicts))
    except EnclosureCapError as exc:
        outcome = TrialOutcome(trial, None,
                               ("Unknown",) * len(config.horizons),
                               error=str(exc))
    if band is not None:
        rho, n0 = band
        closed = system.lam * rho + config.d <= rho
        taken = walk.taken
        for n in range(n0, config.max_horizon + 1):
            while len(taken) <= n:
                next(steps)
            if _outside_band(taken, n, rho):
                raise InvariantViolation(
                    f"trial {trial}: point {point_text(taken[n])} at step "
                    f"{n} escaped the absorbing band of half-width {rho} "
                    f"(entry step {n0})")
            if closed:
                break
    return outcome


def _aggregate(config: ExperimentConfig, outcomes) -> ExperimentResult:
    stats = []
    for i, m in enumerate(config.horizons):
        yes = sum(1 for o in outcomes if o.verdicts[i] == "Yes")
        no = sum(1 for o in outcomes if o.verdicts[i] == "No")
        unknown = sum(1 for o in outcomes if o.verdicts[i] == "Unknown")
        decided = yes + no
        p_hat = yes / decided if decided else float("nan")
        ci_lo, ci_hi = clopper_pearson(yes, decided)
        stats.append(HorizonStat(m, decided, yes, unknown, p_hat,
                                 ci_lo, ci_hi))
    return ExperimentResult(config, tuple(stats), tuple(outcomes))


def estimate_probability(config: ExperimentConfig,
                         workers: int = 1,
                         _band=None) -> ExperimentResult:
    """Monte Carlo estimate of the shadowing probability at each horizon.

    All horizon prefixes of a trial are decided on the same trajectory, so
    the p_hat column is nonincreasing. Fully reproducible from the master
    seed; ``workers`` > 1 fans trials out to processes without changing any
    output, and fewer than 1 is a ``UsageError``.
    """
    if workers < 1:
        raise UsageError("workers must be at least 1")
    args = (repeat(config.system), repeat(config), range(config.trials),
            repeat(_band))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, *args, chunksize=8))
    else:
        outcomes = list(map(_run_trial, *args))
    return _aggregate(config, outcomes)


# -- shipped experiments ----------------------------------------------------

def dichotomy_bound_curve(config: ExperimentConfig) -> tuple[dict, dict]:
    """Theoretical nonshadowability bound for a rotation branch.

    Blocks of length L = K + N + 1 come from
    ``bounds.dichotomy_quantities``; the chance that a k-block prefix
    shadows is then at most (1 - eta^L)^k, evaluated exactly by
    ``bounds.nonshadow_lower_bound`` and rounded to a float only when
    written. Returns (bound by horizon, diagnostics): the quantities record
    plus the bound curve, or the record alone where eps >= 1/4 leaves no L.
    """
    system = config.system
    if system.kind != "rotation":
        return {}, {}
    q = bounds_mod.dichotomy_quantities(system, config.d, config.eps,
                                        config.y0)
    if q.block_length is None:
        return {}, q.to_json()
    by_horizon = {}
    curve = []
    for m in config.horizons:
        k = max((m + 1) // q.block_length - 1, 0)
        lower = bounds_mod.nonshadow_lower_bound(q.eta_lo, q.block_length, k)
        by_horizon[m] = float(1 - lower)  # upper bound on p_hat
        curve.append({"horizon": m, "blocks": k,
                      "nonshadow_lower": float(lower)})
    return by_horizon, {**q.to_json(), "nonshadow_bound_curve": curve}


def run_dichotomy_experiment(config_shadowing: ExperimentConfig,
                             config_nonshadowing: ExperimentConfig,
                             out=None, workers: int = 1,
                             with_bound_curve: bool = True) -> dict:
    """Run both branches and produce a side-by-side report.

    The first config should exhibit p_hat near 1 at every horizon, the
    second a decay of p_hat toward 0; the rotation branch report includes
    the theoretical block bound. It is computed first, so a failing cover
    search ends the run before any trial.
    """
    bound_by_h, diag = (dichotomy_bound_curve(config_nonshadowing)
                        if with_bound_curve else ({}, {}))
    res_a = estimate_probability(config_shadowing, workers)
    res_b = estimate_probability(config_nonshadowing, workers)
    if diag:
        res_b = res_b.with_bounds(bound_by_h, diag)
    report = {
        "shadowing_branch": result_summary(res_a),
        "nonshadowing_branch": result_summary(res_b),
    }
    if out is not None:
        out = Path(out)
        emit(res_a, out / "shadowing")
        emit(res_b, out / "nonshadowing")
        _write_json(out / "report.json", report)
    return report


def run_attractor_experiment(config: ExperimentConfig, out=None,
                             workers: int = 1) -> dict:
    """Attractor-branch experiment on an annulus contraction-rotation.

    Computes the absorbing-band data, rejects configs with d >= d0,
    verifies that every trial enters and stays in the band from step n0 on
    (a violation aborts the run: it would mean the bound itself is wrong),
    and reports the decay of p_hat at the quarter scale eps0 = eps / 4.
    """
    system = config.system
    if not isinstance(system, AnnulusSpiral):
        raise UsageError("attractor experiment needs an annulus spiral system")
    q = bounds_mod.attractor_quantities(system, config.eps, config.y0,
                                        d=config.d)
    inner = replace(config, eps=q.eps0)
    result = estimate_probability(inner, workers, _band=(q.rho, q.n0))
    result = result.with_bounds({}, {"quantities": q.to_json()})
    report = {
        "quantities": q.to_json(),
        "result": result_summary(result),
    }
    if out is not None:
        out = Path(out)
        emit(result, out)
        _write_json(out / "report.json", report)
    return report


# -- persistence ------------------------------------------------------------

def result_summary(result: ExperimentResult) -> dict:
    return {
        "config": result.config.to_jsonable(),
        "horizons": [
            {
                "horizon": s.horizon,
                "trials": s.decided,
                "shadowable": s.shadowable,
                "unknown": s.unknown,
                "p_hat": s.p_hat,
                "ci_lo": s.ci_lo,
                "ci_hi": s.ci_hi,
                "bound": s.bound,
            }
            for s in result.horizon_stats
        ],
        "diagnostics": jsonable(result.diagnostics),
        # each outcome's fields; asdict deep-copies them at 40 times the cost
        "trials": [dict(vars(o)) for o in result.trial_outcomes],
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # one write: json.dump writes each token on its own
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit(result: ExperimentResult, path) -> None:
    """Write summary.json, curve.csv and trials.csv under ``path``.

    Outputs are pure functions of the result, hence byte-identical across
    reruns of the same config.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "summary.json", result_summary(result))

        curve = io.StringIO()
        writer = csv.writer(curve, lineterminator="\n")
        writer.writerow(["horizon", "trials", "shadowable", "p_hat",
                         "ci_lo", "ci_hi", "bound"])
        for s in result.horizon_stats:
            writer.writerow([s.horizon, s.decided, s.shadowable,
                             repr(s.p_hat), repr(s.ci_lo), repr(s.ci_hi),
                             "" if s.bound is None else repr(s.bound)])
        (out / "curve.csv").write_text(curve.getvalue())

        trials = io.StringIO()
        writer = csv.writer(trials, lineterminator="\n")
        writer.writerow(["trial", "seed", "verdict", "first_empty"])
        for o in result.trial_outcomes:
            final = o.verdicts[-1] if o.verdicts else (
                "Yes" if o.first_empty is None else "No")
            writer.writerow([o.trial, result.config.seed, final,
                             "" if o.first_empty is None else o.first_empty])
        (out / "trials.csv").write_text(trials.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write experiment outputs under {out}: {exc}") \
            from exc
