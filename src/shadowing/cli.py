"""Command-line interface.

Subcommands: generate, check, estimate, bounds, dichotomy, attractor.
Values may come from a JSON config file (--config) with individual flags
taking precedence. Numbers are parsed exactly: "0.02" means 1/50 and
"610/987" is the rational itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .errors import (DomainError, EnclosureCapError, InvariantViolation,
                     SearchFailure, UsageError)
from .experiment import (ExperimentConfig, emit, estimate_probability,
                         result_summary, run_attractor_experiment,
                         run_dichotomy_experiment)
from .pseudotraj import (Provenance, generate, load_trajectory,
                         save_trajectory, trial_stream)
from .rationals import frac, json_object, json_text, jsonable, parse_point
from .shadowcheck import decide_shadowable
from .systems import parse_system

DEFAULT_DICHOTOMY = {
    "shadowing": {
        "system": "doubling", "y0": "0.3", "d": "0.02", "eps": "0.05",
        "horizons": [200], "trials": 200, "seed": 42,
    },
    "nonshadowing": {
        "system": "rotation:alpha=610/987", "y0": "0", "d": "0.02",
        "eps": "0.05", "horizons": [10, 50, 200, 500], "trials": 400,
        "seed": 43,
    },
}

DEFAULT_ATTRACTOR = {
    "system": "annulus:lambda=1/2,alpha=610/987,w=0.5", "y0": "1.4,0",
    "eps": "0.2", "horizons": [100, 300, 1000], "trials": 200, "seed": 44,
}


def _add_config_flags(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--system", help="system spec, e.g. rotation:alpha=610/987")
    p.add_argument("--y0", help="start point, e.g. 0.3 or 1.4,0")
    p.add_argument("--d", help="pseudotrajectory step bound")
    p.add_argument("--eps", help="shadowing tolerance")
    p.add_argument("--horizons", help="comma-separated horizons, e.g. 10,50,200")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int, default=1)


def _merge_config(args, defaults=None) -> dict:
    data = dict(defaults or {})
    if args.config:
        data.update(json_object(args.config))
    for key in ("system", "y0", "d", "eps", "horizons", "trials", "seed",
                "out"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    return data


def cmd_generate(args) -> int:
    system = parse_system(args.system)
    rng = trial_stream(args.seed, args.trial)
    traj = generate(system, parse_point(args.y0), frac(args.d), args.n, rng,
                    Provenance("random", args.seed, args.trial))
    save_trajectory(traj, args.system, args.out)
    print(f"wrote {args.out}.csv and {args.out}.json "
          f"({traj.horizon + 1} points, d={traj.d})")
    return 0


def cmd_check(args) -> int:
    traj, system_spec = load_trajectory(args.traj)
    system = parse_system(system_spec)
    verdict = decide_shadowable(system, traj, frac(args.eps))
    text = json_text(verdict.to_json())
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_estimate(args) -> int:
    config = ExperimentConfig.from_dict(_merge_config(args))
    result = estimate_probability(config, workers=args.workers)
    # the text written to summary.json is the text printed
    sys.stdout.write(emit(result, config.out) if config.out
                     else json_text(result_summary(result)))
    return 0


def cmd_bounds(args) -> int:
    system = parse_system(args.system)
    d = frac(args.d)
    eps = frac(args.eps) if args.eps else None
    y0 = parse_point(args.y0) if args.y0 else None
    if system.space.kind == "annulus":
        if eps is None or y0 is None:
            raise UsageError("annulus bounds need --eps and --y0")
        q = bounds_mod.attractor_quantities(system, eps, y0, d=d)
    else:
        q = bounds_mod.dichotomy_quantities(system, d, eps, y0, args.horizon)
    payload = {**q.to_json(), "d": d, "lipschitz": system.lipschitz}
    if eps is not None:
        payload["eps"] = eps
    sys.stdout.write(json_text(jsonable(payload)))
    return 0


def cmd_dichotomy(args) -> int:
    loaded = json_object(args.config) if args.config else {}
    data = {}
    for branch, defaults in DEFAULT_DICHOTOMY.items():
        given = loaded.get(branch, {})
        if not isinstance(given, dict):
            raise UsageError(f"config {branch!r} must be a JSON object, "
                             f"got {given!r}")
        data[branch] = {**defaults, **given}
    cfg_a = ExperimentConfig.from_dict(data["shadowing"])
    cfg_b = ExperimentConfig.from_dict(data["nonshadowing"])
    report = run_dichotomy_experiment(cfg_a, cfg_b, out=args.out,
                                      workers=args.workers,
                                      with_bound_curve=not args.no_bound_curve)
    sys.stdout.write(report.text)  # report.json's text, when written
    return 0


def cmd_attractor(args) -> int:
    data = _merge_config(args, DEFAULT_ATTRACTOR)
    if "d" not in data:
        # the working noise level attractor_quantities defaults to
        system = parse_system(data["system"])
        q = bounds_mod.attractor_quantities(system, frac(data["eps"]),
                                            parse_point(data["y0"]))
        data["d"] = str(q.d)
    config = ExperimentConfig.from_dict(data)
    report = run_attractor_experiment(config, out=config.out,
                                      workers=args.workers)
    sys.stdout.write(report.text)  # report.json's text, when written
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowing",
        description="Random pseudo-orbits: certified shadowing checks and "
                    "shadowing-probability experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a random pseudotrajectory")
    p.add_argument("--system", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", required=True, help="output base path (no suffix)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="decide shadowability of a stored trajectory")
    p.add_argument("--traj", required=True, help="base path written by generate")
    p.add_argument("--eps", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("estimate", help="Monte Carlo shadowing probability")
    _add_config_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="print the constructive quantities")
    p.add_argument("--system", required=True)
    p.add_argument("--d", required=True,
                   help="step bound; on the annulus, the working noise level")
    p.add_argument("--eps")
    p.add_argument("--y0", help="start of the cover-time search; on the "
                                "annulus, the band's entry point")
    p.add_argument("--horizon", type=int, default=10 ** 6,
                   help="step budget of the cover-time search")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("dichotomy", help="run both dichotomy branches")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-bound-curve", action="store_true")
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("attractor", help="absorbing-band experiment")
    _add_config_flags(p)
    p.set_defaults(func=cmd_attractor)

    return parser


def main(argv=None) -> int:
    # every number read or written is an exact rational that a verdict
    # depends on, and what generate writes, check must read back: no
    # limit on the digits of an integer's decimal string
    sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError, SearchFailure, EnclosureCapError,
            OSError) as exc:
        # OSError: a file that cannot be read or written is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        # a guaranteed property failed to hold: a bug, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
