"""Span wrappers around the package's own layer functions.

The traced run swaps the names that ``shadowing.experiment``,
``shadowing.shadowcheck``, ``shadowing.bounds`` and ``shadowing.pseudotraj``
look up at call time for wrappers that open a span around the original
function. The spans therefore time the package's own trial, check,
aggregation and emit code, not a copy of it, and follow that code when it
changes. The package has no spans of its own; ``traced_package`` puts every
name back when it exits. Worker processes never see the wrappers: the
traced run calls the package at one worker.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from shadowing import bounds, experiment, pseudotraj, shadowcheck

from benchstats import denominator_bits

EMIT_FILES = ("summary.json", "curve.csv", "trials.csv")


class Counters:
    """Counts taken at the layer boundaries of the traced run."""

    def __init__(self):
        self.trials = 0
        self.sets_built = 0
        self.sets_live = 0
        self.fragments_max = 0
        self.point_bits_max = 0
        self.witness_bits_max = 0
        self.cap_errors = 0
        self.emit_bytes = []
        self.plain_s = 0.0      # untraced run of the same requests
        self.traced_s = 0.0     # traced run of the same requests
        self.pool_t1_s = 0.0    # pooled-size requests at one worker
        self.pool_s = 0.0       # the same requests through the pool
        self.pool_workers = 1


def _wrap(tracer, original, span_name, record, trace_id):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name, trace_id(args)) as span:
            result = original(*args, **kwargs)
        record(span, args, result)
        return result
    return wrapper


@contextmanager
def traced_package(tracer, counters: Counters):
    """Within the block, calls into the package's layers record spans in
    ``tracer`` and counts in ``counters``."""
    c = counters

    def trial_id(args):
        # _run_trial(system, config, trial, band): one trace per trial
        return f"{tracer.trace_id}/{args[2]}"

    def joins_parent(args):
        return None

    def no_counts(span, args, result):
        pass

    def sampled(span, args, traj):
        span.counts["steps"] = args[3]
        c.point_bits_max = max(c.point_bits_max,
                               max(denominator_bits(p) for p in traj.points))

    def propagated(span, args, sets):
        span.counts["steps"] = len(sets) - 1
        c.sets_built += len(sets)
        c.sets_live += sum(1 for s in sets if not s.is_empty())
        c.fragments_max = max(c.fragments_max,
                              max(s.fragment_count() for s in sets))

    def pulled_back(span, args, witness):
        span.counts["steps"] = args[2]
        if witness is not None:
            c.witness_bits_max = max(c.witness_bits_max,
                                     denominator_bits(witness))

    def tracked(span, args, ok):
        span.counts["steps"] = len(args[1]) - 1

    def emitted(span, args, result):
        out = Path(args[1])
        c.emit_bytes.append(sum((out / n).stat().st_size for n in EMIT_FILES))

    plan = [
        (experiment, "_run_trial", "trial", no_counts, trial_id),
        (experiment, "generate", "sample", sampled, joins_parent),
        (experiment, "shadow_set_forward", "propagate", propagated,
         joins_parent),
        (shadowcheck, "shadow_set_forward", "propagate", propagated,
         joins_parent),
        (experiment, "pull_back_witness", "witness", pulled_back,
         joins_parent),
        (shadowcheck, "pull_back_witness", "witness", pulled_back,
         joins_parent),
        (experiment, "orbit_tracks", "track", tracked, joins_parent),
        (shadowcheck, "orbit_tracks", "track", tracked, joins_parent),
        (experiment, "clopper_pearson", "aggregate", no_counts,
         joins_parent),
        (experiment, "emit", "emit", emitted, joins_parent),
        (bounds, "attractor_quantities", "bounds", no_counts, joins_parent),
        (pseudotraj, "load_trajectory", "load", no_counts, joins_parent),
    ]
    saved = [(module, name, getattr(module, name))
             for module, name, *_ in plan]
    try:
        for (module, name, span_name, record, trace_id), (*_, original) \
                in zip(plan, saved):
            setattr(module, name,
                    _wrap(tracer, original, span_name, record, trace_id))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
