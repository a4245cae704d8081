"""Per-layer metrics of the traced run, computed from spans and counters.

Shares are self time over the total time of the request spans (``batch``
or ``check``). Witness work is the pull-back (``witness`` spans) plus the
re-check of the witness orbit (``track`` spans). A layer a workload never
calls reads 0.
"""

from __future__ import annotations

import statistics

from benchstats import percentile

REQUEST_SPANS = ("batch", "check")


def layer_metrics(tracer, counters, curve: dict) -> dict:
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    requests = [s for s in tracer.spans if s.name in REQUEST_SPANS]
    request_ids = {s.span_id for s in requests}
    request_s = sum(s.duration for s in requests)

    def in_request(s) -> bool:
        return tracer.root_of(s).span_id in request_ids

    def share(name: str) -> float:
        return sum(selfs[s.span_id] for s in by_name.get(name, ())
                   if in_request(s)) / request_s

    def us_per_step(name: str) -> float:
        spans = by_name.get(name, ())
        steps = sum(s.counts.get("steps", 0) for s in spans)
        return 1e6 * sum(selfs[s.span_id] for s in spans) / steps \
            if steps else 0.0

    def median_or_0(values) -> float:
        return statistics.median(values) if values else 0.0

    def ms_median(name: str) -> float:
        return 1e3 * median_or_0([s.duration for s in by_name.get(name, ())])

    aggregate_emit: dict[int, float] = {}
    for s in by_name.get("aggregate", []) + by_name.get("emit", []):
        root = tracer.root_of(s).span_id
        aggregate_emit[root] = aggregate_emit.get(root, 0.0) + s.duration
    witness_steps = sum(s.counts.get("steps", 0)
                        for s in by_name.get("witness", ()))
    witness_self = sum(selfs[s.span_id] for name in ("witness", "track")
                       for s in by_name.get(name, ()))

    trial_ms = [1e3 * s.duration for s in by_name.get("trial", [])
                or by_name.get("check", [])]
    pool_eff = (counters.pool_t1_s / (counters.pool_workers * counters.pool_s)
                if counters.pool_s else 1.0)
    short, mid, long_ = (curve[n]["us_per_step"] for n in sorted(curve))
    return {
        "pseudotraj.generate.us_per_step": (us_per_step("sample"), "us"),
        "pseudotraj.generate.share": (share("sample"), "share"),
        "pseudotraj.generate.growth": (long_ / short, "ratio"),
        "pseudotraj.curve.short.us_per_step": (short, "us"),
        "pseudotraj.curve.mid.us_per_step": (mid, "us"),
        "pseudotraj.curve.long.us_per_step": (long_, "us"),
        "pseudotraj.point_bits_max": (counters.point_bits_max, "count"),
        "pseudotraj.load.ms_p50": (ms_median("load"), "ms"),
        "shadowcheck.propagate.us_per_step": (us_per_step("propagate"), "us"),
        "shadowcheck.propagate.share": (share("propagate"), "share"),
        "shadowcheck.propagate.live_ratio": (
            counters.sets_live / counters.sets_built
            if counters.sets_built else 0.0, "ratio"),
        "shadowcheck.witness.us_per_step": (
            1e6 * witness_self / witness_steps if witness_steps else 0.0,
            "us"),
        "shadowcheck.witness.share": (share("witness") + share("track"),
                                      "share"),
        "shadowcheck.witness.pullbacks_per_trial": (
            len(by_name.get("witness", ())) / counters.trials, "count"),
        "shadowcheck.witness.bits_max": (counters.witness_bits_max, "count"),
        "enclosure.fragments_max": (counters.fragments_max, "count"),
        "enclosure.cap_errors": (counters.cap_errors, "count"),
        "bounds.ms": (ms_median("bounds"), "ms"),
        "experiment.aggregate_emit.ms": (
            1e3 * median_or_0(list(aggregate_emit.values())), "ms"),
        "experiment.emit.bytes": (median_or_0(counters.emit_bytes), "bytes"),
        "experiment.trial.ms_p50": (percentile(trial_ms, 50), "ms"),
        "experiment.trial.ms_p90": (percentile(trial_ms, 90), "ms"),
        "experiment.pool.efficiency": (pool_eff, "ratio"),
        "trace.overhead_share": (
            (counters.traced_s - counters.plain_s) / counters.plain_s,
            "share"),
    }
