"""Small statistics and format helpers shared by the benchmark modules.

Kept free of any import of the package under test, so the tests of the
benchmark's own logic run without it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import re
import time
from fractions import Fraction

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# Typical time of each calibration_kernel() kind on the machine the
# benchmark was defined on (2 vCPU, Python 3.11.7). Calibrated times are
# wall times rescaled to a machine running the kernel in exactly this time.
REFERENCE_KERNEL_S = {"narrow": 0.008, "wide": 0.015}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100) of values.

    Matches ``statistics.quantiles(values, n=100, method="inclusive")`` at
    whole q, and the median at q = 50.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_samples_for(q: float) -> int:
    """Fewest samples that leave TAIL_SAMPLES of them beyond percentile q."""
    if not 0 <= q < 100:
        raise ValueError(f"percentile {q} outside [0, 100)")
    return math.ceil(TAIL_SAMPLES / (1 - q / 100) - 1e-9)


def highest_supported_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_SAMPLES of n samples beyond it."""
    if n < TAIL_SAMPLES:
        return 0.0
    return 100 * (1 - TAIL_SAMPLES / n)


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by child intervals.

    Children may overlap each other or stick out of the parent; only the
    union of their parts inside the parent is subtracted.
    """
    if end < start:
        raise ValueError("span ends before it starts")
    clipped = sorted((max(s, start), min(e, end)) for s, e in children
                     if min(e, end) > max(s, start))
    covered = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def calibration_kernel(kind: str = "narrow") -> float:
    """Seconds taken by a fixed piece of stdlib rational arithmetic, the
    kind of work the package does but none of its code. The ``narrow``
    kernel keeps denominators near 63 bits, as the doubling and rotation
    branches do; the ``wide`` one is a 2-D map whose denominators grow to
    about 1000 bits, as in the annulus sampler, where big-integer work
    dominates. The cyclic collector is paused so that garbage left by a
    request is not collected on the kernel's clock."""
    if kind not in REFERENCE_KERNEL_S:
        raise ValueError(f"unknown kernel {kind!r}")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a, d = Fraction(610, 987), Fraction(1, 50)
        kept = []
        if kind == "narrow":
            x = Fraction(3, 10)
            for i in range(400):
                x = (2 * x + a * Fraction(i % 7 + 1, 2 ** 53)) % 1
                kept.append((x - d, x + d, x < d))
        else:
            for rep in range(3):
                x, y = Fraction(3, 10 + rep), Fraction(1, 7)
                for i in range(90):
                    x, y = (x * a + y / 3) % 1, (y * a + x / 5 + d) % 1
                    kept.append((x - d, y + d))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def calibrate(durations, kernels, reference_s: float) -> list[float]:
    """Rescale each duration by the calibration kernels run just before
    and just after it (``kernels`` has one more entry than ``durations``),
    so the result reads as if the machine ran the kernel in
    ``reference_s``."""
    if len(kernels) != len(durations) + 1:
        raise ValueError("need one kernel timing on each side of a duration")
    return [t * 2 * reference_s / (before + after)
            for t, before, after in zip(durations, kernels, kernels[1:])]


def metric_problems(name: str, unit: str) -> list[str]:
    """What is wrong with a metric's name or unit (empty when valid)."""
    problems = []
    if not NAME_RE.match(name):
        problems.append(f"bad metric name {name!r}")
    if not UNIT_RE.match(unit):
        problems.append(f"bad unit {unit!r} for {name}")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def denominator_bits(point) -> int:
    """Largest denominator of a point's coordinates, in bits."""
    return max(c.denominator.bit_length() for c in point)
