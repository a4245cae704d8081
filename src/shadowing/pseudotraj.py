"""Random and constructed pseudotrajectories.

A d-pseudotrajectory is a finite sequence y_0, ..., y_N whose steps track
the map up to d: dist(y_{n+1}, f(y_n)) <= d, with closed inequalities
throughout. The random generator realizes the Markov kernel that draws
y_{n+1} uniformly (w.r.t. the reference measure) from the d-ball around
f(y_n) truncated to the space, so verdicts downstream are statements about
that chain.

Reproducibility: the stream for trial t is derived from the master seed by
``numpy.random.SeedSequence(master_seed, spawn_key=(t,))``; trials are
independent and can run in any order or in parallel.

A trajectory holds its points on an integer lattice
(``Pseudotrajectory.scaled``), where ``generate`` computes them; their
``Fraction`` tuples (``points``) are built on first read.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DomainError, UsageError
from .rationals import frac, jsonable
from .spaces import TWO53, Point, ScaledPoints, scaled_point

# Fixed-point bits of the band tail's enclosure (``radius_enclosures``).
TAIL_BITS = 64


@dataclass(frozen=True)
class Provenance:
    kind: str  # random | spliced | worst_case | exact_orbit | loaded
    seed: int | None = None
    trial: int | None = None


class Pseudotrajectory:
    """Points y_0, ..., y_N with step bound d; no method changes them.

    The points are held once, as ``scaled``: integer numerators over
    per-point scales (``ScaledPoints``), which is what the exact kernel
    reads. Points given any other way are converted once, with
    ``ScaledPoints.from_points``. ``points`` caches their ``Fraction``
    tuples, built on first read.
    """

    __slots__ = ("scaled", "d", "provenance", "_points")

    def __init__(self, points, d: Fraction, provenance: Provenance):
        if not isinstance(points, ScaledPoints):
            points = ScaledPoints.from_points(points)
        if not len(points):
            raise UsageError("a pseudotrajectory needs at least one point")
        if d < 0:
            raise DomainError("step bound must be nonnegative")
        self.scaled = points
        self.d = d
        self.provenance = provenance
        self._points = None

    @property
    def points(self) -> tuple:
        if self._points is None:
            self._points = tuple(self.scaled)
        return self._points

    def __eq__(self, other):
        if not isinstance(other, Pseudotrajectory):
            return NotImplemented
        return (self.points, self.d, self.provenance) == \
            (other.points, other.d, other.provenance)

    def __hash__(self):
        return hash((self.points, self.d, self.provenance))

    def __repr__(self):
        return (f"Pseudotrajectory(points={self.points!r}, d={self.d!r}, "
                f"provenance={self.provenance!r})")

    @property
    def horizon(self) -> int:
        return len(self.scaled) - 1

    def prefix(self, m: int) -> "Pseudotrajectory":
        if not 0 <= m <= self.horizon:
            raise UsageError(f"prefix horizon {m} outside [0, {self.horizon}]")
        return Pseudotrajectory(self.scaled[:m + 1], self.d, self.provenance)


def trial_stream(master_seed: int, trial: int = 0) -> np.random.Generator:
    """Independent, reproducible random stream for one trial."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(trial,)))


class LatticeWalk:
    """The random d-pseudotrajectory of length n from y0, one step at a time.

    Each step draws y_{k+1} uniformly from the d-ball around f(y_k) in the
    space, from one uniform double per coordinate, on an integer lattice
    (``Space.sample_scaled``). The n * ndim doubles are drawn in one call,
    which numpy makes bit-identical to drawing them one at a time, so the
    points equal a chain that draws its doubles step by step (the tests
    keep a ``Fraction`` one in ``tests/reference.py``), leave the stream
    where it would, and a shorter horizon gives a prefix. The scale starts
    at 2**53 times the lcm of the denominators of d, y0 and the map's
    parameters; it grows only by a non-integer slope's denominator and at
    a step truncated at a boundary.

    Iterating (once) yields y_0, ..., y_n as (numerators, scale) pairs and
    adds each to ``taken``; a step is sampled only when it is asked for.
    ``radius_enclosures`` carries an annulus chain's radius on past ``taken``
    as a 64-bit directed-rounding integer enclosure; no float enters it.
    ``band_closed`` tells whether a band holds every enclosure after one
    that lies in it, so a band check can stop at that one.
    """

    def __init__(self, system, y0: Point, d, n: int, rng):
        if d <= 0:
            raise DomainError("step bound d must be positive")
        if n < 0:
            raise DomainError("horizon must be nonnegative")
        space = system.space
        self.system, self.d, self.n = system, frac(d), n
        y, scale = scaled_point(space.canonical(y0))
        start = TWO53 * math.lcm(scale, self.d.denominator,
                                 system.lattice_base)
        self.taken = ScaledPoints([tuple(c * (start // scale) for c in y)],
                                  [start])
        doubles = rng.random(n * space.ndim)
        self._draws = iter((doubles * TWO53).astype(np.int64).tolist())

    def __iter__(self):
        apply = self.system.apply_scaled
        sample = self.system.space.sample_scaled
        d_num, d_den = self.d.numerator, self.d.denominator
        nums, scales = self.taken.nums, self.taken.scales
        y, scale = nums[0], scales[0]
        yield y, scale
        for _ in range(self.n):
            center, center_scale = apply(y, scale)
            y, scale = sample(center, center_scale,
                              d_num * (center_scale // d_den), self._draws)
            nums.append(y)
            scales.append(scale)
            yield y, scale

    def radius_enclosures(self):
        """lo <= (r - 1) * 2**TAIL_BITS <= hi for the radius r of each step
        past ``taken``, from its radial double alone (the map's radius reads
        no angle). With x = r - 1 a step is a + (b - a) * k / 2**53 for
        a = max(lam*x - d, -w) and b = min(lam*x + d, w), nondecreasing in
        x, a and b: lo steps with a and b rounded down, hi rounded up.
        A band closed under this step (``band_closed``) holds every
        enclosure after the first one inside it."""
        (r, _), scale = self.taken.nums[-1], self.taken.scales[-1]
        lo, hi = _fixed(r - scale, scale)
        p, q = self.system.lam.as_integer_ratio()
        d_lo, d_hi = _fixed(self.d.numerator, self.d.denominator)
        w_lo, w_hi = _fixed(*self.system.space.w_ratio)
        for k in islice(self._draws, 0, None, 2):
            # max and min written out: calling them doubles a step's time
            c = p * lo // q
            a, b = c - d_hi, c + d_lo
            a, b = a if a > -w_hi else -w_hi, b if b < w_lo else w_lo
            lo = a + ((b - a) * k >> 53)
            c = -(-p * hi // q)
            a, b = c - d_lo, c + d_hi
            a, b = a if a > -w_lo else -w_lo, b if b < w_hi else w_hi
            hi = a - ((a - b) * k >> 53)
            yield lo, hi

    def band_closed(self, bound: int) -> bool:
        """Whether -bound <= lo and hi <= bound, once met by an enclosure
        of ``radius_enclosures``, hold for every later one: the exact test
        ceil(p*bound/q) + d_hi <= bound, with lam = p/q and d_hi the
        ceiling of d * 2**TAIL_BITS.

        Proof, by induction over the steps. A step's hi' lies between its
        a and b, whatever the draw k, so hi' <= max(a, b) <= max(c + d_hi, 0)
        with c = ceil(p*hi/q). As 0 < lam, c is nondecreasing in hi, so
        hi <= bound gives hi' <= max(ceil(p*bound/q) + d_hi, 0) <= bound.
        Symmetrically lo' >= min(floor(p*lo/q) - d_hi, 0), and lo >= -bound
        gives lo' >= -(ceil(p*bound/q) + d_hi) >= -bound (the test forces
        bound >= 0, as lam < 1). This is the
        trapping-region argument (Milnor, *On the concept of attractor*,
        CMP 99, 1985) on the enclosure's own rounded step."""
        p, q = self.system.lam.as_integer_ratio()
        d_hi = _fixed(self.d.numerator, self.d.denominator)[1]
        return -(-p * bound // q) + d_hi <= bound


def _fixed(num: int, den: int) -> tuple:
    """Floor and ceiling of num / den * 2**TAIL_BITS."""
    num <<= TAIL_BITS
    return num // den, -(-num // den)


def generate(system, y0: Point, d, n: int, rng,
             provenance: Provenance | None = None) -> Pseudotrajectory:
    """Sample a random d-pseudotrajectory of length n from y0: every step
    of a ``LatticeWalk``."""
    walk = LatticeWalk(system, y0, d, n, rng)
    for _ in walk:
        pass
    return Pseudotrajectory(walk.taken, walk.d,
                            provenance or Provenance("random"))


def worst_case_pseudotrajectory(system, d, eps) -> Pseudotrajectory:
    """Constant-drift sequence around a rotation that no orbit can track.

    Returns p_n = p_0 + n*(alpha + d/2) for n = 0..N with
    N = ceil(4*eps/d) + 1: a d/2-pseudotrajectory whose total drift
    N*d/2 exceeds 2*eps strictly, so it is not eps-shadowable.
    """
    if system.kind != "rotation":
        raise UsageError("the drift construction is specific to rotations")
    d = frac(d)
    eps = frac(eps)
    if d <= 0:
        raise DomainError("step bound d must be positive")
    if eps >= Fraction(1, 4):
        raise DomainError("eps must be below 1/4 for the closed-form verdict")
    n_steps = math.ceil(4 * eps / d) + 1
    step = system.alpha + d / 2
    pts = tuple(((step * k) % 1,) for k in range(n_steps + 1))
    return Pseudotrajectory(pts, d / 2, Provenance("worst_case"))


# -- serialization --------------------------------------------------------

def save_trajectory(traj: Pseudotrajectory, system_spec: str, base) -> None:
    """Write <base>.csv (n,coord0[,coord1]) and a <base>.json sidecar."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    ncoords = len(traj.points[0])
    with open(base.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n"] + [f"coord{i}" for i in range(ncoords)])
        for n, p in enumerate(traj.points):
            writer.writerow([n] + [str(c) for c in p])
    sidecar = {
        "system": system_spec,
        "d": str(traj.d),
        "N": traj.horizon,
        "seed": traj.provenance.seed,
        "trial": traj.provenance.trial,
        "provenance": traj.provenance.kind,
    }
    # one write: json.dump writes each token on its own
    base.with_suffix(".json").write_text(
        json.dumps(jsonable(sidecar), indent=2, sort_keys=True) + "\n")


def load_trajectory(base) -> tuple[Pseudotrajectory, str]:
    """Read a trajectory written by save_trajectory; returns (traj, system_spec)."""
    base = Path(base)
    with open(base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    with open(base.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ncoords = len(header) - 1
        points = ScaledPoints.nested(
            _scaled_row(row[1:1 + ncoords]) for row in reader)
    prov = Provenance(sidecar.get("provenance", "loaded"),
                      sidecar.get("seed"), sidecar.get("trial"))
    traj = Pseudotrajectory(points, Fraction(sidecar["d"]), prov)
    return traj, sidecar["system"]


_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _scaled_row(tokens) -> tuple:
    """(numerators, scale) of a stored point, as ``scaled_point`` gives it
    for ``Fraction(token)``: an integer or a ratio with a nonzero
    denominator is parsed to ints, any other token by ``Fraction``."""
    ratios = []
    for token in tokens:
        m = _INT_RATIO.fullmatch(token)
        if m is None:
            c = Fraction(token)
            num, den = c.numerator, c.denominator
        else:
            num, den = int(m[1]), int(m[2] or 1)
        g = math.gcd(num, den)
        ratios.append((num // g, den // g))
    scale = math.lcm(*(den for _, den in ratios))
    return tuple(num * (scale // den) for num, den in ratios), scale
