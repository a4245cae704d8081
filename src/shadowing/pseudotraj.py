"""Random and constructed pseudotrajectories.

A d-pseudotrajectory is a finite sequence y_0, ..., y_N whose steps track
the map up to d: dist(y_{n+1}, f(y_n)) <= d, with closed inequalities
throughout. The random generator realizes the Markov kernel that draws
y_{n+1} uniformly (w.r.t. the reference measure) from the d-ball around
f(y_n) truncated to the space, so verdicts downstream are statements about
that chain.

Reproducibility: the stream for trial t is the one numpy derives from the
master seed by ``default_rng(SeedSequence(master_seed, spawn_key=(t,)))``,
bit for bit, computed here with the standard library (``trial_stream``);
trials are independent and can run in any order or in parallel.

A trajectory holds its points on an integer lattice
(``Pseudotrajectory.scaled``), where ``generate`` computes them; their
``Fraction`` tuples (``points``) are built on first read.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, UsageError
from .rationals import frac, jsonable
from .spaces import TWO53, Point, ScaledPoints, scaled_point


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


# numpy's SeedSequence: a pool of four 32-bit words, hashed with these
# constants (numpy/random/bit_generator.pyx); and PCG64's 128-bit LCG
# multiplier (O'Neill, *PCG: A family of simple fast space-efficient
# statistically good algorithms for random number generation*,
# HMC-CS-2014-0905, 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M53, _M64 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1
_M128 = (1 << 128) - 1


def trial_stream(master_seed: int, trial: int = 0):
    """Independent, reproducible random stream for one trial: the integers
    k of the doubles k / 2**53 that numpy's
    ``default_rng(SeedSequence(master_seed, spawn_key=(trial,))).random()``
    returns, bit for bit, made one at a time as they are read and never
    exhausted. A negative seed or trial is a ``DomainError``."""
    # as ints: a numpy integer would overflow in the products below
    master_seed, trial = operator.index(master_seed), operator.index(trial)
    if master_seed < 0:
        raise DomainError(f"seed must be nonnegative, got {master_seed}")
    if trial < 0:
        raise DomainError(f"trial must be nonnegative, got {trial}")
    pool, h = _run_pool(master_seed)
    pool = list(pool)
    _mix_in(pool, h, _words(trial))
    h, out = _INIT_B, 0
    for i in range(8):  # generate_state(4, uint64), little-endian words
        v = (pool[i & 3] ^ h) * (h := h * _MULT_B & _M32) & _M32
        out |= (v ^ v >> 16) << 32 * i
    # PCG64 seeding: state word 0 is the high half of the seed, word 2 of
    # the increment
    seed = (out & _M64) << 64 | (out >> 64) & _M64
    inc = ((out >> 128 & _M64) << 65 | (out >> 192) << 1 | 1) & _M128
    return _pcg64(((inc + seed) * _PCG_MULT + inc) & _M128, inc)


def _pcg64(state: int, inc: int):
    """PCG64's XSL-RR draws shifted right by 11: an LCG step, then the
    state's halves xored and rotated right by its top six bits. The rotated
    word is read out of x * (2**64 + 1), which holds x twice side by side."""
    mult, twice = _PCG_MULT, (1 << 64) + 1
    m53, m64, m128 = _M53, _M64, _M128
    while True:
        state = (state * mult + inc) & m128
        yield (((state >> 64 ^ state) & m64) * twice
               >> (state >> 122) + 11) & m53


@functools.lru_cache(maxsize=1)
def _run_pool(master_seed: int) -> tuple:
    """The SeedSequence pool and hash constant after the master seed's
    words, zero-padded to the pool size, are mixed in: the part of the
    seeding that every trial of a run shares."""
    words = _words(master_seed)
    words += [0] * (4 - len(words))
    h, pool = _INIT_A, []
    for word in words[:4]:
        v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
        pool.append(v ^ v >> 16)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                v = (pool[i_src] ^ h) * (h := h * _MULT_A & _M32) & _M32
                v = (_MIX_L * pool[i_dst] - _MIX_R * (v ^ v >> 16)) & _M32
                pool[i_dst] = v ^ v >> 16
    h = _mix_in(pool, h, words[4:])
    return tuple(pool), h


def _mix_in(pool: list, h: int, words) -> int:
    """Hash each word into every entry of the pool, in place, as
    SeedSequence does with the entropy words past the pool size; returns
    the hash constant after."""
    for word in words:
        for i in range(4):
            v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
            v = (_MIX_L * pool[i] - _MIX_R * (v ^ v >> 16)) & _M32
            pool[i] = v ^ v >> 16
    return h


def _words(n: int) -> list:
    """The 32-bit words of n >= 0, least significant first; [0] for 0."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


class LatticeWalk:
    """The random d-pseudotrajectory of length n from y0, one step at a time.

    Each step draws y_{k+1} uniformly from the d-ball around f(y_k) in the
    space, from one uniform double per coordinate, on an integer lattice
    (``Space.sample_scaled``). ``rng`` is a stream of the integers k of
    those doubles k / 2**53, as ``trial_stream`` returns it; a step reads
    its ndim integers only when it is sampled, and the walk reads at most
    n * ndim of them in all, so it may be handed a stream that never ends.
    The points equal those of the ``Fraction`` chain that the tests keep in
    ``tests/reference.py``, and a shorter horizon gives a prefix. The scale
    starts at 2**53 times the lcm of the denominators of d, y0 and the
    map's parameters; it grows only by a non-integer slope's denominator
    and at a step truncated at a boundary.

    Iterating (once) yields y_0, ..., y_n as (numerators, scale) pairs and
    adds each to ``taken``; a step is sampled only when it is asked for, so
    a caller that stops reading may resume the same iterator later and
    gets the points ``generate`` would.
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
        self._draws = rng

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
