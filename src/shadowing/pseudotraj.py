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
import io
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, UsageError
from .rationals import frac, json_object, json_text
from .spaces import TWO53, Point, ScaledPoints


@dataclass(frozen=True)
class Provenance:
    kind: str  # random | worst_case | loaded
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
    (``__iter__``, the one sampler). ``rng`` is a stream of the integers k
    of those doubles k / 2**53, as ``trial_stream`` returns it; a step reads
    its ndim integers only when it is sampled, and the walk reads at most
    n * ndim of them in all, so it may be handed a stream that never ends.
    The points equal those of the ``Fraction`` chain that the tests keep in
    ``tests/reference.py``, and a shorter horizon gives a prefix. The scale
    starts at 2**53 times the lcm of the denominators of d, y0 and the
    map's parameters; it grows only by a non-integer slope's denominator
    and at a step truncated at a boundary. d is read by ``frac`` before it
    is checked.

    Iterating (once) yields y_0, ..., y_n as (numerators, scale) pairs and
    adds each to ``taken``; a step is sampled only when it is asked for, so
    a caller that stops reading may resume the same iterator later and
    gets the points ``generate`` would.
    """

    def __init__(self, system, y0: Point, d, n: int, rng):
        d = frac(d)
        if d <= 0:
            raise DomainError("step bound d must be positive")
        if n < 0:
            raise DomainError("horizon must be nonnegative")
        space = system.space
        self.system, self.d, self.n = system, d, n
        y, scale = space.lattice_point(y0, math.lcm(
            self.d.denominator, system.lattice_base))
        self.taken = ScaledPoints([tuple(c * TWO53 for c in y)],
                                  [scale * TWO53])
        self._draws = rng

    def __iter__(self):
        """The walk's loop: the map's point step, then the draw on the
        lattice. A map of one linear piece (doubling, the rotations, the
        spiral) hands over its constants for the first scale (``line``),
        and the step is taken inline: y goes to c + f * y over the scale
        times q, the spiral's angle by c_t + q * theta, and c is carried
        across every change of scale by its factor, as the scale is, so
        the spiral's alpha over the scale is never divided out again. A
        map with corners (tent, ``pwl`` maps of several pieces) is stepped
        by its ``apply_scaled``. The center of an arc is not reduced
        modulo the scale, since the draw is.

        An arc is drawn as center - r + 2r * k / 2**53 mod 1, or k /
        2**53 where it is the whole circle, at the same scale. A segment,
        the interval or the annulus's radial one truncated to [lo, hi], is
        drawn as lo + (hi - lo) * k / 2**53, at the scale times the power
        of two, at most 2**53, that keeps the draw exact; an untruncated
        step keeps the scale. The annulus then draws its arc at the grown
        scale. The scale is a multiple of 2**53 and of the denominators of
        d and w, which are read as integers, so no ``Fraction`` is
        touched.

        Every scale is an integer multiple of the one before it: the map
        multiplies it by q, the lcm of its slope denominators, and a
        truncated step by its power of two. So the draw's constants are
        worked out once, at the first scale, and carried across every
        change of scale by its quotient: r = d * scale, the annulus
        half-width w * scale and the arc's draw step, 2r >> 53 or scale
        >> 53. Whether the arc is the whole circle does not depend on the
        scale. The truncation bounds are met by comparison."""
        system, draws = self.system, self._draws
        space = system.space
        circle, annulus = space.kind == "circle", space.kind == "annulus"
        w_num, w_den = space.w_ratio if annulus else (0, 1)
        nums, scales = self.taken.nums, self.taken.scales
        add_num, add_scale = nums.append, scales.append
        y, scale = nums[0], scales[0]
        r = self.d.numerator * (scale // self.d.denominator)
        arc = 2 * r < scale
        arc_step = (2 * r if arc else scale) >> 53
        w = w_num * (scale // w_den)
        kept = scale
        line = system.line(scale)
        c0 = c1 = 0  # carried whether or not the map has one piece
        if line is None:
            apply = system.apply_scaled
        elif annulus:
            q, c0, f0, c1, f1 = line
        else:
            q, c0, f0 = line
        yield y, scale
        for _ in range(self.n):
            if line is None:
                (c,), scale = apply(y, scale)
                if scale != kept:
                    g = scale // kept
                    kept, r, arc_step, w = scale, r * g, arc_step * g, w * g
            else:  # the one piece, its constants carried by q
                c = c0 + f0 * y[0]
                if annulus:
                    theta = c1 + f1 * y[1]
                if q != 1:
                    scale *= q
                    r, arc_step, w, c0, c1 = (r * q, arc_step * q, w * q,
                                              c0 * q, c1 * q)
            if circle:
                k = next(draws)
                y = ((c - r + arc_step * k) % scale if arc
                     else arc_step * k,)
            else:
                lo, hi = c - r, c + r
                floor, ceil = (scale - w, scale + w) if annulus else (0, scale)
                if lo < floor:
                    lo = floor
                if hi > ceil:
                    hi = ceil
                span = hi - lo
                low_bit = span & -span
                if low_bit < TWO53:  # truncated: grow the scale
                    grow = TWO53 // low_bit
                    lo, span = lo * grow, span * grow
                    scale *= grow
                    kept, r, arc_step, w, c0, c1 = (
                        scale, r * grow, arc_step * grow, w * grow,
                        c0 * grow, c1 * grow)
                else:
                    grow = 1
                y = (lo + (span >> 53) * next(draws),)
                if annulus:
                    k = next(draws)
                    y += ((theta * grow - r + arc_step * k) % scale if arc
                          else arc_step * k,)
            add_num(y)
            add_scale(scale)
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
    """Write <base>.csv (n,coord0[,coord1]) and a <base>.json sidecar. Each
    coordinate is written from its numerator and scale, reduced by one
    gcd, as ``str(Fraction)`` writes it: ``a/b``, or ``a`` where b is 1."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    gcd = math.gcd
    nums, scales = traj.scaled.nums, traj.scaled.scales
    lines = [",".join(["n"] + [f"coord{i}" for i in range(len(nums[0]))])]
    for n, (y, scale) in enumerate(zip(nums, scales)):
        fields = [str(n)]
        for c in y:
            g = gcd(c, scale)
            fields.append(f"{c // g}/{scale // g}" if g != scale
                          else str(c // g))
        lines.append(",".join(fields))
    base.with_suffix(".csv").write_text("\n".join(lines) + "\n", newline="")
    sidecar = {
        "system": system_spec,
        "d": str(traj.d),
        "N": traj.horizon,
        "seed": traj.provenance.seed,
        "trial": traj.provenance.trial,
        "provenance": traj.provenance.kind,
    }
    base.with_suffix(".json").write_text(json_text(sidecar))


def load_trajectory(base) -> tuple[Pseudotrajectory, str]:
    """Read a trajectory written by save_trajectory; returns (traj,
    system_spec). The CSV is read once as text. Text spelled as
    save_trajectory writes it is parsed by ``_saved_rows`` in one regex
    pass; any other text, and every malformed file, goes through
    ``_ratio_rows``, which raises each refusal. A sidecar that is not a
    JSON object with "system" and "d", a file that is not UTF-8, a row
    that ``_ratio_rows`` refuses, or a sidecar "N" that is not the row
    count minus 1, is a ``UsageError``. The rows go on nested scales
    (``ScaledPoints.nested``)."""
    base = Path(base)
    sidecar = json_object(base.with_suffix(".json"), ("system", "d"))
    path = base.with_suffix(".csv")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text") from exc
    rows = _saved_rows(text)
    if rows is None:
        rows = _ratio_rows(csv.reader(io.StringIO(text, newline="")), path)
    prov = Provenance(sidecar.get("provenance", "loaded"),
                      sidecar.get("seed"), sidecar.get("trial"))
    # an empty file has no points, which Pseudotrajectory refuses
    traj = Pseudotrajectory(ScaledPoints.nested(rows), frac(sidecar["d"]),
                            prov)
    # a CSV cut short (or grown) must not be checked as another horizon
    n = sidecar.get("N", traj.horizon)
    if type(n) is not int or n != traj.horizon:
        raise UsageError(f"{path}: {len(rows)} row(s), so N is "
                         f"{traj.horizon}, but the sidecar says N is {n!r}")
    return traj, sidecar["system"]


_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")

# a body row as save_trajectory writes it, after each header it writes: n
# in digits, then each coordinate as a token that _INT_RATIO takes
_SAVED_ROW = {
    header: re.compile("^([0-9]+)" + f",{_INT_RATIO.pattern}" * width + "\n",
                       re.M)
    for width, header in ((1, "n,coord0"), (2, "n,coord0,coord1"))
}


def _saved_rows(text: str) -> list | None:
    """The rows of ``text`` as (numerator, denominator) pairs, as
    ``_ratio_rows`` reads them, where the text is spelled as
    save_trajectory writes it: its header, then rows each ended by "\\n",
    each row's n its index in decimal and each coordinate a token that
    ``_INT_RATIO`` takes. Any other text is None, for ``_ratio_rows``.
    Every match of the row pattern is one whole line, so one match per
    "\\n" means every line matched."""
    header, _, body = text.partition("\n")
    row = _SAVED_ROW.get(header)
    if row is None or not body.endswith("\n"):
        return None
    found = row.findall(body)
    if len(found) != body.count("\n"):
        return None
    # column by column: the n column, then each coordinate's numerators
    # and denominators ("" where the token is an integer)
    n, *tokens = zip(*found)
    if n != tuple(map(str, range(len(found)))):
        return None
    return list(zip(*[zip(map(int, nums), [int(d) if d else 1 for d in dens])
                      for nums, dens in zip(tokens[::2], tokens[1::2])]))


def _ratio_rows(reader, path) -> list:
    """The coordinates of each row after the header, in one pass, as
    (numerator, denominator) pairs for ``ScaledPoints.nested``: an integer
    or a ratio with a nonzero denominator is parsed to ints, any other
    token is read by ``frac``. ``load_trajectory`` calls it on every text
    that ``_saved_rows`` does not read: quoted fields, CRLF line ends,
    other spellings of n or of a coordinate, a last row with no "\\n", and
    every malformed file. The header must be n,coord0 or
    n,coord0,coord1, as ``save_trajectory`` writes it. Any other header is
    a ``UsageError``, and so is a token that ``Fraction`` rejects (raised
    from the error it raises), a blank line, a row whose field count
    differs from the header's, or a row whose n, read as an integer, is
    not its 0-based index; the message names the file and the line."""
    match = _INT_RATIO.fullmatch
    header = next(reader, [])
    if header not in (["n", "coord0"], ["n", "coord0", "coord1"]):
        raise UsageError(f"{path}: line 1: the header is "
                         f"{','.join(header)!r}, not 'n,coord0' or "
                         "'n,coord0,coord1'")
    width = len(header)
    rows = []
    for index, row in enumerate(reader):
        if not row or len(row) != width:
            raise UsageError(f"{path}: line {reader.line_num}: " + (
                f"{len(row)} field(s), the header has {width}" if row
                else "a blank line"))
        try:
            n = int(row[0])
        except ValueError:
            n = None
        if n != index:
            raise UsageError(f"{path}: line {reader.line_num}: n is "
                             f"{row[0]!r}, not the row's index {index}")
        ratios = []
        for token in row[1:]:
            m = match(token)
            if m is not None:
                ratios.append((int(m[1]), int(m[2] or 1)))
                continue
            try:
                ratios.append(frac(token).as_integer_ratio())
            except UsageError as exc:  # keep the error Fraction raised
                raise UsageError(f"{path}: line {reader.line_num}: "
                                 f"{exc}") from exc.__cause__
        rows.append(ratios)
    return rows
