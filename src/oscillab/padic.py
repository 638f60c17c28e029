"""Affine maps of Z_p on plain ints mod p^K, and their orbit averages.

An element of Z_p is kept to K base-p digits as a Python int mod p^K,
so every operation is exact in that ring.  The affine map x -> ax + b
is 1-Lipschitz: the result mod p^j depends only on x mod p^j for every
j <= K, so truncation commutes with iteration and orbits can be
advanced at exactly the digit level an observable needs.

For invertible a the reduction mod p^k is a permutation of Z/p^k, so
every orbit is purely periodic there; a minimal map cycles through all
p^k residues.  Weighted averages along polynomial times q(n) then only
need q(n) positioned inside the orbit cycle, never q(n) literal
iterations.  Those positions q(n) mod L, for a cycle of length L, are
integers, stepped exactly in int64 from q's forward differences mod L,
at any N.  On a cycle they repeat with the period of q / L, and the
weights are summed onto one period of units.  For p | a, T^t x is one
fixed point for every t >= level, so the average is that point's unit
times the weights' sums, but at the few n with some q(n) < level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .polyphase import (
    _STREAM_TERMS,
    MAX_DEGREE,
    ErgodicAverageSeries,
    _class_sums,
    _integer,
    _period,
    _validated_checkpoints,
    _weights,
    _word_units,
)
from .torus import TimePolynomial, _check_nonnegative_times

DEFAULT_PRECISION = 24

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> int:
    p = _integer(p, "prime")
    if not is_prime(p):
        raise ValueError(f"prime: {p} is not prime")
    return p


@dataclass(frozen=True)
class PadicAffineSystem:
    """The map Tx = ax + b on Z_p, with a and b held as ints mod p^precision."""

    prime: int
    a: int
    b: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        p, precision = _check_prime(self.prime), _integer(self.precision, "precision")
        if precision < 1:
            raise ValueError("precision: must be >= 1")
        mod = p**precision
        for name, value in (
            ("prime", p),
            ("precision", precision),
            ("a", _integer(self.a, "a") % mod),
            ("b", _integer(self.b, "b") % mod),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def from_ints(
        cls, prime: int, a: int, b: int, precision: int = DEFAULT_PRECISION
    ) -> "PadicAffineSystem":
        return cls(prime, a, b, precision)

    def step_int(self, x: int, level: int) -> int:
        """One step at digit level `level` (exact by 1-Lipschitz compatibility)."""
        return (self.a * x + self.b) % self.prime**level


def affine_minimality_check(a: int, b: int, p: int) -> bool:
    """Minimality of x -> ax + b on Z_p for odd primes p.

    True iff a = 1 mod p and b != 0 mod p.  The p = 2 case needs a
    stronger congruence and is refused rather than guessed.
    """
    p = _check_prime(p)
    if p == 2:
        raise ValueError("p: the p = 2 minimality criterion is not supported")
    return _integer(a, "a") % p == 1 and _integer(b, "b") % p != 0


def _affine_power(a: int, b: int, t: int, mod: int) -> tuple[int, int]:
    """(A, C) with T^t x = A x + C mod ``mod`` for T x = a x + b, by repeated squaring."""
    big_a, big_c = 1, 0
    pa, pc = a % mod, b % mod
    while t:
        if t & 1:
            big_a, big_c = (pa * big_a) % mod, (pa * big_c + pc) % mod
        pa, pc = (pa * pa) % mod, (pa * pc + pc) % mod
        t >>= 1
    return big_a, big_c


def _orbit_blocks(system: PadicAffineSystem, x: int, level: int, count: int):
    """``(start, points)``: T^n x mod p^level for n < count, in blocks of ``_STREAM_TERMS`` points.

    One point grows to a block by doubling, then each block is the image
    of the one before under T^size, with T^t's coefficients (A x + C)
    mod p^level from ``_affine_power``.  A x + C < 2^63 keeps int64
    exact for p^level <= 2^31; past that the points are Python ints in
    an object array.
    """
    mod = system.prime**level
    size = min(count, _STREAM_TERMS)
    block = np.array([x % mod], dtype=np.int64 if mod <= 1 << 31 else object)
    while block.size < size:
        big_a, big_c = _affine_power(system.a, system.b, block.size, mod)
        block = np.concatenate((block, (big_a * block + big_c) % mod))[:size]
    big_a, big_c = _affine_power(system.a, system.b, size, mod)
    for start in range(0, count, size):
        if start:
            block = (big_a * block + big_c) % mod
        yield start, block[: count - start]


def _cycle_length(system: PadicAffineSystem, y: int, level: int) -> int:
    """The length L of the cycle y, Ty, ... mod p^level through a periodic point y.

    T^e is a translation for e the order of a, so L divides p^(2 level) (p - 1): the least divisor t with T^t y = y.
    """
    p, mod = system.prime, system.prime**level
    divisors = {d for i in range(1, math.isqrt(p - 1) + 1) if (p - 1) % i == 0 for d in (i, (p - 1) // i)}
    for length in sorted(p**i * d for i in range(2 * level + 1) for d in divisors):
        big_a, big_c = _affine_power(system.a, system.b, length, mod)
        if (big_a * y + big_c) % mod == y:
            return length


def _cycle_from(system: PadicAffineSystem, y: int, level: int) -> np.ndarray:
    """The cycle y, Ty, ... mod p^level through a periodic point y, as int32 for p^level <= 2^26.

    ``_orbit_blocks`` fill its ``_cycle_length`` points, stepping in int64 (A y overflows int32).
    """
    length = _cycle_length(system, y, level)
    cycle = np.empty(length, dtype=np.int32)
    for start, block in _orbit_blocks(system, y, level, length):
        cycle[start : start + block.size] = block
    return cycle


def orbit_residue_census(
    system: PadicAffineSystem, x0, level: int, steps: int
) -> dict[int, int]:
    """Visit counts of the orbit in residue classes mod p^level.

    Counts x0, Tx0, ..., T^(steps-1)x0, keyed in increasing residue
    order.  For a minimal system the orbit mod p^level is a single cycle
    of exact length p^level, so over m * p^level steps every class is
    hit exactly m times.  For p not dividing a, T permutes the classes,
    so x0 lies on a cycle of some length L; when p^level <= 2^26 and
    steps >= L that cycle is filled once (``_cycle_from``) and each of
    its classes is visited steps // L times, once more for the first
    steps mod L.  Otherwise the visits come a ``_STREAM_TERMS`` block at
    a time from ``_orbit_blocks``, and each block's counts (``np.unique``)
    are merged into the sorted counts so far.  Either way memory grows
    with the classes visited, never with p^level.
    """
    level, steps = _integer(level, "level"), _integer(steps, "steps")
    if not 0 <= level <= system.precision:
        raise ValueError("level: must be in [0, precision]")
    if steps < 1:
        raise ValueError("steps: must be >= 1")
    x0, mod = _integer(x0, "x0"), system.prime**level
    if system.a % system.prime and mod <= 1 << 26 and steps >= _cycle_length(system, x0 % mod, level):
        cycle = _cycle_from(system, x0 % mod, level)
        order = np.argsort(cycle)
        rounds, rest = divmod(steps, cycle.size)
        hits = (order < rest).astype(np.int64)  # int64 before the add: numpy 1.x would type it by its value
        hits += rounds
        return dict(zip(cycle[order].tolist(), hits.tolist()))
    blocks = _orbit_blocks(system, x0, level, steps)
    keys, counts = np.unique(next(blocks)[1], return_counts=True)
    for _, block in blocks:
        values, hits = np.unique(block, return_counts=True)
        # Merge into the sorted classes so far: add to those seen, insert the rest in order.
        at = np.searchsorted(keys, values)
        seen = np.zeros(values.size, dtype=bool)
        inside = at < keys.size
        seen[inside] = keys[at[inside]] == values[inside]
        counts[at[seen]] += hits[seen]
        new = ~seen
        if new.any():
            keys, counts = np.insert(keys, at[new], values[new]), np.insert(counts, at[new], hits[new])
    return dict(zip(keys.tolist(), counts.tolist()))


def _cycle_positions(q, count: int, cycle_length: int):
    """Blocks ``(start, q(n) mod L)``, n < count, of ``_STREAM_TERMS`` terms, stepped in exact integers.

    Row j of a block holds the j-th forward difference of q over the
    block's n: its first entry, a register, plus the exclusive prefix sum
    of row j + 1.  The registers start as q's binomial coefficients a_j
    mod L, up to the last one nonzero mod L, whose row is constant.  With
    entries below L <= 2^26, one prefix sum of 2^16 terms stays below
    2^42 and two below 2^58, so int64 stays exact when every other row,
    and row 0, is reduced mod L.
    """
    registers = [a % cycle_length for a in q.binomial_coefficients]
    while len(registers) > 1 and not registers[-1]:
        registers.pop()
    top = len(registers) - 1
    for start in range(0, count, _STREAM_TERMS):
        row = np.full(min(_STREAM_TERMS, count - start), registers[top], dtype=np.int64)
        for j in range(top - 1, -1, -1):
            upper, row = row, np.empty_like(row)
            row[0] = 0
            np.cumsum(upper[:-1], out=row[1:])
            row += registers[j]
            registers[j] = int(row[-1] + upper[-1]) % cycle_length
            if (top - j) % 2 == 0 or j == 0:
                row %= cycle_length
        yield start, row


def _class_units(classes: np.ndarray, mod: int) -> np.ndarray:
    """e(k / mod) of int64 classes 0 <= k < mod <= 2^26, read off their words floor(k 2^64 / mod) by ``_word_units``.

    With 2^64 = q mod + r, r in [1, mod], a word is k q + floor(k r / mod), k q < 2^64 and k r < 2^52: exact in uint64.
    """
    q = ((1 << 64) - 1) // mod
    low = classes * ((1 << 64) - q * mod)
    low //= mod
    words = classes.view(np.uint64)
    words *= np.uint64(q)
    words += low.view(np.uint64)
    del low
    return _word_units(words)


def _fixed_point_sums(system: PadicAffineSystem, level: int, x0: int, qs, values, cps) -> np.ndarray:
    """Interval sums for p | a, where a^level = 0 mod p^level makes T^t x0 = y, a fixed point, for t >= level.

    Each interval's sum is then e(F / p^level) times its weights' sum, F = sum_j f_j with f_j = y (T^min(q_j(0), level) x0
    for a constant q_j), but at the few n where a non-constant q_j(n) < level (``negative_runs``, at most degree * level
    per q_j): their weights leave the folded sum and add their exact terms.
    """
    mod = system.prime**level
    orbit = next(_orbit_blocks(system, x0, level, level + 1))[1].tolist()
    runs = (TimePolynomial((q(0) - level,) + q.binomial_coefficients[1:]).negative_runs(cps[-1]) for q in qs if q.degree)
    at = np.asarray(sorted({n for q_runs in runs for lo, hi in q_runs for n in range(lo, hi)}), dtype=np.intp)
    fixed = sum(orbit[level if q.degree else min(q(0), level)] for q in qs)
    exact = [sum(orbit[min(q(n), level)] for q in qs) for n in at.tolist()]
    units = _class_units(np.asarray([fixed, *exact], dtype=np.int64) % mod, mod)
    picked, kind = values[at], np.result_type(values, np.int64)
    terms, bounds = picked * units[1:], (0,) + cps
    edges = np.searchsorted(at, bounds)
    return np.array([
        units[0] * (np.add.reduce(values[lo:hi], dtype=kind) - np.add.reduce(picked[i:j], dtype=kind))
        + np.add.reduce(terms[i:j])
        for lo, hi, i, j in zip(bounds, bounds[1:], edges, edges[1:])
    ])


def padic_weighted_average(
    system: PadicAffineSystem,
    level: int,
    x0,
    time_polynomials,
    seq,
    checkpoints,
) -> ErgodicAverageSeries:
    """(1/N) sum c_n prod_j e((T^{q_j(n)} x0 mod p^level) / p^level).

    The observable is the cylinder character of the first ``level``
    digits (level 0 is the constant 1).  For p not dividing a, orbit
    values are read from the cycle of x0 mod p^level, which is exact
    because truncation commutes with the map.  The units repeat with a
    period P, so each checkpoint interval sums u_r B_r over r < W, the
    least multiple of P >= 2^16 (capped at N), with B_r the sum of its
    weights at n = r mod W (``polyphase._class_sums``, the fold the
    spectrum scan and the grid stage use), by numpy's pairwise sum, not
    BLAS.  For p | a the orbit ends at a fixed point within ``level``
    steps, and the sums take closed form (``_fixed_point_sums``).  Each
    unit is read off the exact word of its class (``_class_units``).
    """
    level = _integer(level, "level")
    if not 0 <= level <= system.precision:
        raise ValueError("level: must be in [0, precision]")
    qs = list(time_polynomials)
    if not qs:
        raise ValueError("time_polynomials: at least one required")
    values = _weights(seq)
    cps = _validated_checkpoints(checkpoints, len(values))
    n_max = cps[-1]

    for j, q in enumerate(qs):
        if q.degree > MAX_DEGREE:
            raise ValueError(
                f"time_polynomials[{j}]: degree {q.degree} exceeds the supported cap {MAX_DEGREE}"
            )
    _check_nonnegative_times(qs, n_max)

    mod = system.prime**level
    if mod > (1 << 26):
        raise ValueError("level: p^level observable classes exceed the supported size")
    x0 = _integer(x0, "x0") % mod
    if not system.a % system.prime:
        sums = _fixed_point_sums(system, level, x0, qs, values, cps)
        return ErgodicAverageSeries(cps, np.cumsum(sums) / np.asarray(cps, dtype=np.float64))
    cycle = _cycle_from(system, x0, level)
    # q_j(n) mod L repeats with the period of q_j / L, and so do the units with their lcm.
    period = _period(*([c / cycle.size for c in q.monomial_coefficients()] for q in qs))
    width = min(n_max, -(-_STREAM_TERMS // period) * period)
    sums = np.zeros(len(cps), dtype=np.complex128)
    for blocks in zip(*(_cycle_positions(q, width, cycle.size) for q in qs)):
        units = _class_units(np.sum([cycle[positions] for _, positions in blocks], axis=0, dtype=np.int64) % mod, mod)
        start, stop = blocks[0][0], blocks[0][0] + units.size
        for i, (lo, hi) in enumerate(zip((0,) + cps[:-1], cps)):
            # The interval meets the block's columns at lo, or else first at the next n = start mod W.
            if (lo - start) % width < stop - start or lo + (start - lo) % width < hi:
                sums[i] += np.add.reduce(units * _class_sums(values, lo, hi, start, stop, width))
        del units  # before the next block's units are made beside it
    return ErgodicAverageSeries(cps, np.cumsum(sums) / np.asarray(cps, dtype=np.float64))
