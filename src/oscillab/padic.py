"""Fixed-precision arithmetic on p-adic integers and affine orbit averages.

Elements of Z_p are kept to K base-p digits, i.e. as integers mod p^K,
and every operation is exact in that ring.  The affine map x -> ax + b
is 1-Lipschitz: the result mod p^j depends only on x mod p^j for every
j <= K, so truncation commutes with iteration and orbits can be
advanced at exactly the digit level an observable needs.

For invertible a the reduction mod p^k is a permutation of Z/p^k, so
every orbit is purely periodic there; a minimal map cycles through all
p^k residues.  Weighted averages along polynomial times q(n) then only
need q(n) positioned inside the orbit cycle, never q(n) literal
iterations.  Those positions q(n) mod L, for a cycle of length L, are
read off the package's one difference-table stream: ``phase_blocks``
of q / L gives (q(n) mod L) / L, exactly enough to round back to the
integer.  On a cycle they repeat with the period of q / L; one period
is computed.  A non-invertible a adds a pre-periodic tail of at most
``level`` points, met only at the few n with q(n) below its length.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .polyphase import (
    _STREAM_TERMS,
    MAX_DEGREE,
    ErgodicAverageSeries,
    PhasePolynomial,
    _average_series,
    _drift_bound,
    _period,
    _repeated,
    _validated_checkpoints,
    _weights,
    phase_blocks,
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
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"prime: {p} is not prime")
    return p


@dataclass(frozen=True)
class PadicNumber:
    """Element of Z_p to ``precision`` base-p digits (exact mod p^precision)."""

    prime: int
    precision: int
    value: int

    def __post_init__(self):
        p = _check_prime(self.prime)
        if self.precision < 1:
            raise ValueError("precision: must be >= 1")
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "value", int(self.value) % p**self.precision)

    @property
    def digits(self) -> tuple[int, ...]:
        """Base-p digits, least significant first."""
        out = []
        v = self.value
        for _ in range(self.precision):
            out.append(v % self.prime)
            v //= self.prime
        return tuple(out)

    def truncate(self, level: int) -> int:
        if not 0 <= level <= self.precision:
            raise ValueError("level: must be in [0, precision]")
        return self.value % self.prime**level

    def _match(self, other: "PadicNumber") -> None:
        if (self.prime, self.precision) != (other.prime, other.precision):
            raise ValueError(
                "operands: mismatched (p, K): "
                f"({self.prime}, {self.precision}) vs ({other.prime}, {other.precision})"
            )

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._match(other)
        return PadicNumber(self.prime, self.precision, self.value + other.value)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._match(other)
        return PadicNumber(self.prime, self.precision, self.value * other.value)


@dataclass(frozen=True)
class PadicAffineSystem:
    """The map Tx = ax + b on Z_p at fixed precision."""

    a: PadicNumber
    b: PadicNumber

    def __post_init__(self):
        self.a._match(self.b)

    @classmethod
    def from_ints(
        cls, prime: int, a: int, b: int, precision: int = DEFAULT_PRECISION
    ) -> "PadicAffineSystem":
        return cls(
            PadicNumber(prime, precision, a), PadicNumber(prime, precision, b)
        )

    @property
    def prime(self) -> int:
        return self.a.prime

    @property
    def precision(self) -> int:
        return self.a.precision

    def step(self, x: PadicNumber) -> PadicNumber:
        self.a._match(x)
        return self.a * x + self.b

    def step_int(self, x: int, level: int) -> int:
        """One step at digit level `level` (exact by 1-Lipschitz compatibility)."""
        mod = self.prime**level
        return (self.a.value * x + self.b.value) % mod


def padic_eval_map(system: PadicAffineSystem, x: PadicNumber) -> PadicNumber:
    """a*x + b mod p^K; mismatched (p, K) raises."""
    return system.step(x)


def affine_minimality_check(a: int, b: int, p: int) -> bool:
    """Minimality of x -> ax + b on Z_p for odd primes p.

    True iff a = 1 mod p and b != 0 mod p.  The p = 2 case needs a
    stronger congruence and is refused rather than guessed.
    """
    p = _check_prime(p)
    if p == 2:
        raise ValueError("p: the p = 2 minimality criterion is not supported")
    return a % p == 1 and b % p != 0


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


def _cycle_from(system: PadicAffineSystem, y: int, level: int) -> np.ndarray:
    """The cycle y, Ty, ... mod p^level through a periodic point y, as int64.

    One point grows to a block of ``_STREAM_TERMS`` by doubling, then
    each block is the image of the one before under T^B, with T^B's
    coefficients (A x + C) mod p^level exact in int64 for p^level <=
    2^26.  The cycle is cut at the first return to y.
    """
    mod = system.prime**level
    a, b = system.a.value, system.b.value
    block = np.array([y], dtype=np.int64)
    while block.size < _STREAM_TERMS:
        big_a, big_c = _affine_power(a, b, block.size, mod)
        block = np.concatenate((block, (big_a * block + big_c) % mod))
    big_a, big_c = _affine_power(a, b, block.size, mod)
    parts, skip = [], 1
    while True:
        returns = np.flatnonzero(block[skip:] == y)
        if returns.size:
            parts.append(block[: skip + returns[0]])
            return np.concatenate(parts)
        parts.append(block)
        block = (big_a * block + big_c) % mod
        skip = 0


def _orbit_cycle(system: PadicAffineSystem, x0: int, level: int) -> tuple[list[int], np.ndarray]:
    """Orbit of x0 mod p^level split as (pre-periodic tail, cycle).

    For p not dividing a, T permutes Z/p^level, so there is no tail and
    the cycle starts at x0.  For p | a, a^level = 0 mod p^level, so
    T^level is constant; its value is a fixed point, reached within
    ``level`` steps, and the cycle is that one point.
    """
    x = x0 % system.prime**level
    if system.a.value % system.prime:
        return [], _cycle_from(system, x, level)
    tail = []
    while (following := system.step_int(x, level)) != x:
        tail.append(x)
        x = following
    return tail, np.array([x], dtype=np.int64)


def orbit_residue_census(
    system: PadicAffineSystem, x0, level: int, steps: int
) -> dict[int, int]:
    """Visit counts of the orbit in residue classes mod p^level.

    Counts x0, Tx0, ..., T^(steps-1)x0.  For a minimal system the orbit
    mod p^level is a single cycle of exact length p^level, so over
    m * p^level steps every class is hit exactly m times.
    """
    if not 0 <= level <= system.precision:
        raise ValueError("level: must be in [0, precision]")
    if steps < 1:
        raise ValueError("steps: must be >= 1")
    x = int(getattr(x0, "value", x0)) % system.prime**level
    counts: Counter[int] = Counter()
    for _ in range(steps):
        counts[x] += 1
        x = system.step_int(x, level)
    return dict(counts)


def _cycle_positions(q, count: int, cycle_length: int):
    """Blocks ``(start, q(n) mod L)``, n < count, read off the phase blocks of q / L.

    Exact while the proven margin holds: every phase carries less than
    ``_drift_bound`` units of 2^-128 of fixed-point error, and float
    conversion and scaling by L add less than 2^-51 L, so
    L * (drift + 2^77) <= 2^127 keeps |phase * L - k| below the 1/2
    that rounding to the integer k tolerates.  Past that envelope (at
    degree 8 and L = 3^16, beyond about 5 * 10^7 terms) a ValueError is
    raised before anything is streamed.
    """
    if cycle_length * (_drift_bound(q.degree, count) + (1 << 77)) > 1 << 127:
        raise ValueError(
            f"count: {count} terms of a degree-{q.degree} time polynomial on a cycle of "
            f"length {cycle_length} exceed the exact rounding envelope "
            "L * (drift bound + 2^77) <= 2^127"
        )
    scaled = PhasePolynomial([c / cycle_length for c in q.monomial_coefficients()])
    return (
        (start, np.rint(phases * cycle_length).astype(np.int64) % cycle_length)
        for start, phases in phase_blocks(scaled, count)
    )


def _orbit_indices(q, count: int, tail_length: int, cycle_length: int):
    """Blocks ``(start, i(q(n)))`` with orbit[i(t)] = T^t x0 for orbit = tail + cycle.

    i(t) = tail_length + (t - tail_length) mod L, read off
    ``_cycle_positions`` of q - tail_length, except on the runs where
    q(n) < tail_length, found exactly by forward differences, where i(t) = t.
    Those runs hold at most degree * tail_length points unless q is
    constant.
    """
    a = q.binomial_coefficients
    shifted = TimePolynomial((a[0] - tail_length,) + a[1:])
    low_runs = shifted.negative_runs(count)
    for start, positions in _cycle_positions(shifted, count, cycle_length):
        indices = positions + tail_length
        stop = start + indices.size
        for lo, hi in low_runs:
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                indices[lo - start : hi - start] = (
                    [q(n) for n in range(lo, hi)] if q.degree else q(0)
                )
        yield start, indices


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
    digits (level 0 is the constant 1, on a one-point cycle).  Orbit
    values are read from the orbit's cycle mod p^level, which is exact
    because truncation commutes with the map.
    """
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
    tail, cycle = _orbit_cycle(system, int(getattr(x0, "value", x0)), level)
    orbit = np.concatenate((np.asarray(tail, dtype=np.int64), cycle)) if tail else cycle
    # With no tail, q_j(n) mod L repeats with the period of q_j / L, and so do the units with their lcm.
    scaled = ([c / cycle.size for c in q.monomial_coefficients()] for q in qs)
    span = n_max if tail else min(n_max, _period(*scaled))
    streams = [_orbit_indices(q, span, len(tail), cycle.size) for q in qs]
    # One root per class pays off only when the classes are fewer than the units they serve;
    # a unit is the table's own expression of its class either way, so the values are the same.
    roots = np.exp((2j * np.pi / mod) * np.arange(mod)) if mod < span else None
    classes = ((b[0][0], sum(orbit[indices] for _, indices in b) % mod) for b in zip(*streams))
    units = ((s, np.exp((2j * np.pi / mod) * k) if roots is None else roots[k]) for s, k in classes)
    stops = [(s, min(s + _STREAM_TERMS, n_max)) for s in range(0, n_max, _STREAM_TERMS)]
    if span < n_max:
        period = np.empty(span, dtype=np.complex128)
        for start, unit in units:
            period[start : start + unit.size] = unit
        units = ((s, _repeated(period, s, e)) for s, e in stops)
    # Stops are the streams' own blocks.  The units enter each product unnamed: numpy reuses a large
    # unnamed factor for the result, swapping the factors, which fixes the last bit of complex products.
    return _average_series(((s, values[s:e] * next(units)[1]) for s, e in stops), cps)
