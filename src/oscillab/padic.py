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
read off the package's one difference-table stream: ``phase_stream``
of q / L gives (q(n) mod L) / L, exactly enough to round back to the
integer.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .polyphase import (
    MAX_DEGREE,
    ErgodicAverageSeries,
    PhasePolynomial,
    _as_complex_values,
    _average_series,
    _validated_checkpoints,
    phase_stream,
)

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
    def modulus(self) -> int:
        return self.prime**self.precision

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


def _orbit_cycle(
    system: PadicAffineSystem, x0: int, level: int
) -> tuple[list[int], list[int]]:
    """Orbit of x0 mod p^level split as (pre-periodic tail, cycle)."""
    mod = system.prime**level
    x = x0 % mod
    seen: dict[int, int] = {}
    trail: list[int] = []
    while x not in seen:
        seen[x] = len(trail)
        trail.append(x)
        x = system.step_int(x, level)
    start = seen[x]
    return trail[:start], trail[start:]


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
    x = int(getattr(x0, "value", x0)) % system.prime**max(level, 1)
    if level == 0:
        return {0: steps}
    counts: Counter[int] = Counter()
    for _ in range(steps):
        counts[x] += 1
        x = system.step_int(x, level)
    return dict(counts)


def _cycle_positions(q, count: int, cycle_length: int) -> np.ndarray:
    """q(n) mod cycle_length for n = 0..count-1, read off the phase stream of q / L.

    Exact: for degree <= 8, count <= 10^7 and L <= 2^26 the stream's
    fixed-point drift stays below 2^-40 and each float rounding adds
    about 2^-53, so |phase * L - k| <~ 2^-16 against the 1/2 that
    rounding to the integer k tolerates.  The drift grows like
    (count / 4096)^degree, so past that envelope the margin shrinks.
    """
    scaled = PhasePolynomial([c / cycle_length for c in q.monomial_coefficients()])
    return np.rint(phase_stream(scaled, count) * cycle_length).astype(np.int64) % cycle_length


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
    digits (level 0 is the constant 1).  Orbit values are read from the
    orbit's cycle mod p^level, which is exact because truncation
    commutes with the map.
    """
    if not 0 <= level <= system.precision:
        raise ValueError("level: must be in [0, precision]")
    qs = list(time_polynomials)
    if not qs:
        raise ValueError("time_polynomials: at least one required")
    values = _as_complex_values(seq)
    cps = _validated_checkpoints(checkpoints, len(values))
    n_max = cps[-1]

    for j, q in enumerate(qs):
        if q.degree > MAX_DEGREE:
            raise ValueError(
                f"time_polynomials[{j}]: degree {q.degree} exceeds the supported cap {MAX_DEGREE}"
            )
        bad = q.first_negative_on_range(n_max)
        if bad is not None:
            raise ValueError(
                f"time_polynomials[{j}]: q(n) = {q(bad)} < 0 at n = {bad}"
            )

    provenance = getattr(seq, "provenance", "array")
    if level == 0:
        return _average_series(values[:n_max], cps, provenance)

    mod = system.prime**level
    if mod > (1 << 26):
        raise ValueError("level: p^level observable classes exceed the supported size")
    x_start = int(getattr(x0, "value", x0)) % mod
    tail, cycle = _orbit_cycle(system, x_start, level)
    cycle_arr = np.asarray(cycle, dtype=np.int64)
    clen = len(cycle)
    tlen = len(tail)

    residue_total = np.zeros(n_max, dtype=np.int64)
    for q in qs:
        if tlen == 0:
            residues = cycle_arr[_cycle_positions(q, n_max, clen)]
        else:
            # Pre-periodic orbits (non-invertible a) are evaluated term
            # by term; they are small side cases, never the minimal runs.
            residues = np.empty(n_max, dtype=np.int64)
            for n in range(n_max):
                t = q(n)
                residues[n] = tail[t] if t < tlen else cycle[(t - tlen) % clen]
        residue_total += residues
    phase_index = residue_total % mod
    roots = np.exp((2j * np.pi / mod) * np.arange(mod))
    terms = values[:n_max] * roots[phase_index]
    return _average_series(terms, cps, provenance)
