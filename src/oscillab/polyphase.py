"""Polynomial phases mod 1, stable phase streaming, and weighted exponential averages.

The central quantity everywhere in this package is the partial average

    A_N = (1/N) * sum_{n=0}^{N-1} c_n * e(P(n)),      e(t) = exp(2*pi*i*t),

for a weight sequence (c_n) and a real polynomial P.  Since n runs over
integers, e(P(n)) depends only on the coefficients of P mod 1, so
``PhasePolynomial`` stores coefficients reduced to [0, 1) as exact
rationals (binary floats convert losslessly via ``Fraction``).

Evaluating P(n) mod 1 naively in floating point is useless at scale: a
coefficient perturbation eps changes the phase by eps * n^d, which for
d = 4 and n = 10^6 wipes out every fractional digit.  Two evaluation
paths avoid this:

* ``phase_at`` computes frac(P(n)) for a single n with exact integer
  arithmetic.  It is slow and serves as the reference oracle.
* ``phase_stream`` emits frac(P(n)) for n = 0..N-1 using blocked
  forward-difference tables held in 128-bit fixed point.  The seeds come
  from one exact integer table: with den the lcm of the coefficient
  denominators, den * P(n) mod den is an integer polynomial, stepped
  exactly over the seeded indices and truncated once per seed to fixed
  point.  Addition mod 1 is exact in that representation, so the only
  error is that single 2^-128 truncation per seed (none when den divides
  2^128, as for every float coefficient >= 2^-76) plus one float rounding
  on output; the documented bound of 1e-9 at N = 10^6, d <= 4 is met
  with orders of magnitude to spare.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import numpy as np

MAX_DEGREE = 8

# Phases in [0, 1) as 128-bit fixed-point integers: mod-1 addition is exact.
_FIXED_BITS = 128
_FIXED_MASK = (1 << _FIXED_BITS) - 1
_MASK64 = (1 << 64) - 1
_INV_2_64 = 2.0 ** -64
_INV_2_128 = 2.0 ** -128

# Lane width of the blocked difference table.  Seeding steps one exact
# integer table over at most lanes * (d + 1) indices, d additions mod den
# per index and one truncation per seed; each lane then steps N/lanes
# times in fixed point, where mod-1 addition is exact.
_MAX_LANES = 4096


def _reduced(value) -> Fraction:
    """Value as an exact Fraction reduced into [0, 1)."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f % 1


class PhasePolynomial:
    """Real polynomial with coefficients stored mod 1.

    Coefficients are exact ``Fraction`` values in [0, 1); floats are
    converted without rounding.  The declared degree is the index of the
    last coefficient slot, so trailing zeros are allowed and preserved.
    Instances are immutable.
    """

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(_reduced(c) for c in coefficients)
        if not coeffs:
            raise ValueError("coefficients: at least one coefficient required")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(
                f"degree {len(coeffs) - 1} exceeds the supported cap {MAX_DEGREE}"
            )
        self._coefficients = coeffs

    @classmethod
    def zero(cls, degree: int = 0) -> "PhasePolynomial":
        return cls([Fraction(0)] * (degree + 1))

    @classmethod
    def monomial(cls, coefficient, power: int) -> "PhasePolynomial":
        """Polynomial coefficient * z^power (coefficient taken mod 1)."""
        if power < 0:
            raise ValueError("power: must be nonnegative")
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = _reduced(coefficient)
        return cls(coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coefficients

    @property
    def float_coefficients(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self._coefficients)

    @property
    def degree(self) -> int:
        return len(self._coefficients) - 1

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        a, b = self._coefficients, other._coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for j, c in enumerate(b):
            summed[j] = (summed[j] + c) % 1
        return PhasePolynomial(summed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self._coefficients == other._coefficients

    def __hash__(self):
        return hash(self._coefficients)

    def __repr__(self) -> str:
        inner = ", ".join(str(float(c)) for c in self._coefficients)
        return f"PhasePolynomial([{inner}])"


def phase_at(poly: PhasePolynomial, n: int) -> float:
    """frac(P(n)) via exact integer arithmetic.

    Reference evaluator: each term t_j * n^j is split exactly as
    (num_j * n^j mod den_j) / den_j and the rational parts are summed
    without rounding.  The single float conversion at the end is the
    only inexact step.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("n: must be nonnegative")
    total = Fraction(0)
    for j, c in enumerate(poly.coefficients):
        if c:
            den = c.denominator
            total += Fraction((c.numerator * pow(n, j, den)) % den, den)
    return float(total % 1)


def _to_fixed(value) -> int:
    """Phase value mod 1 as a 128-bit fixed-point integer (exact for floats)."""
    f = _reduced(value)
    return (f.numerator << _FIXED_BITS) // f.denominator


def _fixed_to_float(fx: int) -> float:
    return fx * _INV_2_128


def _fixed_seed_table(coeffs: tuple[Fraction, ...], count: int) -> list[int]:
    """frac(P(n)) for n = 0..count-1 as 128-bit fixed-point integers.

    With den the lcm of the coefficient denominators, V(n) = den * P(n)
    mod den is an integer polynomial.  V is stepped exactly with an
    integer forward-difference table (d additions mod den per value) and
    each value is truncated once, to floor(2^128 * V(n) / den).
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    row = [sum(a * n**j for j, a in enumerate(ints)) % den for n in range(len(ints))]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [(b - a) % den for a, b in zip(row, row[1:])]
    d = len(diffs) - 1
    seeds = []
    for _ in range(count):
        seeds.append((diffs[0] << _FIXED_BITS) // den)
        for k in range(d):
            diffs[k] = (diffs[k] + diffs[k + 1]) % den
    return seeds


def phase_stream(poly: PhasePolynomial, count: int) -> np.ndarray:
    """frac(P(n)) for n = 0..count-1 via fixed-point difference tables.

    The stream is split into lanes of stride B: for each residue r the
    polynomial P(m*B + r) in m is advanced with a forward-difference
    table of d+1 registers, each step one addition per register.  The
    registers live in 128-bit fixed point (a pair of uint64 arrays)
    where mod-1 addition is exact, so no rounding accumulates across
    steps.  The registers are seeded from one exact integer table
    (``_fixed_seed_table``) with one truncation per seed.  Agrees with
    ``phase_at`` to well below 1e-9 for N <= 10^7 and degree <= 8.
    """
    if count < 1:
        raise ValueError("count: must be >= 1")
    coeffs = poly.coefficients
    d = poly.degree

    if d == 0 or all(c == 0 for c in coeffs[1:]):
        return np.full(count, float(coeffs[0]), dtype=np.float64)

    lanes = min(_MAX_LANES, max(64, count // 64))
    blocks = -(-count // lanes)

    # Row i seeds P(i*lanes + r); a row with i >= blocks never reaches
    # row 0, so only the first min(d + 1, blocks) rows are seeded.
    rows = min(d + 1, blocks)
    seeds = _fixed_seed_table(coeffs, rows * lanes)
    hi = np.array([v >> 64 for v in seeds], dtype=np.uint64).reshape(rows, lanes)
    lo = np.array([v & _MASK64 for v in seeds], dtype=np.uint64).reshape(rows, lanes)

    # Forward differences along the rows, exact mod 2^128 (borrow from lo).
    for j in range(1, rows):
        for i in range(rows - 1, j - 1, -1):
            borrow = (lo[i] < lo[i - 1]).astype(np.uint64)
            lo[i] -= lo[i - 1]
            hi[i] -= hi[i - 1] + borrow

    out = np.empty((blocks, lanes), dtype=np.float64)
    out[0] = hi[0] * _INV_2_64 + lo[0] * _INV_2_128
    for step in range(1, blocks):
        src_lo = lo[1:].copy()
        src_hi = hi[1:].copy()
        lo[:-1] += src_lo
        carry = (lo[:-1] < src_lo).astype(np.uint64)
        hi[:-1] += src_hi + carry
        out[step] = hi[0] * _INV_2_64 + lo[0] * _INV_2_128
    phases = out.reshape(-1)[:count]
    # hi = 2^64 - 1 can round up to 1.0 in float; fold it back.
    phases[phases >= 1.0] -= 1.0
    return phases


def unit_values(phases: np.ndarray) -> np.ndarray:
    """e(phase) for an array of phases in turns."""
    z = (2j * np.pi) * np.asarray(phases, dtype=np.float64)
    return np.exp(z, out=z)


def _as_complex_values(seq) -> np.ndarray:
    """Accept a ComplexSequence-like object or a bare array of weights."""
    values = getattr(seq, "values", seq)
    return np.asarray(values, dtype=np.complex128)


def _validated_checkpoints(checkpoints, limit: int | None = None) -> tuple[int, ...]:
    """Checkpoints as a nonempty, strictly increasing tuple of lengths >= 1.

    With ``limit`` given, the last checkpoint may not exceed it.
    """
    cps = tuple(int(c) for c in checkpoints)
    if not cps:
        raise ValueError("checkpoints: at least one checkpoint required")
    if any(c < 1 for c in cps):
        raise ValueError("checkpoints: entries must be >= 1")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints: must be strictly increasing")
    if limit is not None and cps[-1] > limit:
        raise ValueError(
            f"checkpoints: {cps[-1]} exceeds available length {limit}"
        )
    return cps


def _prefix_sums(values: np.ndarray, cps: tuple[int, ...]) -> np.ndarray:
    """Prefix sums of ``values`` at validated checkpoints (pairwise summation)."""
    starts = np.concatenate(([0], cps[:-1])).astype(np.intp)
    segments = np.add.reduceat(values[: cps[-1]], starts)
    return np.cumsum(segments)


def checkpoint_sums(values: np.ndarray, checkpoints) -> np.ndarray:
    """Prefix sums of ``values`` at each checkpoint (pairwise summation)."""
    values = np.asarray(values)
    return _prefix_sums(values, _validated_checkpoints(checkpoints, len(values)))


@dataclass(frozen=True, eq=False)
class ErgodicAverageSeries:
    """Checkpointed partial averages of a weighted exponential sum.

    Attributes:
        checkpoints: strictly increasing lengths N
        averages: complex partial average at each checkpoint
        weight_provenance: tag describing the generating weights
    """

    checkpoints: tuple[int, ...]
    averages: np.ndarray
    weight_provenance: str = ""

    def __post_init__(self):
        cps = _validated_checkpoints(self.checkpoints)
        object.__setattr__(self, "checkpoints", cps)
        avgs = np.asarray(self.averages, dtype=np.complex128)
        if avgs.shape != (len(cps),):
            raise ValueError("averages: one value per checkpoint required")
        object.__setattr__(self, "averages", avgs)

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.averages)

    def to_csv(self) -> str:
        lines = ["n,re,im,modulus"]
        for n, a in zip(self.checkpoints, self.averages):
            lines.append(
                f"{n},{a.real:.17g},{a.imag:.17g},{abs(a):.17g}"
            )
        return "\n".join(lines) + "\n"


def _average_series(
    terms: np.ndarray, cps: tuple[int, ...], weight_provenance: str
) -> ErgodicAverageSeries:
    """Partial averages (1/N) * sum_{n<N} terms_n at each checkpoint.

    ``cps`` is the output of ``_validated_checkpoints`` against ``terms``,
    so the prefix sums are taken without parsing the checkpoints again.
    """
    averages = _prefix_sums(terms, cps) / np.asarray(cps, dtype=np.float64)
    return ErgodicAverageSeries(cps, averages, weight_provenance)


def weighted_exponential_average(
    seq, poly: PhasePolynomial, checkpoints
) -> ErgodicAverageSeries:
    """Partial averages (1/N) sum c_n e(P(n)) at the given checkpoints.

    Single pass: phases come from ``phase_stream`` and the per-checkpoint
    sums are formed with pairwise segment summation in fixed index order,
    so results are deterministic.
    """
    values = _as_complex_values(seq)
    cps = _validated_checkpoints(checkpoints, len(values))
    n_max = cps[-1]
    terms = values[:n_max] * unit_values(phase_stream(poly, n_max))
    provenance = getattr(seq, "provenance", "array")
    return _average_series(terms, cps, provenance)


def binomial_coefficient(n: int, k: int) -> int:
    """C(n, k), exact; zero when 0 <= n < k."""
    if n < 0 or k < 0:
        raise ValueError("binomial_coefficient: arguments must be nonnegative")
    return math.comb(n, k)


@lru_cache(maxsize=None)
def _binomial_basis_monomials(m: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of C(z, m) = z(z-1)...(z-m+1) / m!."""
    poly = [1]
    for i in range(m):
        # multiply by (z - i)
        poly = [0] + poly
        for s in range(len(poly) - 1):
            poly[s] -= i * poly[s + 1]
    fact = math.factorial(m)
    return tuple(Fraction(c, fact) for c in poly)


def binomial_phase_polynomial(thetas) -> PhasePolynomial:
    """Expand Q(z) = sum_j theta_j * C(z, k-j) into monomial coefficients mod 1.

    ``thetas`` is ordered so that thetas[0] multiplies the top binomial
    C(z, k) and thetas[k] the constant C(z, 0).
    """
    thetas = tuple(thetas)
    if not thetas:
        raise ValueError("thetas: at least one entry required")
    k = len(thetas) - 1
    acc = [Fraction(0)] * (k + 1)
    for j, theta in enumerate(thetas):
        t = theta if isinstance(theta, Rational) else Fraction(theta)
        if not t:
            continue
        for s, b in enumerate(_binomial_basis_monomials(k - j)):
            if b:
                acc[s] += t * b
    return PhasePolynomial(acc)


def _poly_mul(a: list[Fraction], b: tuple[Fraction, ...]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def compose_time_polynomial(q_outer: PhasePolynomial, q_inner) -> PhasePolynomial:
    """Monomial expansion of Q(q(z)) reduced mod 1.

    ``q_inner`` must take integer values at integers (any object exposing
    ``monomial_coefficients()``, or a bare iterable of exact monomial
    coefficients).  Reduction of the composed coefficients mod 1 is valid
    because subtracting integer multiples of z^s never changes values at
    integer arguments mod 1.
    """
    if hasattr(q_inner, "monomial_coefficients"):
        inner = tuple(q_inner.monomial_coefficients())
    else:
        inner = tuple(Fraction(c) for c in q_inner)
    if not inner:
        inner = (Fraction(0),)
    outer = q_outer.coefficients
    composed_degree = q_outer.degree * max(len(inner) - 1, 0)
    if composed_degree > MAX_DEGREE:
        raise ValueError(
            f"composed degree {composed_degree} exceeds the supported cap {MAX_DEGREE}"
        )
    # Horner in the outer coefficients, exact rational arithmetic.
    result: list[Fraction] = [outer[-1]]
    for c in reversed(outer[:-1]):
        result = _poly_mul(result, inner)
        result[0] += c
    return PhasePolynomial(result)


def fourier_bohr_scan(seq, grid_frequencies: int, length: int) -> list[tuple[float, float]]:
    """Moduli |(1/N) sum c_n e(n * j/M)| for j = 0..M-1, sorted descending.

    The sum for frequency j/M only depends on n mod M, so the sequence is
    folded into M residue buckets and a single FFT finishes the scan.
    Ties in modulus break toward the smaller frequency index.
    """
    if grid_frequencies < 2:
        raise ValueError("grid_frequencies: must be >= 2")
    values = _as_complex_values(seq)
    if length < 1 or length > len(values):
        raise ValueError("length: must be in [1, sequence length]")
    m = int(grid_frequencies)
    padded_len = -(-length // m) * m
    padded = np.zeros(padded_len, dtype=np.complex128)
    padded[:length] = values[:length]
    buckets = padded.reshape(-1, m).sum(axis=0)
    averages = np.fft.ifft(buckets) * (m / length)
    moduli = np.abs(averages)
    order = np.lexsort((np.arange(m), -moduli))
    return [(j / m, float(moduli[j])) for j in order]


def geometric_checkpoints(start: int, stop: int) -> tuple[int, ...]:
    """Doubling checkpoint schedule ceil(start * 2^i), capped by stop."""
    if start < 1 or stop < start:
        raise ValueError("geometric_checkpoints: need 1 <= start <= stop")
    out = []
    value = start
    while value < stop:
        out.append(value)
        value = min(stop, value * 2)
    out.append(stop)
    return tuple(out)
