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
* ``phase_blocks`` emits frac(P(n)) for n = 0..N-1 in blocks of about
  ``_STREAM_TERMS`` terms using blocked forward-difference tables held
  in 128-bit fixed point.  The seeds are exact: Horner's rule on uint64
  word pairs when every coefficient denominator divides 2^128 (every
  float coefficient >= 2^-76), else a Python-integer table of
  den * P(n) mod den, den the lcm of the denominators, truncated once
  per seed.  Mod-1 addition is exact in that representation, so the
  only error is that one 2^-128 truncation per seed (none on the dyadic
  route) plus one float rounding on output: the 1e-9 bound at N = 10^6,
  d <= 4 is met with orders of magnitude to spare.  ``phase_stream`` is
  the same stream taken as one block, for callers that keep the array.

``unit_values`` turns phases into e(phase) without a complex
exponential: 4096 * phase splits exactly into an integer k and a rest
r in [0, 1), so e(phase) is the table root e(k / 4096) times e(r / 4096),
whose angle is below 1.6e-3 and takes a degree-5 Taylor series (off by
under 2e-20).  Values agree with ``np.exp`` to about 1e-15, and the
input is worked through in 2^13-term pieces so that the scratch of a
piece stays in cache.

Every long consumer (weighted and multiple ergodic averages, p-adic
averages, the residue fold of the spectrum scan) works block by block:
weights become complex one block at a time and each block's terms are
cut at the checkpoints and summed (``np.add.reduceat``, pairwise within
a piece), the pieces added in index order.  Memory beyond the weights
themselves is constant in N.
"""

import bisect
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
_FIXED_ONE = 1 << _FIXED_BITS
_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)
_INV_2_64 = 2.0 ** -64
_INV_2_128 = 2.0 ** -128

# Lane width of the blocked difference table.  At most lanes * (d + 1)
# <= 36,864 < 2^32 indices are seeded, by Horner on uint64 pairs or, for
# non-dyadic denominators, one big-int table; each lane then steps
# N/lanes times in fixed point, where mod-1 addition is exact.  Lanes are
# N/8, so a stream of 2^15 terms or more has the full 4096 and every
# block of it but the last holds exactly ``_STREAM_TERMS`` terms.
_MAX_LANES = 4096

# Terms per block of every streamed consumer: a block's phases, unit
# values and terms are about 2.5 MB together, whatever N is.
_STREAM_TERMS = 1 << 16

# e(phase) reads e(k / _ROOT_COUNT) from a table and corrects it by a
# short Taylor series; the table is built from its first quarter turned
# by i, -1 and -i, so e(j / 4) are exact.
_ROOT_COUNT = 1 << 12
_ROOT_STEP = 2 * math.pi / _ROOT_COUNT
_QUARTER_ROOTS = np.exp((1j * _ROOT_STEP) * np.arange(_ROOT_COUNT // 4))
_ROOTS = np.concatenate([_QUARTER_ROOTS, 1j * _QUARTER_ROOTS, -_QUARTER_ROOTS, -1j * _QUARTER_ROOTS])

# Terms per piece of ``unit_values``: its scratch, 72 bytes a term, is
# then 576 KB and a piece's dozen passes stay in a core's L2 cache.  On a
# Xeon with 2 MB of L2 per core, 10^6 phases took 18 ns/term in 2^13-term
# pieces, 23 in ``_STREAM_TERMS`` pieces (3.5 MB of scratch) and 55 as
# one piece (np.exp: 64); one piece also raised the sup search's peak
# RSS by 19%.
_UNIT_TERMS = 1 << 13


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
    only inexact step; a value that rounds up to 1.0 is folded back to 0.0.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("n: must be nonnegative")
    total = Fraction(0)
    for j, c in enumerate(poly.coefficients):
        if c:
            den = c.denominator
            total += Fraction((c.numerator * pow(n, j, den)) % den, den)
    return float(total % 1) % 1.0


def _to_fixed(value) -> int:
    """Phase value mod 1 as a 128-bit fixed-point integer (exact for floats)."""
    f = _reduced(value)
    return (f.numerator << _FIXED_BITS) // f.denominator


def _fixed_to_float(fx: int) -> float:
    """A 128-bit fixed-point phase as a float in [0, 1); one that rounds up to 1.0 folds to 0.0."""
    return (fx * _INV_2_128) % 1.0


def _forward_differences(values) -> list:
    """Leading entries v(0), (delta v)(0), (delta^2 v)(0), ... of the difference table.

    For the values at 0..d of a polynomial of degree <= d these are its
    coefficients a_j in the binomial basis, v(n) = sum_j a_j C(n, j).
    """
    row = list(values)
    leading = []
    while row:
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return leading


def _difference_steps(registers: list, count: int, modulus: int):
    """Yield ``registers`` r_0, ..., r_k at steps 0..count-1 of the difference recurrence.

    One step adds r_{j-1} to r_j mod ``modulus`` for j = k, ..., 1, so r_0
    is constant and r_k after n steps is sum_j C(n, k - j) r_j mod
    ``modulus``.  The list is updated in place and the same list is
    yielded each time, so read it before the next step.  With a
    polynomial's leading forward differences, highest first, r_k steps
    through its values; with (alpha, x_1, ..., x_m) the registers step
    the skew shift T.
    """
    downward = range(len(registers) - 1, 0, -1)
    for _ in range(count):
        yield registers
        for j in downward:
            registers[j] = (registers[j] + registers[j - 1]) % modulus


def _fixed_seed_table(coeffs: tuple[Fraction, ...], count: int) -> list[int]:
    """frac(P(n)) for n = 0..count-1 as 128-bit fixed-point Python ints, for any denominators.

    With den the lcm of the coefficient denominators, V(n) = den * P(n)
    mod den is an integer polynomial.  Its forward differences at 0,
    reduced mod den, step on ``_difference_steps`` (d additions mod den
    per value) and each value is truncated once, to
    floor(2^128 * V(n) / den).  This is the bit-for-bit reference for
    the uint64 Horner seeds of ``_seed_pairs``.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    values = [sum(a * n**j for j, a in enumerate(ints)) for n in range(len(ints))]
    diffs = [v % den for v in reversed(_forward_differences(values))]
    return [(regs[-1] << _FIXED_BITS) // den for regs in _difference_steps(diffs, count, den)]


def _seed_pairs(coeffs: tuple[Fraction, ...], count: int) -> tuple[np.ndarray, np.ndarray]:
    """frac(P(n)) for n = 0..count-1 in 128-bit fixed point, as high and low uint64 arrays.

    When every denominator divides 2^128, 2^128 * P(n) mod 2^128 is
    sum_j A_j n^j with integers A_j = 2^128 t_j: Horner's rule on uint64
    pairs evaluates it exactly for all n at once, the low word multiplied
    in 32-bit halves (n < 2^32) with carries into the high word.  Scalars
    are np.uint64, since numpy 1.x makes uint64 with Python ints float64.
    Other denominators take the big-int ``_fixed_seed_table``.
    """
    if any(_FIXED_ONE % c.denominator for c in coeffs):
        seeds = _fixed_seed_table(coeffs, count)
        return (
            np.array([v >> 64 for v in seeds], dtype=np.uint64),
            np.array([v & _MASK64 for v in seeds], dtype=np.uint64),
        )
    n = np.arange(count, dtype=np.uint64)
    hi = np.zeros(count, dtype=np.uint64)
    lo = np.zeros(count, dtype=np.uint64)
    for c in reversed(coeffs):
        low = (lo & _MASK32) * n
        mid = (lo >> _SHIFT32) * n
        lo = low + (mid << _SHIFT32)
        hi = hi * n + (mid >> _SHIFT32) + (lo < low)
        a_hi, a_lo = (np.uint64(w) for w in divmod(_to_fixed(c), 1 << 64))
        lo += a_lo
        hi += a_hi + (lo < a_lo)
    return hi, lo


def _lanes(count: int) -> int:
    """Lane width of the difference table for a stream of ``count`` terms.

    count / 8 lanes, so a stream below 2^15 terms steps at most 8 rows:
    each row is a handful of numpy calls, while uint64 Horner seeds for
    more lanes cost little.
    """
    return min(_MAX_LANES, max(64, count // 8))


def phase_blocks(poly: PhasePolynomial, count: int):
    """frac(P(n)) for n = 0..count-1 as ``(start, phases)`` blocks in index order.

    The stream is split into lanes of stride B: for each residue r the
    polynomial P(m*B + r) in m is advanced with a forward-difference
    table of d+1 registers, each step one addition per register.  The
    registers live in 128-bit fixed point (a pair of uint64 arrays)
    where mod-1 addition is exact, so no rounding accumulates across
    steps.  They are seeded exactly by ``_seed_pairs``, on uint64 pairs
    when every denominator divides 2^128, else from a big-int table with
    one truncation per seed.  Agrees with ``phase_at`` to well below
    1e-9 for N <= 10^7 and degree <= 8.

    Each block holds a whole number of rows of B terms, about
    ``_STREAM_TERMS`` terms, so only the registers and one block are
    alive at a time.  The blocks are fresh arrays the caller may keep.
    """
    return _phase_blocks(poly, count, _STREAM_TERMS)


def phase_stream(poly: PhasePolynomial, count: int) -> np.ndarray:
    """frac(P(n)) for n = 0..count-1 as one array: ``phase_blocks`` with one block.

    The block spans the whole stream, so the rows are stepped straight
    into the returned array, with no second buffer and no copy.
    """
    [(_, phases)] = _phase_blocks(poly, count, count)
    return phases


def _phase_blocks(poly: PhasePolynomial, count: int, block_terms: int):
    """Blocks of whole lane rows, about ``block_terms`` terms each; ``count`` is checked now.

    Every block but the last holds the same number of terms, whether the
    polynomial is stepped or constant, so streams of different
    polynomials over one count can be zipped block by block.
    """
    if count < 1:
        raise ValueError("count: must be >= 1")
    lanes = _lanes(count)
    block_rows = -(-block_terms // lanes)
    coeffs = poly.coefficients
    if all(c == 0 for c in coeffs[1:]):
        value = float(coeffs[0]) % 1.0
        size = block_rows * lanes
        return (
            (start, np.full(min(size, count - start), value))
            for start in range(0, count, size)
        )
    return _stepped_blocks(coeffs, count, lanes, block_rows)


def _stepped_blocks(coeffs: tuple[Fraction, ...], count: int, lanes: int, block_rows: int):
    d = len(coeffs) - 1
    steps = -(-count // lanes)

    # Row i seeds P(i*lanes + r); a row with i >= steps never reaches
    # row 0, so only the first min(d + 1, steps) rows are seeded.
    rows = min(d + 1, steps)
    hi, lo = (words.reshape(rows, lanes) for words in _seed_pairs(coeffs, rows * lanes))

    # Forward differences along the rows, exact mod 2^128 (borrow from lo).
    for j in range(1, rows):
        for i in range(rows - 1, j - 1, -1):
            borrow = (lo[i] < lo[i - 1]).astype(np.uint64)
            lo[i] -= lo[i - 1]
            hi[i] -= hi[i - 1] + borrow

    for first in range(0, steps, block_rows):
        out = np.empty((min(block_rows, steps - first), lanes), dtype=np.float64)
        for k in range(len(out)):
            if first + k:
                src_lo = lo[1:].copy()
                src_hi = hi[1:].copy()
                lo[:-1] += src_lo
                carry = (lo[:-1] < src_lo).astype(np.uint64)
                hi[:-1] += src_hi + carry
            out[k] = hi[0] * _INV_2_64 + lo[0] * _INV_2_128
        start = first * lanes
        phases = out.reshape(-1)[: count - start]
        # hi = 2^64 - 1 can round up to 1.0 in float; fold it back.
        phases[phases >= 1.0] -= 1.0
        yield start, phases


def _drift_bound(degree: int, count: int) -> int:
    """Bound, in units of 2^-128, on the fixed-point error of a stream entry.

    Each seed is truncated by less than one unit, so the j-th difference
    of a lane's seeds is off by less than 2^j.  Stepping is exact and
    row m of a lane is sum_j C(m, j) * (j-th difference), so its error
    is below sum_j C(m, j) 2^j, largest at the last row.
    """
    last_row = -(-count // _lanes(count)) - 1
    return sum(math.comb(last_row, j) << j for j in range(degree + 1))


def _period(*coefficient_lists) -> int:
    """q = lcm of the denominators of t_1..t_d of every P given: each P(n + q) - P(n) is an integer."""
    return math.lcm(*(c.denominator for coefficients in coefficient_lists for c in coefficients[1:]))


def _repeated(period: np.ndarray, start: int, stop: int) -> np.ndarray:
    """period[k mod q], q = period.size, for start <= k < stop: a new array, in log2((stop - start) / q) copies."""
    q = period.size
    out = np.empty(stop - start, dtype=period.dtype)
    filled = 0
    while filled < out.size:
        # Until one whole period is in, copy from it; then double what is in, from a multiple of q back.
        piece = period[(start + filled) % q :] if filled < q else out[filled % q : filled]
        out[filled : filled + piece.size] = piece[: out.size - filled]
        filled = min(out.size, filled + piece.size)
    return out


def unit_values(phases) -> np.ndarray:
    """e(phase) for an array of phases in turns, as a complex array of the same shape.

    x = 4096 * phase and k = floor(x) are exact in floats, so
    e(phase) = R[k mod 4096] * e(r / 4096) with r = x - k in [0, 1) also
    exact.  The root R comes from the table ``_ROOTS``; the residual
    angle theta = 2 pi r / 4096 is below 1.6e-3, where
    cos = 1 - theta^2/2 + theta^4/24 and sin = theta - theta^3/6 +
    theta^5/120 are off by under 2e-20.  What is left is float rounding:
    values agree with ``np.exp(2j * pi * phase)`` to about 1e-15 on
    [-1, 1), and their moduli are within 1e-15 of 1.  Every value depends
    on its phase alone, not on its place in the array or the array's
    size, and phases that differ by an integer give the same values bit
    for bit as long as both are exact floats.

    The input is worked through in ``_UNIT_TERMS`` = 2^13-term pieces
    written into the one preallocated result, so a piece's scratch stays
    in cache whatever the size; at ``_STREAM_TERMS`` it would not fit a
    core's L2 cache and run slower per term.  Phases must be finite with
    magnitude below 2^51, so that k fits an int64; others raise a
    ValueError.
    """
    phases = np.asarray(phases, dtype=np.float64)
    values = np.empty(phases.shape, dtype=np.complex128)
    src = phases.reshape(-1)
    dst = values.reshape(-1)
    size = min(src.size, _UNIT_TERMS)
    scratch = [np.empty(size) for _ in range(4)]
    scratch += [np.empty(size, dtype=np.intp)] + [np.empty(size, dtype=np.complex128) for _ in range(2)]
    # For finite phases below 2^51 no step is invalid; for others the cast of k is.
    try:
        with np.errstate(invalid="raise"):
            for start in range(0, src.size, _UNIT_TERMS):
                stop = min(src.size, start + _UNIT_TERMS)
                _unit_piece(src[start:stop], dst[start:stop], scratch)
    except FloatingPointError:
        raise ValueError("phases: must be finite with magnitude below 2^51") from None
    return values


def _unit_piece(phases: np.ndarray, out: np.ndarray, scratch) -> None:
    """Write e(phases) into ``out`` by the table method of ``unit_values``."""
    x, k, theta2, cos, index, roots, turn = (a[: phases.size] for a in scratch)
    np.multiply(phases, float(_ROOT_COUNT), out=x)
    np.floor(x, out=k)
    np.subtract(x, k, out=x)
    index[...] = k
    np.bitwise_and(index, _ROOT_COUNT - 1, out=index)
    np.take(_ROOTS, index, out=roots)
    theta = np.multiply(x, _ROOT_STEP, out=x)
    np.multiply(theta, theta, out=theta2)
    np.multiply(theta2, 1 / 24, out=cos)
    cos -= 0.5
    cos *= theta2
    cos += 1.0
    sin = np.multiply(theta2, 1 / 120, out=k)
    sin -= 1 / 6
    sin *= theta2
    sin *= theta
    sin += theta
    turn.real = cos
    turn.imag = sin
    # Not in place: numpy rounds an in-place product of one-term arrays by
    # another path than longer ones, so a value would depend on whether
    # its phase falls in a one-term last piece.
    np.multiply(turn, roots, out=out)


def _weights(seq) -> np.ndarray:
    """Weights of a ComplexSequence-like object or a bare array, in their own dtype.

    Numeric weights (int8 sequences among them) keep their dtype, so
    consumers convert to complex one block at a time; anything else is
    converted to complex128 here.
    """
    values = np.asarray(getattr(seq, "values", seq))
    if values.dtype.kind not in "biufc":
        values = values.astype(np.complex128)
    return values


def _integer(value, name: str | None = None) -> int:
    """``value`` as an int: ints, numpy integers and integral floats (a JSON ``1e6``).

    Anything else, such as 1000.9, a bool or text, raises a ValueError
    (naming ``name`` when given) instead of being truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name + ': ' if name else ''}expected an integer, got {value!r}")


def _validated_checkpoints(checkpoints, limit: int | None = None) -> tuple[int, ...]:
    """Checkpoints as a nonempty, strictly increasing tuple of lengths >= 1.

    With ``limit`` given, the last checkpoint may not exceed it.
    """
    cps = tuple(_integer(c, "checkpoints") for c in checkpoints)
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


@dataclass(frozen=True, eq=False)
class ErgodicAverageSeries:
    """Checkpointed partial averages of a weighted exponential sum.

    Attributes:
        checkpoints: strictly increasing lengths N
        averages: complex partial average at each checkpoint
    """

    checkpoints: tuple[int, ...]
    averages: np.ndarray

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


def _average_series(blocks, cps: tuple[int, ...]) -> ErgodicAverageSeries:
    """Partial averages (1/N) * sum_{n<N} terms_n at validated checkpoints ``cps``.

    ``blocks`` yields ``(start, terms)`` in index order, contiguous from
    0 and reaching ``cps[-1]``; a full array is one block.  Each block is
    cut at the checkpoints inside it, every piece is summed with
    ``np.add.reduceat`` (pairwise within the piece), and the pieces are
    added to a running total in index order, so results are
    deterministic.  Terms past ``cps[-1]`` are ignored.
    """
    sums = []
    running = 0
    for start, terms in blocks:
        terms = terms[: cps[-1] - start]
        stop = start + terms.size
        # Checkpoints up to start were reached by earlier blocks.
        first = len(sums)
        last = bisect.bisect_left(cps, stop, lo=first)
        pieces = np.add.reduceat(terms, [0] + [c - start for c in cps[first:last]])
        for piece in pieces[:-1]:
            running = running + piece
            sums.append(running)
        running = running + pieces[-1]
        if last < len(cps) and cps[last] == stop:
            sums.append(running)
        if stop == cps[-1]:
            break
    return ErgodicAverageSeries(cps, np.asarray(sums) / np.asarray(cps, dtype=np.float64))


def weighted_exponential_average(
    seq, poly: PhasePolynomial, checkpoints
) -> ErgodicAverageSeries:
    """Partial averages (1/N) sum c_n e(P(n)) at the given checkpoints.

    Single pass over the blocks of ``phase_blocks``: each block's terms
    are its weights times e(phase), summed as ``_average_series``
    describes, so results are deterministic.
    """
    values = _weights(seq)
    cps = _validated_checkpoints(checkpoints, len(values))
    terms = (
        (start, values[start : start + phases.size] * unit_values(phases))
        for start, phases in phase_blocks(poly, cps[-1])
    )
    return _average_series(terms, cps)


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


def _binomial_to_monomial(coefficients) -> list[Fraction]:
    """Monomial coefficients of sum_j a_j C(z, j), exact a_j listed by j."""
    acc = [Fraction(0)] * len(coefficients)
    for j, a in enumerate(coefficients):
        if a:
            for s, b in enumerate(_binomial_basis_monomials(j)):
                acc[s] += a * b
    return acc


def binomial_phase_polynomial(thetas) -> PhasePolynomial:
    """Expand Q(z) = sum_j theta_j * C(z, k-j) into monomial coefficients mod 1.

    ``thetas`` is ordered so that thetas[0] multiplies the top binomial
    C(z, k) and thetas[k] the constant C(z, 0).
    """
    exact = [t if isinstance(t, Rational) else Fraction(t) for t in thetas]
    if not exact:
        raise ValueError("thetas: at least one entry required")
    return PhasePolynomial(_binomial_to_monomial(exact[::-1]))


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


def _residue_buckets(values: np.ndarray, length: int, modulus: int) -> np.ndarray:
    """Sums of values[n] over n < length in each residue class n mod modulus.

    The values are folded in blocks of whole rows of ``modulus`` entries,
    each block made complex on its own.  Row 0 of a block carries the
    sums so far, so every class adds its entries in index order, as one
    fold of all N / modulus rows would.
    """
    rows = max(1, _STREAM_TERMS // modulus)
    buckets = np.zeros(modulus, dtype=np.complex128)
    for start in range(0, length, rows * modulus):
        part = values[start : min(length, start + rows * modulus)]
        block = np.zeros((1 + -(-part.size // modulus), modulus), dtype=np.complex128)
        block[0] = buckets
        block.reshape(-1)[modulus : modulus + part.size] = part
        buckets = block.sum(axis=0)
    return buckets


def fourier_bohr_scan(seq, grid_frequencies: int, length: int) -> list[tuple[float, float]]:
    """Moduli |(1/N) sum c_n e(n * j/M)| for j = 0..M-1, sorted descending.

    The sum for frequency j/M only depends on n mod M, so the sequence is
    folded into M residue buckets and a single FFT finishes the scan.
    Ties in modulus break toward the smaller frequency index.
    """
    m = _integer(grid_frequencies, "grid_frequencies")
    if m < 2:
        raise ValueError("grid_frequencies: must be >= 2")
    values = _weights(seq)
    if length < 1 or length > len(values):
        raise ValueError("length: must be in [1, sequence length]")
    averages = np.fft.ifft(_residue_buckets(values, length, m)) * (m / length)
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
