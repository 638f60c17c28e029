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
* ``phase_stream`` emits frac(P(n)) for n = 0..N-1 from blocked
  forward-difference tables held in 128-bit fixed point; a constant P
  is one row, never stepped.  The seeds are exact.  With den the lcm of
  the denominators, the forward differences of den * P at 0 are the
  registers of the difference recurrence; when each times 2^128 / den
  is an integer (every float coefficient >= 2^-76, and binomial phases
  with such thetas) the recurrence runs on uint64 word pairs in one
  block, else on a Python-integer table of den * P(n) mod den, truncated
  once per seed.  Mod-1 addition is exact in that representation, so the
  only error is that one 2^-128 truncation per seed (none on the word
  route) plus one float rounding on output: the 1e-9 bound at
  N = 10^6, d <= 4 is met with orders of magnitude to spare.  Streams
  whose seeds are all multiples of 2^-64 step their high words alone,
  since their low words stay 0.  ``_stepped_blocks`` yields each block's
  fixed-point words, about ``_STREAM_TERMS`` terms a block.
  ``_register_words`` steps fronts of exact registers r_0, ..., r_k of
  the same recurrence, each seeded from its own registers as the word
  seeds are, in the same blocks: the skew-shift orbit and the tower
  routes of ``torus``.  Every fixed-point value that becomes a float
  does so by the one conversion hi * 2^-64 + lo * 2^-128 of its (hi, lo)
  words (``_pair_floats``).

``_turned`` makes e(phase) without a complex exponential, as a table
root e(k / 4096) times a degree-5 Taylor series in the residual angle,
below 1.6e-3 (off by under 2e-20).  It has one front end: every
computation gives it a stream's words (``_word_units``: k = hi >> 52,
the low 52 bits of hi the angle), so no phase becomes a float on the way
to e(.).  Values agree with ``np.exp`` to about 1e-15, and come in
2^13-term pieces whose scratch stays in cache.

The weighted and multiple ergodic averages, p-adic averages and the
spectrum scan hold no N-term array beyond the weights themselves.  The
weighted and multiple averages make weights complex one block at a time
and cut each block's terms at the checkpoints (``np.add.reduceat``,
pairwise within a piece), the pieces added in index order.  The scan,
the grid stage and p-adic averages sum the weights onto residue classes
with one fold, ``_class_sums``: a strided view of whole rows summed over
its rows, in int64 for integer weights, with no copy of the weights.
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
_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)
_INV_2_64 = 2.0 ** -64
_INV_2_128 = 2.0 ** -128

# Lane width of the blocked difference table.  At most lanes * (d + 1)
# <= 36,864 < 2^32 indices are seeded, on uint64 pairs or, for
# non-dyadic seeds, by one big-int table; each lane then steps
# N/lanes times in fixed point, where mod-1 addition is exact: on the
# high words alone when every seed is a multiple of 2^-64 (floats >=
# 2^-12, the search's 2^-16 lattice), else on (hi, lo) pairs.  Lanes are
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
_INDEX_SHIFT = np.uint64(64 - 12)
_ANGLE_MASK = np.uint64((1 << 52) - 1)
_WORD_ANGLE = _ROOT_STEP * 2.0**-52
_QUARTER_ROOTS = np.exp((1j * _ROOT_STEP) * np.arange(_ROOT_COUNT // 4))
_ROOTS = np.concatenate([_QUARTER_ROOTS, 1j * _QUARTER_ROOTS, -_QUARTER_ROOTS, -1j * _QUARTER_ROOTS])

# Terms per piece of ``_word_units``: its scratch, 72 bytes a term, is
# then 576 KB and a piece's dozen passes stay in a core's L2 cache.  On a
# Xeon with 2 MB of L2 per core, 10^6 float phases (through the float
# front end the tests keep as a reference) took 18 ns/term in 2^13-term
# pieces, 23 in ``_STREAM_TERMS`` pieces (3.5 MB of scratch) and 55 as
# one piece (np.exp: 64); one piece also raised the sup search's peak
# RSS by 19%.
_UNIT_TERMS = 1 << 13


def _reduced(value) -> Fraction:
    """Value as an exact Fraction reduced into [0, 1); nan and +-inf raise a ValueError."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
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


def _pair_floats(hi: np.ndarray, lo: np.ndarray | None = None, out=None) -> np.ndarray:
    """hi * 2^-64 + lo * 2^-128 for 128-bit fixed-point (hi, lo) words, into ``out`` if given.

    The one conversion of fixed-point phases to floats: hi rounds once
    and the sum once more, so a phase is off by at most a unit in its
    last place.  Only a sum just below 2^128 can round up to 1.0, which
    ``_folded`` takes back to 0.0.  With no ``lo`` (low words all 0) it
    is hi * 2^-64 alone, the same float, since adding 0.0 to it rounds
    nothing.  lo's part is added in ``_UNIT_TERMS``-term pieces, so that its temporaries stay in cache.
    """
    out = np.multiply(hi, _INV_2_64, out=out)
    if lo is not None:
        for i in range(0, lo.size, _UNIT_TERMS):
            out[i : i + _UNIT_TERMS] += lo[i : i + _UNIT_TERMS] * _INV_2_128
    return out


def _folded(phases: np.ndarray) -> np.ndarray:
    """``phases`` with the 1.0 of a fixed-point value just below 2^128 folded to 0.0, in place."""
    phases[phases >= 1.0] = 0.0
    return phases


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
    yielded each time, so read it before the next step.  This scalar
    stepper serves the few steps of a big int: the seeds of
    ``_fixed_seed_table`` mod den, and T applied to a point for
    n = 0..m mod 2^128 in ``torus.verify_factorization``.  Mod 2^128 the
    last register over many steps comes from ``_register_seeds`` instead.
    """
    downward = range(len(registers) - 1, 0, -1)
    for _ in range(count):
        yield registers
        for j in downward:
            registers[j] = (registers[j] + registers[j - 1]) % modulus


def _add_words(a, b, out, carry) -> None:
    """out = a + b mod 2^128 for words (hi,) or (hi, lo), lo's carry into hi; ``out`` may be ``a``, not ``b``."""
    np.add(a[0], b[0], out=out[0])
    if len(out) > 1:
        np.add(a[1], b[1], out=out[1])
        np.add(out[0], np.less(out[1], b[1], out=carry), out=out[0])


def _cumulate_pairs(hi: np.ndarray, lo: np.ndarray | None) -> None:
    """Running sums of a row of 128-bit (hi, lo) pairs, in place, exact mod 2^128; of hi alone if ``lo`` is None.

    ``np.cumsum`` wraps hi mod 2^64, as a high word should.  The low
    words are summed as 32-bit halves, which cannot overflow for fewer
    than 2^32 terms, and the upper halves' sum is shifted into place
    with its overflow and carry going to hi.
    """
    if lo is None:
        np.cumsum(hi, out=hi)
        return
    upper = np.cumsum(lo >> _SHIFT32)
    np.bitwise_and(lo, _MASK32, out=lo)
    np.cumsum(lo, out=lo)
    np.cumsum(hi, out=hi)
    hi += upper >> _SHIFT32
    upper <<= _SHIFT32
    lo += upper
    hi += lo < upper


def _register_seeds(registers: list, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The last register r_k of ``_difference_steps`` mod 2^128 at steps 0..count-1, count < 2^32, as (hi, lo) words.

    ``registers`` are r_0, ..., r_k at step 0 as ints in [0, 2^128).  Row
    j, whose entry n is r_j at step n, is r_j(0) plus the exclusive prefix
    sum of row j - 1, which ``_cumulate_pairs`` makes in place over row
    j - 1 shifted by one.  When every register is a multiple of 2^64 the
    low words stay 0, and only the high words are summed.
    """
    one_word = not any(r & _MASK64 for r in registers)
    hi = np.empty(count, dtype=np.uint64)
    lo = np.empty_like(hi)
    hi[:], lo[:] = divmod(registers[0], 1 << 64)
    for register in registers[1:]:
        hi[1:] = hi[:-1]
        lo[1:] = lo[:-1]
        hi[0], lo[0] = divmod(register, 1 << 64)
        _cumulate_pairs(hi, None if one_word else lo)
    return hi, lo


def _register_words(fronts, count: int) -> list:
    """One ``_stepped_blocks`` stream per front r_0, ..., r_k: the words of r_k(n), n = 0..count-1.

    A front is the registers of ``_difference_steps`` at step 0 as 128-bit
    fixed-point ints, so r_k(n) = sum_j C(n, k - j) r_j mod 2^128 is a
    polynomial of degree <= k in n, seeded by ``_register_seeds``.  Blocks
    depend on ``count`` alone, so fronts of any lengths and phase streams zip.
    """
    return [_stepped_blocks(*_register_seeds(front, _seed_count(len(front) - 1, count)), count) for front in fronts]


def _register_phases(fronts, count: int):
    """``(start, phases)``: frac(r_k(n)) of each front, a row per front, each ``_pair_floats`` of its exact words."""
    for blocks in zip(*_register_words(fronts, count)):
        yield blocks[0][0], _folded(np.array([_pair_floats(*words) for _, words in blocks]))


def _register_units(fronts, polys, count: int):
    """``(start, units)``: e(r_k(n)) of each front, then e(P(n)) of each polynomial, a row each, off high words."""
    streams = _register_words(fronts, count) + [_phase_words(poly, count) for poly in polys]
    for blocks in zip(*streams):
        units = np.empty((len(blocks), blocks[0][1][0].size), dtype=np.complex128)
        for row, (_, (hi, *_)) in zip(units, blocks):
            _word_units(hi, out=row)
        yield blocks[0][0], units


def _seed_front(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(den, diffs): den the lcm of the denominators, diffs the registers of V(n) = den * P(n) mod den.

    diffs are the forward differences of V at 0 mod den, highest first:
    r_0, ..., r_d of ``_difference_steps``, whose r_d at step n is V(n).
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    values = [sum(a * n**j for j, a in enumerate(ints)) for n in range(len(ints))]
    return den, [v % den for v in reversed(_forward_differences(values))]


def _fixed_seed_table(coeffs: tuple[Fraction, ...], count: int) -> list[int]:
    """frac(P(n)) for n = 0..count-1 as 128-bit fixed-point Python ints, for any denominators.

    The registers of ``_seed_front`` step on ``_difference_steps`` (d
    additions mod den per value) and each value is truncated once, to
    floor(2^128 * V(n) / den).  This is the bit-for-bit reference for
    the uint64 seeds of ``_seed_pairs``.
    """
    den, diffs = _seed_front(coeffs)
    return [(regs[-1] << _FIXED_BITS) // den for regs in _difference_steps(diffs, count, den)]


def _seed_pairs(coeffs: tuple[Fraction, ...], count: int) -> tuple[np.ndarray, np.ndarray]:
    """frac(P(n)) for n = 0..count-1 in 128-bit fixed point, as high and low uint64 arrays.

    When 2^128 d / den is an integer for every register d of
    ``_seed_front``, these are exact registers of 2^128 P(n) mod 2^128,
    and ``_register_seeds`` evaluates them at all n < 2^32 at once.
    That holds when every denominator divides 2^128 (float coefficients
    >= 2^-76), and for binomial phases with such thetas, whose j! sits
    only in the monomial basis.  Other fronts (a
    coefficient 1/3) take the big-int ``_fixed_seed_table``.
    """
    den, diffs = _seed_front(coeffs)
    if any((d << _FIXED_BITS) % den for d in diffs):
        seeds = np.array(_fixed_seed_table(coeffs, count), dtype=object)
        return (seeds >> 64).astype(np.uint64), (seeds & _MASK64).astype(np.uint64)
    return _register_seeds([(d << _FIXED_BITS) // den for d in diffs], count)


def _lanes(count: int) -> int:
    """Lane width of the difference table for a stream of ``count`` terms.

    count / 8 lanes, so a stream below 2^15 terms steps at most 8 rows:
    each row is a handful of numpy calls, while uint64 seeds for more
    lanes cost little.
    """
    return min(_MAX_LANES, max(64, count // 8))


def phase_stream(poly: PhasePolynomial, count: int) -> np.ndarray:
    """frac(P(n)) for n = 0..count-1 as one array, each block of ``_phase_words`` converted straight into it.

    Lane r of stride B advances P(m*B + r) in m on a forward-difference
    table of d + 1 registers in 128-bit fixed point, where mod-1 addition
    is exact, so no rounding accumulates.  Agrees with ``phase_at`` to
    well below 1e-9 for N <= 10^7 and degree <= 8.
    """
    phases = np.empty(count)
    for start, words in _phase_words(poly, count):
        _folded(_pair_floats(*words, out=phases[start : start + words[0].size]))
    return phases


def unit_stream(poly: PhasePolynomial, count: int) -> np.ndarray:
    """e(P(n)) for n = 0..count-1: one period of q = ``_period`` terms (at most count) off words, ``_repeated``.

    With exact seeds (denominators dividing 2^128: the refinement's
    lattice) P(n) and P(n + q) have the same words, so the repeat is the
    full stream bit for bit; inexact seeds (thirds) repeat values within
    1e-15 of it.  No second count-term array is made when q reaches count.
    """
    period = min(count, _period(poly.coefficients))
    blocks = _phase_words(poly, period)
    units = np.empty(period, dtype=np.complex128)
    for start, (hi, *_) in blocks:
        _word_units(hi, out=units[start : start + hi.size])
    del hi  # a view of the stepper's last block, which would stay alive through the repeat
    return units if units.size == count else _repeated(units, 0, count)


def _phase_words(poly: PhasePolynomial, count: int):
    """``_stepped_blocks`` from the seeds of P; ``count`` is checked now, not at the first block."""
    if count < 1:
        raise ValueError("count: must be >= 1")
    return _stepped_blocks(*_seed_pairs(poly.coefficients, _seed_count(poly.degree, count)), count)


def _seed_count(degree: int, count: int) -> int:
    """Seeds of a ``count``-term stream of ``degree``: min(degree + 1, N/lanes) rows; no later row reaches row 0."""
    lanes = _lanes(count)
    return min(degree + 1, -(-count // lanes)) * lanes


def _register_table(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """The difference table of ``_stepped_blocks`` from its seeds: (hi,) when every low word is 0, else (hi, lo).

    Row i of the seed table holds P(i*lanes + r) in lane r and is then
    differenced along the rows in place, exact mod 2^128 (a borrow from
    lo).  Every register is an integer combination of the seeds, so when
    all seeds are multiples of 2^-64 (float coefficients >= 2^-12, points
    and shifts on the search's 2^-16 lattice) all registers are, now and
    at every step: their low words are 0 and are dropped.
    """
    rows = len(hi)
    for j in range(1, rows):
        for i in range(rows - 1, j - 1, -1):
            borrow = (lo[i] < lo[i - 1]).astype(np.uint64)
            lo[i] -= lo[i - 1]
            hi[i] -= hi[i - 1] + borrow
    return (hi, lo) if lo.any() else (hi,)


def _stepped_blocks(hi: np.ndarray, lo: np.ndarray, count: int):
    """``(start, words)`` blocks of the stream seeded by (hi, lo), rows of ``_lanes(count)``: the one exact stepper.

    ``words``, (hi,) when every low word is 0 else (hi, lo), are the
    block's fixed-point phases, in buffers the next block overwrites.
    Every block but the last holds the whole lane rows of at least
    ``_STREAM_TERMS`` terms, so streams over one count (``_phase_words``,
    ``_register_words``) zip block by block.
    """
    lanes = _lanes(count)
    steps = -(-count // lanes)
    block_rows = min(steps, -(-_STREAM_TERMS // lanes))
    table = _register_table(hi.reshape(-1, lanes), lo.reshape(-1, lanes))
    del hi, lo  # so that low words the table dropped are freed
    rows = len(table[0])

    # The head register (the phases) steps into the block's rows, each from
    # the row before (row -1: the last of the block before); every row
    # starts as the head, so a constant (one row) is never stepped.  The
    # registers below step from one table into the other, which swap; the
    # constant last row is copied once.  A step makes no temporary.
    heads = tuple(np.repeat(w[:1], block_rows, axis=0) for w in table)
    head_rows = [tuple(h[k] for h in heads) for k in range(block_rows)]
    below = tuple(w[1:] for w in table), tuple(np.empty_like(w[1:]) for w in table)
    for src, dst in zip(*below):
        dst[-1:] = src[-1:]
    pairs = (below, below[::-1]) if rows > 1 else ()
    moves = [([w[:-1] for w in s], [w[1:] for w in s], [w[:-1] for w in d], [w[0] for w in s]) for s, d in pairs]
    carry = np.empty_like(table[0], dtype=bool)
    current = 0
    for first in range(0, steps, block_rows):
        size = min(block_rows, steps - first)
        for k in range(1 if first == 0 else 0, size if rows > 1 else 0):
            lower, upper, dst, top = moves[current]
            _add_words(head_rows[k - 1], top, head_rows[k], carry[0])
            if rows > 2:
                _add_words(lower, upper, dst, carry[2:])
                current ^= 1
        start = first * lanes
        yield start, tuple(h[:size].reshape(-1)[: count - start] for h in heads)


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


def _word_units(hi: np.ndarray, out=None) -> np.ndarray:
    """e(hi * 2^-64) for the high words of fixed-point phases, into ``out`` if given, by pieces of ``_UNIT_TERMS``.

    Each piece reads its root index hi >> 52 and angle (hi mod 2^52) *
    _ROOT_STEP * 2^-52 off the words into scratch, and ``_turned``
    finishes it.  When hi * 2^-64 is an exact float these are the index
    and angle of that float phase, 4096 * phase = k + r, bit for bit.  A
    low word would move e(phase) by under 3.4e-19, so it is not read.
    """
    out = np.empty(hi.size, dtype=np.complex128) if out is None else out
    size = min(hi.size, _UNIT_TERMS)
    scratch = [np.empty(size) for _ in range(4)]
    scratch += [np.empty(size, dtype=np.intp)] + [np.empty(size, dtype=np.complex128) for _ in range(2)]
    for start in range(0, hi.size, _UNIT_TERMS):
        stop = min(hi.size, start + _UNIT_TERMS)
        piece = [a[: stop - start] for a in scratch]
        theta, bits, _, _, index, _, _ = piece
        np.right_shift(hi[start:stop], _INDEX_SHIFT, out=index.view(np.uint64))
        np.bitwise_and(hi[start:stop], _ANGLE_MASK, out=bits.view(np.uint64))
        np.multiply(bits.view(np.int64), _WORD_ANGLE, out=theta)
        _turned(out[start:stop], piece)
    return out


def _turned(out: np.ndarray, scratch) -> None:
    """Write R[index] * e(theta / 2 pi) into ``out``: R from ``_ROOTS``, cos and sin of theta < 1.6e-3 by series.

    The degree-5 series are off by under 2e-20, so what is left is float rounding.
    """
    theta, sin, theta2, cos, index, roots, turn = scratch
    # Every index is in [0, 4096), so "clip" changes none; unlike "raise", it writes ``roots`` unbuffered.
    np.take(_ROOTS, index, out=roots, mode="clip")
    np.multiply(theta, theta, out=theta2)
    np.multiply(theta2, 1 / 24, out=cos)
    cos -= 0.5
    cos *= theta2
    cos += 1.0
    np.multiply(theta2, 1 / 120, out=sin)
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

    Single pass over the blocks of ``_phase_words``: each block's units
    e(P(n)) are read off its high words (``_word_units``) and its
    weights multiplied into them in place; the terms are summed as
    ``_average_series`` describes, so results are deterministic.
    """
    values = _weights(seq)
    cps = _validated_checkpoints(checkpoints, len(values))
    units = ((start, _word_units(hi)) for start, (hi, *_) in _phase_words(poly, cps[-1]))
    terms = ((start, np.multiply(u, values[start : start + u.size], out=u)) for start, u in units)
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


def compose_time_polynomial(q_outer: PhasePolynomial, q_inner) -> PhasePolynomial:
    """Monomial expansion of Q(q(z)) reduced mod 1.

    ``q_inner`` must take integer values at integers (any object exposing
    ``monomial_coefficients()``, or a bare iterable of exact monomial
    coefficients).  The forward differences of the exact values of Q(q(z))
    at z = 0..D, D = deg Q * deg q, are its binomial coefficients.  Only
    the monomial ones are reduced mod 1, which is valid because
    subtracting integer multiples of z^s never changes values at integer
    arguments mod 1.
    """
    if hasattr(q_inner, "monomial_coefficients"):
        inner = tuple(q_inner.monomial_coefficients())
    else:
        inner = tuple(Fraction(c) for c in q_inner)
    outer = q_outer.coefficients
    composed_degree = q_outer.degree * max(len(inner) - 1, 0)
    if composed_degree > MAX_DEGREE:
        raise ValueError(f"composed degree {composed_degree} exceeds the supported cap {MAX_DEGREE}")
    times = (sum(c * z**s for s, c in enumerate(inner)) for z in range(composed_degree + 1))
    values = [sum(a * t**j for j, a in enumerate(outer)) for t in times]
    return PhasePolynomial(_binomial_to_monomial(_forward_differences(values)))


def _class_sums(values: np.ndarray, lo: int, hi: int, start: int, stop: int, width: int) -> np.ndarray:
    """Sums of values[n], lo <= n < hi, at each class n mod ``width`` in start..stop - 1.

    In int64 for integer weights, else in the weights' own type.  Rows first..last - 1 of the
    ``width``-wide grid lie inside [lo, hi): a strided view summed over axis 0, row by row (numpy
    casts in buffers, so scratch stays small).  Only rows first - 1 and last can meet [lo, hi) in
    part; they are added after, so from lo = start = 0 every class adds its entries in index order.
    """
    first, last = -((start - lo) // width), (hi - stop) // width + 1
    sums = np.zeros(stop - start, np.result_type(values, np.int64))
    if first < last:
        window = values[first * width + start : (last - 1) * width + stop]
        rows = np.lib.stride_tricks.sliding_window_view(window, stop - start)[::width]
        np.add.reduce(rows, axis=0, dtype=sums.dtype, out=sums)
    for origin in sorted({(first - 1) * width + start, last * width + start}):
        a, b = max(lo, origin), min(hi, origin - start + stop)
        if a < b:
            sums[a - origin : b - origin] += values[a:b]
    return sums


def _spectrum(seq, grid_frequencies: int, length: int) -> np.ndarray:
    """Moduli |(1/N) sum c_n e(n * j/M)| by frequency index j = 0..M-1.

    The sum for frequency j/M only depends on n mod M, so the sequence is
    summed onto its M residue classes (``_class_sums``, exact in int64
    for integer weights) and a single FFT finishes the scan.
    """
    m = _integer(grid_frequencies, "grid_frequencies")
    if m < 2:
        raise ValueError("grid_frequencies: must be >= 2")
    values, n = _weights(seq), _integer(length, "length")
    if n < 1 or n > len(values):
        raise ValueError("length: must be in [1, sequence length]")
    return np.abs(np.fft.ifft(_class_sums(values, 0, n, 0, m, m)) * (m / n))


def fourier_bohr_scan(seq, grid_frequencies: int, length: int) -> list[tuple[float, float]]:
    """``_spectrum`` as (j/M, modulus) pairs sorted descending, ties toward the smaller j."""
    moduli = _spectrum(seq, grid_frequencies, length)
    order = np.argsort(-moduli, kind="stable")
    return list(zip((order / len(moduli)).tolist(), moduli[order].tolist()))


def geometric_checkpoints(start: int, stop: int) -> tuple[int, ...]:
    """Doubling checkpoint schedule ceil(start * 2^i), capped by stop."""
    start, stop = _integer(start, "start"), _integer(stop, "stop")
    if start < 1 or stop < start:
        raise ValueError("geometric_checkpoints: need 1 <= start <= stop")
    out = []
    value = start
    while value < stop:
        out.append(value)
        value = min(stop, value * 2)
    out.append(stop)
    return tuple(out)
