"""Weight sequence generators: arithmetic, deterministic polynomial-phase, random.

All generators are pure functions of their parameters (and seed), values
are immutable after construction, and every entry of the random
generators is computable independently through a counter-based hash, so
concurrent generation needs no shared stream.

Index convention: the arithmetic functions mu and lambda are defined on
n >= 1 while averages run over n = 0..N-1, so stored index n holds the
value at the integer n + 1.  Averaging code consumes stored indices
uniformly and never needs to know.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .polyphase import (
    _STREAM_TERMS,
    MAX_DEGREE,
    PhasePolynomial,
    _average_series,
    _validated_checkpoints,
    phase_blocks,
    unit_values,
)

_SEED_LIMIT = 1 << 64


class SequenceParseError(ValueError):
    """Malformed sequence file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True, eq=False)
class ComplexSequence:
    """Finite prefix (c_0, ..., c_{N-1}) of complex weights with provenance.

    ``values`` keeps the natural dtype of the generator (int8 for the
    +-1/0 arithmetic and random sequences, complex128 otherwise);
    averaging code reads it in that dtype and makes one block complex at
    a time.  ``complex_values`` is a full complex128 view or copy.
    """

    values: np.ndarray
    provenance: str

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError("values: must be one-dimensional")
        if arr.size < 1:
            raise ValueError("values: length must be >= 1")
        object.__setattr__(self, "values", arr)

    @property
    def length(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.length

    @property
    def complex_values(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.complex128)


# The sieves hold one int8 table and one helper of the smallest unsigned
# dtype that holds the limit (4 bytes per entry at 10^7), and finish in
# well under a second at that length.
def _primes_up_to(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _flip_leftover(table: np.ndarray, smooth: np.ndarray) -> None:
    """Flip the sign of every k whose small-prime part smooth[k] is not k itself.

    Such k carry exactly one prime factor above sqrt(limit).  The
    comparison with k runs in blocks, so no full-length arange is built.
    """
    for start in range(0, smooth.size, _STREAM_TERMS):
        stop = min(smooth.size, start + _STREAM_TERMS)
        leftover = smooth[start:stop] != np.arange(start, stop, dtype=smooth.dtype)
        table[start:stop][leftover] *= -1


def _mobius_table(limit: int) -> np.ndarray:
    """mu(k) for k = 0..limit as int8 (mu(0) stored as 0)."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    if limit < 2:
        return mu
    # smooth[k] divides k, so it fits the smallest dtype that holds limit.
    smooth = np.ones(limit + 1, dtype=np.min_scalar_type(limit))
    for p in _primes_up_to(int(limit**0.5)):
        p = int(p)
        mu[p::p] *= -1
        smooth[p::p] *= p
        mu[p * p :: p * p] = 0
    _flip_leftover(mu, smooth)
    mu[0] = 0
    return mu


def _liouville_table(limit: int) -> np.ndarray:
    """lambda(k) = (-1)^Omega(k) for k = 0..limit as int8."""
    lam = np.ones(limit + 1, dtype=np.int8)
    lam[0] = 0
    if limit < 2:
        return lam
    smooth = np.ones(limit + 1, dtype=np.min_scalar_type(limit))
    for p in _primes_up_to(int(limit**0.5)):
        p = int(p)
        pk = p
        while pk <= limit:
            lam[pk::pk] *= -1
            smooth[pk::pk] *= p
            pk *= p
    _flip_leftover(lam, smooth)
    lam[0] = 0
    return lam


def mobius_sequence(n: int) -> ComplexSequence:
    """First n Moebius values; stored index i holds mu(i + 1).

    Sieve cost is O(n log log n) with vectorized passes over the primes
    up to sqrt(n); values are exact 8-bit integers in {-1, 0, +1}.
    """
    if n < 1:
        raise ValueError("n: must be >= 1")
    return ComplexSequence(_mobius_table(n)[1:], f"mobius(n={n})")


def liouville_sequence(n: int) -> ComplexSequence:
    """First n Liouville values; stored index i holds lambda(i + 1)."""
    if n < 1:
        raise ValueError("n: must be >= 1")
    return ComplexSequence(_liouville_table(n)[1:], f"liouville(n={n})")


def _splitmix64(seed: int, indices: np.ndarray) -> np.ndarray:
    """Counter-based hash: one 64-bit word per (seed, index) pair."""
    z = (indices + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _counter_blocks(seed: int, n: int, width: int = 1):
    """Hashes of entries 0..n-1 as ``(start, stop, words)`` blocks of ``_STREAM_TERMS`` entries.

    Row i - start of the (stop - start, width) uint64 ``words`` hashes counters
    width * i .. width * i + width - 1, so no entry depends on n or on the blocking.
    """
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed: must fit in 64 bits")
    for start in range(0, n, _STREAM_TERMS):
        stop = min(n, start + _STREAM_TERMS)
        counters = np.arange(width * start, width * stop, dtype=np.uint64)
        yield start, stop, _splitmix64(seed, counters).reshape(-1, width)


def rademacher_sequence(seed: int, n: int) -> ComplexSequence:
    """Deterministic +-1 sequence keyed by (seed, index).

    Any entry is computable independently of the rest, so the generator
    is reproducible and trivially parallel.
    """
    if n < 1:
        raise ValueError("n: must be >= 1")
    values = np.empty(n, dtype=np.int8)
    for start, stop, words in _counter_blocks(seed, n):
        values[start:stop] = 1 - 2 * (words[:, 0] >> np.uint64(63)).astype(np.int8)
    return ComplexSequence(values, f"rademacher(seed={seed}, n={n})")


def polynomial_phase_sequence(alpha, power: int, n: int) -> ComplexSequence:
    """c_i = e(i^power * alpha) for i = 0..n-1.

    Phases come from the exact difference-table stream, so every value
    has modulus 1 up to float rounding of the final exponential.
    """
    if power < 1:
        raise ValueError("power: must be >= 1")
    if power > MAX_DEGREE:
        raise ValueError(f"power: exceeds the supported cap {MAX_DEGREE}")
    if n < 1:
        raise ValueError("n: must be >= 1")
    values = np.empty(n, dtype=np.complex128)
    for start, phases in phase_blocks(PhasePolynomial.monomial(alpha, power), n):
        values[start : start + phases.size] = unit_values(phases)
    return ComplexSequence(values, f"polyphase(alpha={alpha!r}, power={power}, n={n})")


# Lines per formatting call in ``write_sequence``: one %-format over a
# chunk runs in C, and the chunk bounds the transient text to about 0.5 MB.
_WRITE_CHUNK_LINES = 1 << 13


def write_sequence(path, seq: ComplexSequence) -> None:
    """Write one "RE IM" decimal pair per line after a '# provenance' line.

    Values are emitted with 17 significant digits, which round-trips
    float64 exactly.  Formatting line by line costs about 1.3 us a line,
    so each chunk of lines is made complex on its own and written by one
    ``%``-format call over the interleaved real and imaginary parts.  The
    bytes equal those of writing every line as ``f"{re:.17g} {im:.17g}\\n"``,
    the reference the tests keep.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {seq.provenance}\n")
        for start in range(0, seq.length, _WRITE_CHUNK_LINES):
            chunk = seq.values[start : start + _WRITE_CHUNK_LINES]
            part = np.ascontiguousarray(chunk, dtype=np.complex128).view(np.float64).tolist()
            handle.write(("%.17g %.17g\n" * chunk.size) % tuple(part))


def read_sequence(path) -> ComplexSequence:
    """Parse a sequence file written by ``write_sequence`` (or by hand).

    Grammar, one line at a time: a line that is blank, or whose first
    non-blank character is '#', is skipped; any other line holds exactly
    two whitespace-separated tokens, each parsed by Python ``float``.

    The leading lines the grammar skips are counted, and one
    ``np.loadtxt`` call with comments off parses the rest, so a '#'
    anywhere after them makes it raise.  ``loadtxt`` also rejects tokens
    such as ``1_0`` that ``float`` takes, so the line loop ``_parse_lines``
    stays: it runs when there is no data line, when ``loadtxt`` raises or
    finds other than two columns, and it alone raises
    ``SequenceParseError`` with the offending line.
    """
    path = Path(path)
    provenance = f"file({path})"
    with path.open("r", encoding="utf-8") as handle:
        skipped = 0
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                handle.seek(0)
                try:
                    table = np.loadtxt(handle, comments=None, skiprows=skipped, ndmin=2)
                except ValueError:
                    pass
                else:
                    if table.shape[1] == 2:
                        return ComplexSequence(table.view(np.complex128).reshape(-1), provenance)
                break
            skipped += 1
        handle.seek(0)
        return ComplexSequence(_parse_lines(handle, path), provenance)


def _parse_lines(lines, path: Path) -> np.ndarray:
    """The per-line parse that defines the grammar and locates errors."""
    values: list[complex] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SequenceParseError(
                f"line {line_number}: expected 'RE IM', got {line!r}", line_number
            )
        try:
            re_part, im_part = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise SequenceParseError(
                f"line {line_number}: not a decimal pair: {line!r}", line_number
            ) from exc
        values.append(complex(re_part, im_part))
    if not values:
        raise ValueError(f"{path}: no values (a sequence of length 0 is not allowed)")
    return np.array(values, dtype=np.complex128)


def cesaro_l1_norm(seq: ComplexSequence, checkpoints) -> np.ndarray:
    """(1/N) sum_{n<N} |c_n| at each checkpoint, over float blocks so int8 sums cannot overflow."""
    cps = _validated_checkpoints(checkpoints, seq.length)
    as_float = np.result_type(seq.values.dtype, np.float64)
    moduli = (
        (start, np.abs(seq.values[start : start + _STREAM_TERMS].astype(as_float, copy=False)))
        for start in range(0, cps[-1], _STREAM_TERMS)
    )
    return _average_series(moduli, cps).averages.real
