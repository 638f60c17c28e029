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

import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .polyphase import (
    _STREAM_TERMS,
    MAX_DEGREE,
    PhasePolynomial,
    _average_series,
    _integer,
    _repeated,
    _validated_checkpoints,
    unit_stream,
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


# The sieve fills its int8 table in blocks of _SIEVE_BLOCK entries, so beside the table it holds
# one int32 block of signed prime products (1 MiB) and its scratch, never a full-length helper.
# Every block is sliced once per prime up to sqrt(limit) (446 at 10^7): short blocks pay that
# Python overhead often, long ones leave the cache.  Moebius at 10^7 took 0.28, 0.18, 0.13, 0.13
# and 0.17 s at 2^16 ... 2^20 entries (median of 7, 2-core host); 2^19 is no faster than 2^18
# and traces 10.4 MiB against 7.2 at 4 * 10^6.
_SIEVE_BLOCK = 1 << 18
_WHEEL_PRIMES = 6  # 2, 3, 5, 7, 11, 13: a 30,030-entry pattern


def _primes_up_to(limit: int) -> list[int]:
    flags = np.ones(max(limit + 1, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].tolist()


def _sieve_table(limit: int, liouville: bool) -> np.ndarray:
    """mu(k), or lambda(k) = (-1)^Omega(k) if ``liouville``, for k = 0..limit as int8 (0 at k = 0).

    Block by block, s[k] is the product of -p over the primes p <= sqrt(limit) that divide k:
    a copy of the wheel primes' periodic pattern, times -p for each other prime.  Moebius then
    sets s[k] = 0 where p^2 divides k; Liouville multiplies by -p again at every higher power
    p^i.  The value is sign(s[k]), negated where |s[k]| != k: then k has exactly one prime
    factor above sqrt(limit), since two would exceed limit.
    """
    table = np.empty(limit + 1, dtype=np.int8)
    primes = _primes_up_to(math.isqrt(limit))
    # |s[k]| divides k, so it fits the signed type that holds limit (k = 0 may wrap; it is reset).
    dtype = np.int32 if limit < 1 << 31 else np.int64
    pattern = np.ones(math.prod(primes[:_WHEEL_PRIMES]), dtype=dtype)
    for p in primes[:_WHEEL_PRIMES]:
        pattern[::p] *= -p
    for lo in range(0, limit + 1, _SIEVE_BLOCK):
        hi = min(limit + 1, lo + _SIEVE_BLOCK)
        s = _repeated(pattern, lo, hi)
        for p in primes[_WHEEL_PRIMES:]:
            s[-lo % p :: p] *= -p
        for p in primes:
            pk = p * p
            while pk < hi:
                if not liouville:
                    s[-lo % pk :: pk] = 0
                    break
                s[-lo % pk :: pk] *= -p
                pk *= p
        part = table[lo:hi]
        np.sign(s, out=part, casting="unsafe")
        part *= 1 - 2 * (np.abs(s) != np.arange(lo, hi, dtype=dtype)).view(np.int8)
    table[0] = 0
    return table


def mobius_sequence(n: int) -> ComplexSequence:
    """First n Moebius values; stored index i holds mu(i + 1).

    A segmented sieve: 2^18-entry blocks, each a copy of the wheel pattern
    for 2..13 with one vectorized pass per other prime up to sqrt(n), so
    the cost is O(n log log n) and the only full-length array is the
    result.  At n = 10^7 it takes about 0.12 s, and it traces 1 byte per
    entry plus about 3.4 MiB of block scratch.  Values are exact 8-bit
    integers in {-1, 0, +1}.
    """
    if n < 1:
        raise ValueError("n: must be >= 1")
    return ComplexSequence(_sieve_table(n, liouville=False)[1:], f"mobius(n={n})")


def liouville_sequence(n: int) -> ComplexSequence:
    """First n Liouville values; stored index i holds lambda(i + 1)."""
    if n < 1:
        raise ValueError("n: must be >= 1")
    return ComplexSequence(_sieve_table(n, liouville=True)[1:], f"liouville(n={n})")


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
    seed = _integer(seed, "seed")
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

    Values are ``unit_stream``'s, read off the exact difference-table
    stream's high words, so every value has modulus 1 up to float rounding.
    """
    if power < 1:
        raise ValueError("power: must be >= 1")
    if power > MAX_DEGREE:
        raise ValueError(f"power: exceeds the supported cap {MAX_DEGREE}")
    if n < 1:
        raise ValueError("n: must be >= 1")
    values = unit_stream(PhasePolynomial.monomial(alpha, power), n)
    return ComplexSequence(values, f"polyphase(alpha={alpha!r}, power={power}, n={n})")


# Lines per formatting call in ``write_sequence``: one %-format over a
# chunk runs in C, and the chunk bounds the transient text to about 0.5 MB.
_WRITE_CHUNK_LINES = 1 << 13

# The line of every int8 value v, at index v mod 256, so that an int8
# chunk indexes its lines directly (a negative v from the end).
_INT8_LINES = np.array(["%.17g %.17g\n" % (v, 0.0) for v in (*range(128), *range(-128, 0))], dtype=object)


def write_sequence(path, seq: ComplexSequence) -> None:
    """Write one "RE IM" decimal pair per line after a '# provenance' line.

    Values are emitted with 17 significant digits, which round-trips
    float64 exactly.  Formatting line by line costs about 1.3 us a line,
    so each chunk of lines is made complex on its own and written by one
    ``%``-format call over the interleaved real and imaginary parts.  An
    int8 chunk (the arithmetic and random +-1/0 sequences) instead joins
    its lines from ``_INT8_LINES``, several times faster than formatting.
    The bytes equal those of writing every line as
    ``f"{re:.17g} {im:.17g}\\n"``, the reference the tests keep.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {seq.provenance}\n")
        for start in range(0, seq.length, _WRITE_CHUNK_LINES):
            chunk = seq.values[start : start + _WRITE_CHUNK_LINES]
            if chunk.dtype == np.int8:
                text = "".join(_INT8_LINES[chunk])
            else:
                part = np.ascontiguousarray(chunk, dtype=np.complex128).view(np.float64).tolist()
                text = ("%.17g %.17g\n" * chunk.size) % tuple(part)
            handle.write(text)


def read_sequence(path) -> ComplexSequence:
    """Parse a sequence file written by ``write_sequence`` (or by hand).

    Grammar, one line at a time: a line that is blank, or whose first
    non-blank character is '#', is skipped; any other line holds exactly
    two whitespace-separated tokens, each parsed by Python ``float``.

    The leading lines the grammar skips are counted, and ``_table_after``
    parses the rest with ``np.loadtxt``, comments off, so a '#' anywhere
    after them makes it raise.  ``loadtxt`` also rejects tokens such as
    ``1_0`` that ``float`` takes, so the line loop ``_parse_lines`` stays:
    it runs when there is no data line, when ``loadtxt`` raises or finds
    other than two columns, and it alone raises ``SequenceParseError``
    with the offending line.

    ``loadtxt`` gets the path as a ``str``, the one input its C reader
    reads in chunks (a handle it reads one Python line at a time).  numpy
    decompresses a ``str`` path by its suffix, so ``.gz``, ``.bz2``, ``.xz``
    and ``.lzma`` files go to ``_parse_lines``: files are plain text.
    """
    path = Path(path)
    provenance = f"file({path})"
    plain = os.path.splitext(path)[1] not in (".gz", ".bz2", ".xz", ".lzma")  # numpy's decompressed suffixes
    with path.open("r", encoding="utf-8") as handle:
        skipped = 0
        for raw in handle if plain else ():
            line = raw.strip()
            if line and not line.startswith("#"):
                table = _table_after(path, skipped)
                if table is not None:
                    return ComplexSequence(table, provenance)
                break
            skipped += 1
        handle.seek(0)
        return ComplexSequence(_parse_lines(handle, path), provenance)


def _table_after(path: Path, skipped: int) -> np.ndarray | None:
    """The values past the first ``skipped`` lines as complex128, or None unless ``loadtxt`` reads two columns.

    An int8 parse comes first: it reads README's 10^6-line Moebius file in
    about 0.06 s, against 0.09 s as floats (2-core host).  ``float`` of an
    integer literal is that integer exactly, but for the sign of ``-0``, so
    the int8 table is kept when the file holds no ``-0``; otherwise, or when
    a token is not an int8 literal, the float parse runs.  A float file pays
    for an int8 parse that stops at its first non-integer token, but a file
    of integers with a float on its last line is parsed twice.  Older numpy
    (1.24 among them) parses a non-integer token of an integer column as a
    float, truncates it and only warns (DeprecationWarning), so that
    warning is an error here.
    """
    source, options = os.fspath(path), {"encoding": "utf-8", "comments": None, "skiprows": skipped, "ndmin": 2}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(source, dtype=np.int8, **options)
    except (ValueError, OverflowError):
        table = None
    if table is None or (table.shape[1] == 2 and _holds_negative_zero(path)):
        try:
            table = np.loadtxt(source, **options)
        except ValueError:
            return None
    if table.shape[1] != 2:
        return None
    return table.astype(np.float64, copy=False).view(np.complex128).reshape(-1)


def _holds_negative_zero(path: Path) -> bool:
    """Whether the file's bytes hold ``-0``, read in 1 MiB chunks (a match may span two)."""
    with path.open("rb") as handle:
        last = b""
        while chunk := handle.read(1 << 20):
            if b"-0" in chunk or (last == b"-" and chunk.startswith(b"0")):
                return True
            last = chunk[-1:]
    return False


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
