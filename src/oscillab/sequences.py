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

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .polyphase import MAX_DEGREE, PhasePolynomial, checkpoint_sums, phase_stream, unit_values

# The sieves build transient int64 helper arrays (9 bytes per entry), so
# lengths of 10^7 need on the order of 100 MB and finish in seconds.
SIEVE_TESTED_LIMIT = 10_000_000

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
    ``complex_values`` is the uniform view consumed by averaging code.
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


def _primes_up_to(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _mobius_table(limit: int) -> np.ndarray:
    """mu(k) for k = 0..limit as int8 (mu(0) stored as 0)."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    if limit < 2:
        return mu
    smooth = np.ones(limit + 1, dtype=np.int64)
    for p in _primes_up_to(int(limit**0.5)):
        p = int(p)
        mu[p::p] *= -1
        smooth[p::p] *= p
        mu[p * p :: p * p] = 0
    # Entries whose small-prime part does not exhaust them carry exactly
    # one prime factor above sqrt(limit): one more sign flip.
    leftover = smooth != np.arange(limit + 1, dtype=np.int64)
    mu[leftover] *= -1
    mu[0] = 0
    return mu


def _liouville_table(limit: int) -> np.ndarray:
    """lambda(k) = (-1)^Omega(k) for k = 0..limit as int8."""
    lam = np.ones(limit + 1, dtype=np.int8)
    lam[0] = 0
    if limit < 2:
        return lam
    smooth = np.ones(limit + 1, dtype=np.int64)
    for p in _primes_up_to(int(limit**0.5)):
        p = int(p)
        pk = p
        while pk <= limit:
            lam[pk::pk] *= -1
            smooth[pk::pk] *= p
            pk *= p
    leftover = smooth != np.arange(limit + 1, dtype=np.int64)
    lam[leftover] *= -1
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


def rademacher_sequence(seed: int, n: int) -> ComplexSequence:
    """Deterministic +-1 sequence keyed by (seed, index).

    Any entry is computable independently of the rest, so the generator
    is reproducible and trivially parallel.
    """
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed: must fit in 64 bits")
    if n < 1:
        raise ValueError("n: must be >= 1")
    bits = _splitmix64(seed, np.arange(n, dtype=np.uint64)) >> np.uint64(63)
    values = (1 - 2 * bits.astype(np.int8)).astype(np.int8)
    return ComplexSequence(values, f"rademacher(seed={seed}, n={n})")


def uniform_unit_sequence(seed: int, n: int) -> np.ndarray:
    """Deterministic uniforms in (0, 1), same counter-based keying."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed: must fit in 64 bits")
    bits = _splitmix64(seed, np.arange(n, dtype=np.uint64)) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * 2.0**-53


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
    poly = PhasePolynomial.monomial(alpha, power)
    values = unit_values(phase_stream(poly, n))
    return ComplexSequence(values, f"polyphase(alpha={alpha!r}, power={power}, n={n})")


# Lines per formatting call in ``write_sequence``: one %-format over a
# chunk runs in C, and the chunk bounds the transient text to about 0.5 MB.
_WRITE_CHUNK_LINES = 1 << 13


def write_sequence(path, seq: ComplexSequence) -> None:
    """Write one "RE IM" decimal pair per line after a '# provenance' line.

    Values are emitted with 17 significant digits, which round-trips
    float64 exactly.  Formatting line by line in the interpreter costs
    about 1.3 us a line, so each chunk of lines is one ``%``-format call
    over the interleaved real and imaginary parts.  The bytes equal those
    of writing every line as ``f"{re:.17g} {im:.17g}\\n"``; that line
    loop is kept in the tests as the reference.
    """
    path = Path(path)
    flat = np.ascontiguousarray(seq.complex_values).view(np.float64)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {seq.provenance}\n")
        for start in range(0, flat.size, 2 * _WRITE_CHUNK_LINES):
            part = flat[start : start + 2 * _WRITE_CHUNK_LINES].tolist()
            handle.write(("%.17g %.17g\n" * (len(part) // 2)) % tuple(part))


def read_sequence(path) -> ComplexSequence:
    """Parse a sequence file written by ``write_sequence`` (or by hand).

    Grammar, one line at a time: a line that is blank, or whose first
    non-blank character is '#', is skipped; any other line holds exactly
    two whitespace-separated tokens, each parsed by Python ``float``.

    One ``np.loadtxt`` call parses the file.  It drops a trailing '# ...'
    after the numbers and rejects tokens such as ``1_0`` that ``float``
    takes, so the line loop ``_parse_lines`` stays: it runs whenever
    ``loadtxt`` cannot be trusted to agree (see ``_loadtxt_agrees``) or
    rejects the file or finds other than two columns, and it alone
    raises ``SequenceParseError`` with the offending line.
    """
    path = Path(path)
    provenance = f"file({path})"
    with path.open("r", encoding="utf-8") as handle:
        if _loadtxt_agrees(handle):
            handle.seek(0)
            try:
                table = np.loadtxt(handle, dtype=np.float64, comments="#", ndmin=2)
            except ValueError:
                pass
            else:
                if table.shape[1] == 2:
                    return ComplexSequence(table.view(np.complex128).reshape(-1), provenance)
        handle.seek(0)
        return ComplexSequence(_parse_lines(handle, path), provenance)


# Characters per block scanned by ``_loadtxt_agrees``.  Blocks, not the
# whole text, keep the scan's memory flat: a decoded 10^7-line file of
# 17-digit values is 400 MB of text.
_SCAN_CHARS = 1 << 20

# Start of a data line: its first non-blank character is not '#'.
_DATA_LINE = re.compile(r"^[^\S\n]*[^\s#]", re.MULTILINE)


def _loadtxt_agrees(handle) -> bool:
    """False when ``np.loadtxt`` could accept the text differently from the grammar.

    A text without a data line makes ``loadtxt`` warn and return an empty
    table, and a '#' with non-blank text before it on its line is a
    comment to ``loadtxt`` but an error to the grammar.  Every other
    difference (``1_0``, non-ASCII digits) makes ``loadtxt`` raise.  The
    text is read in blocks of whole lines; within a block only the lines
    that hold a '#' are visited.
    """
    found_data = False
    pending = ""
    for chunk in iter(lambda: handle.read(_SCAN_CHARS), ""):
        block, _, pending = (pending + chunk).rpartition("\n")
        if _has_inline_comment(block):
            return False
        found_data = found_data or _DATA_LINE.search(block) is not None
    if _has_inline_comment(pending):
        return False
    return found_data or _DATA_LINE.search(pending) is not None


def _has_inline_comment(text: str) -> bool:
    hash_at = text.find("#")
    while hash_at >= 0:
        line_start = text.rfind("\n", 0, hash_at) + 1
        if text[line_start:hash_at].strip():
            return True
        line_end = text.find("\n", hash_at)
        if line_end < 0:
            return False
        hash_at = text.find("#", line_end)
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
    """(1/N) sum_{n<N} |c_n| at each checkpoint."""
    moduli = np.abs(seq.complex_values)
    sums = checkpoint_sums(moduli, checkpoints)
    return (sums / np.asarray([int(c) for c in checkpoints], dtype=np.float64)).real
