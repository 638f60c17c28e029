"""Sequence generators: sieve correctness, determinism, file round-trips."""

import math
import tempfile
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillab import sequences
from oscillab.sequences import (
    ComplexSequence,
    SequenceParseError,
    cesaro_l1_norm,
    liouville_sequence,
    mobius_sequence,
    polynomial_phase_sequence,
    rademacher_sequence,
    read_sequence,
    write_sequence,
)


def mobius_by_trial_division(n: int) -> int:
    """Independent oracle: factor n directly."""
    if n == 1:
        return 1
    count = 0
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            count += 1
            if m % d == 0:
                return 0
        else:
            d += 1
    if m > 1:
        count += 1
    return (-1) ** count


def omega_by_trial_division(n: int) -> int:
    count = 0
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            m //= d
            count += 1
        d += 1
    if m > 1:
        count += 1
    return count


def test_mobius_first_values():
    seq = mobius_sequence(6)
    assert seq.values.tolist() == [1, -1, -1, 0, -1, 1]


def test_mobius_spot_values():
    seq = mobius_sequence(30)
    assert seq.values[11] == 0  # mu(12), divisible by 4
    assert seq.values[29] == -1  # mu(30), three distinct primes


def test_mobius_against_trial_division():
    seq = mobius_sequence(2000)
    for n in range(1, 2001):
        assert seq.values[n - 1] == mobius_by_trial_division(n), n


def test_sieves_at_documented_limit():
    """The documented length 10^7 works and stays exact (random spot checks)."""
    n = 10**7
    mu = mobius_sequence(n).values
    lam = liouville_sequence(n).values
    assert mu.dtype == np.int8
    rng = np.random.default_rng(99)
    for k in rng.integers(1, n + 1, 30):
        k = int(k)
        assert mu[k - 1] == mobius_by_trial_division(k), k
        assert lam[k - 1] == (-1) ** omega_by_trial_division(k), k


def test_mobius_rejects_zero_length():
    with pytest.raises(ValueError):
        mobius_sequence(0)


def test_mobius_multiplicativity_on_coprime_pairs():
    seq = mobius_sequence(10**6)
    mu = seq.values
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(1, 1001))
        n = int(rng.integers(1, 1001))
        if math.gcd(m, n) != 1:
            continue
        assert mu[m * n - 1] == mu[m - 1] * mu[n - 1]
        checked += 1


def test_mobius_divisor_sums_vanish():
    limit = 10**4
    mu = mobius_sequence(limit).values
    sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sums[d::d] += mu[d - 1]
    assert sums[1] == 1
    assert not sums[2:].any()


def test_liouville_values_and_complete_multiplicativity():
    seq = liouville_sequence(3000)
    assert set(seq.values.tolist()) <= {-1, 1}
    for n in range(1, 3001):
        assert seq.values[n - 1] == (-1) ** omega_by_trial_division(n), n


def test_polynomial_phase_examples():
    seq = polynomial_phase_sequence(0.5, 2, 5)
    assert seq.values[3] == pytest.approx(-1.0)  # e(2 pi i * 4.5)
    assert seq.values[0] == pytest.approx(1.0)
    seq2 = polynomial_phase_sequence(1 / 3, 1, 3)
    assert seq2.values[2] == pytest.approx(np.exp(2j * np.pi * 2 / 3), abs=1e-12)


def test_polynomial_phase_unit_modulus():
    seq = polynomial_phase_sequence(math.sqrt(2) - 1, 3, 5000)
    assert np.max(np.abs(np.abs(seq.values) - 1.0)) < 1e-12


def test_rademacher_deterministic_and_binary():
    a = rademacher_sequence(12345, 2048)
    b = rademacher_sequence(12345, 2048)
    assert np.array_equal(a.values, b.values)
    assert set(a.values.tolist()) == {-1, 1}


def test_rademacher_mean_small():
    seq = rademacher_sequence(1, 10**5)
    assert abs(seq.values.astype(np.float64).mean()) <= 0.02


def test_rademacher_distinct_seeds_differ():
    for seed in range(10):
        a = rademacher_sequence(seed, 64)
        b = rademacher_sequence(seed + 1000, 64)
        assert not np.array_equal(a.values, b.values)


def test_sequence_length_invariant():
    with pytest.raises(ValueError):
        ComplexSequence(np.array([]), "empty")


def test_io_round_trip_exact(tmp_path):
    seq = mobius_sequence(100)
    path = tmp_path / "mobius.txt"
    write_sequence(path, seq)
    back = read_sequence(path)
    assert np.array_equal(back.complex_values, seq.complex_values)


def test_io_round_trip_awkward_floats(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=50) * 1e-7 + 1j * rng.normal(size=50) * 1e9
    seq = ComplexSequence(values, "random")
    path = tmp_path / "vals.txt"
    write_sequence(path, seq)
    back = read_sequence(path)
    assert np.array_equal(back.complex_values, values)


def reference_write_sequence(path, seq):
    """The per-line writer that ``write_sequence`` must match byte for byte."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"# {seq.provenance}\n")
        for v in seq.complex_values:
            handle.write(f"{v.real:.17g} {v.imag:.17g}\n")


def reference_read_sequence(path):
    """The per-line parser that defines the file grammar (the pre-numpy reader)."""
    path = Path(path)
    values = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
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


def _outcome(parse, path):
    """("ok", dtype, bits) or ("error", type, line number, message)."""
    try:
        values = parse(path)
    except ValueError as exc:
        return ("error", type(exc), getattr(exc, "line_number", None), str(exc))
    return ("ok", values.dtype.str, values.view(np.uint64).tolist())


_TOKENS = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "-0.0", "+0", "nan", "-nan", "NaN", "inf", "-inf", "Infinity",
        "5e-324", "1.7976931348623157e308", "1e400", "1_0", "1__0", "٣", "0x10",
        "1.", ".5", "abc", "1e", "--1",
    ]),
    st.floats(allow_nan=False).map(lambda x: f"{x:.17g}"),
    st.integers(-(10**20), 10**20).map(str),
)
_BLANK = st.sampled_from(["", " ", "\t", "  \t ", "\x0c"])
_COMMENT = st.sampled_from(["#", "# file(/a#b/seq.txt)", "   # indented", "\t#x # y", "## 1 0"])
_DATA = st.builds(
    lambda lead, tokens, sep, trail, inline: lead + sep.join(tokens) + trail + inline,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from([2] * 12 + [1, 3]).flatmap(lambda k: st.lists(_TOKENS, min_size=k, max_size=k)),
    st.sampled_from([" ", "\t", "  ", " \t "]),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from([""] * 20 + [" # note", "#"]),
)
_LINE = st.one_of(_DATA, _DATA, _DATA, _BLANK, _COMMENT)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINE, max_size=12),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
    scan_chars=st.integers(1, 8),
)
@example(lines=["# only comments", "   # indented"], ending="\n", final_newline=True, scan_chars=3)
@example(lines=[], ending="\n", final_newline=False, scan_chars=3)
@example(lines=["1 0 # inline", "2 0"], ending="\n", final_newline=True, scan_chars=3)
@example(lines=["1_0 0", "2 0"], ending="\r\n", final_newline=True, scan_chars=3)
@example(lines=["# header", "1 2 3", "4 5 6"], ending="\n", final_newline=True, scan_chars=3)
@example(lines=["1", "2"], ending="\n", final_newline=True, scan_chars=3)
@example(
    lines=["nan -0.0", "inf -inf", "5e-324 1.7976931348623157e308"],
    ending="\n",
    final_newline=True,
    scan_chars=3,
)
def test_read_sequence_matches_line_parser(lines, ending, final_newline, scan_chars):
    """Fast and per-line parsers agree bit for bit, or raise at the same line."""
    text = ending.join(lines) + (ending if final_newline and lines else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.txt"
        with path.open("w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        expected = _outcome(reference_read_sequence, path)
        assert _outcome(lambda p: read_sequence(p).values, path) == expected
        # Scan blocks of a few characters split lines at every position.
        with mock.patch.object(sequences, "_SCAN_CHARS", scan_chars):
            assert _outcome(lambda p: read_sequence(p).values, path) == expected


@pytest.mark.parametrize(
    "length",
    [
        1,
        sequences._WRITE_CHUNK_LINES - 1,
        sequences._WRITE_CHUNK_LINES,
        sequences._WRITE_CHUNK_LINES + 1,
    ],
)
def test_write_sequence_bytes_match_line_writer(tmp_path, length):
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]
    rng = np.random.default_rng(length)
    flat = rng.normal(size=2 * length) * 10.0 ** rng.integers(-320, 300, size=2 * length)
    flat[::5] = np.resize(special, flat[::5].size)
    values = flat.view(np.complex128)
    seq = ComplexSequence(values, f"awkward(n={length})")
    write_sequence(tmp_path / "fast.txt", seq)
    reference_write_sequence(tmp_path / "ref.txt", seq)
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    back = read_sequence(tmp_path / "fast.txt")
    assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))


def test_write_sequence_strided_and_integer_values(tmp_path):
    values = mobius_sequence(50).values[::3]
    seq = ComplexSequence(values, "strided")
    write_sequence(tmp_path / "fast.txt", seq)
    reference_write_sequence(tmp_path / "ref.txt", seq)
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_io_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0\n2 0\nabc\n", encoding="utf-8")
    with pytest.raises(SequenceParseError) as err:
        read_sequence(path)
    assert err.value.line_number == 3
    assert "line 3" in str(err.value)


def test_io_inline_comment_names_line(tmp_path):
    """'#' after data on its line is an error, not a trailing comment."""
    path = tmp_path / "bad.txt"
    path.write_text("# header\n1 0\n1 0 # trailing\n", encoding="utf-8")
    with pytest.raises(SequenceParseError) as err:
        read_sequence(path)
    assert err.value.line_number == 3


def test_io_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_sequence(path)


def test_io_missing_file():
    with pytest.raises(OSError):
        read_sequence("/nonexistent/path/seq.txt")


def test_cesaro_constants():
    ones = ComplexSequence(np.ones(100), "ones")
    assert cesaro_l1_norm(ones, [10, 100]).tolist() == [1.0, 1.0]
    zeros = ComplexSequence(np.zeros(50), "zeros")
    zeros_norms = cesaro_l1_norm(zeros, [50])
    assert zeros_norms.tolist() == [0.0]


def test_cesaro_checkpoint_overflow():
    ones = ComplexSequence(np.ones(10), "ones")
    with pytest.raises(ValueError):
        cesaro_l1_norm(ones, [20])


def test_cesaro_mobius_squarefree_density():
    """Sieve vs an independent square-marking count (no prime logic)."""
    n = 10**6
    seq = mobius_sequence(n)
    norm = cesaro_l1_norm(seq, [n])[0]
    assert abs(norm - 0.6079) <= 0.001

    squarefree = np.ones(n + 1, dtype=bool)
    squarefree[0] = False
    for d in range(2, int(n**0.5) + 1):
        squarefree[d * d :: d * d] = False
    assert norm * n == squarefree.sum()


def test_cesaro_monotone_and_bounded():
    rng = np.random.default_rng(11)
    values = rng.normal(size=500) + 1j * rng.normal(size=500)
    seq = ComplexSequence(values, "random")
    bigger = ComplexSequence(values * 2.0, "scaled")
    a = cesaro_l1_norm(seq, [100, 500])
    b = cesaro_l1_norm(bigger, [100, 500])
    assert np.all(b >= a)
    assert np.all(a <= np.abs(values).max() + 1e-12)
