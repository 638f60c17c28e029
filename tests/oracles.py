"""Reference implementations that the package is tested against and no longer calls.

Each is kept verbatim from the code it once was, so a test that compares
the package with it compares with the earlier behaviour bit for bit.  A
method is kept as a function of the object it was called on.
"""

import math
from fractions import Fraction

import numpy as np

from oscillab.polyphase import (
    _FIXED_MASK,
    _INV_2_64,
    _INV_2_128,
    _MASK64,
    _ROOT_COUNT,
    _ROOT_STEP,
    _UNIT_TERMS,
    _to_fixed,
    _turned,
)
from oscillab.torus import _shift_down


def _splitmix64(seed: int, indices: np.ndarray) -> np.ndarray:
    """Counter-based hash: one 64-bit word per (seed, index) pair."""
    z = (indices + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _fixed_to_float(fx: int) -> float:
    """A 128-bit fixed-point phase as a float in [0, 1): ``_pair_floats`` and ``_folded`` on one int."""
    value = (fx >> 64) * _INV_2_64 + (fx & _MASK64) * _INV_2_128
    return 0.0 if value >= 1.0 else value


def unit_values(phases) -> np.ndarray:
    """e(phase) for an array of phases in turns, as a complex array of the same shape: the tests' reference e(.).

    x = 4096 * phase and k = floor(x) are exact in floats, so
    e(phase) = R[k mod 4096] * e(r / 4096) with r = x - k in [0, 1) also
    exact (``_float_front``, then ``_turned``).  Values agree with
    ``np.exp(2j * pi * phase)`` to about 1e-15 on [-1, 1), and their
    moduli are within 1e-15 of 1.  Every value depends on its phase
    alone, not on its place in the array or the array's size, and phases
    that differ by an integer give the same values bit for bit as long
    as both are exact floats.  Phases must be finite with magnitude below
    2^51, so that k fits an int64; others raise a ValueError.
    """
    phases = np.asarray(phases, dtype=np.float64)
    values = np.empty(phases.shape, dtype=np.complex128)
    src, dst = phases.reshape(-1), values.reshape(-1)
    # The pieces of ``_word_units``, with a float front end.
    size = min(src.size, _UNIT_TERMS)
    scratch = [np.empty(size) for _ in range(4)]
    scratch += [np.empty(size, dtype=np.intp)] + [np.empty(size, dtype=np.complex128) for _ in range(2)]
    # For finite phases below 2^51 no step is invalid; for others the cast of k is.
    try:
        with np.errstate(invalid="raise"):
            for start in range(0, src.size, _UNIT_TERMS):
                stop = min(src.size, start + _UNIT_TERMS)
                piece = [a[: stop - start] for a in scratch]
                _float_front(src[start:stop], piece)
                _turned(dst[start:stop], piece)
    except FloatingPointError:
        raise ValueError("phases: must be finite with magnitude below 2^51") from None
    return values


def _float_front(phases: np.ndarray, scratch) -> None:
    """Root index k mod 4096 and angle 2 pi r / 4096 of float phases, 4096 * phase = k + r."""
    x, k, _, _, index, _, _ = scratch
    np.multiply(phases, float(_ROOT_COUNT), out=x)
    np.floor(x, out=k)
    np.subtract(x, k, out=x)
    index[...] = k
    np.bitwise_and(index, _ROOT_COUNT - 1, out=index)
    np.multiply(x, _ROOT_STEP, out=x)


def skew_step(system, point) -> tuple[float, ...]:
    """One application of T (float arithmetic), once ``SkewShiftSystem.step``."""
    x = system.validate_point(point)
    new = [(x[0] + system.alpha) % 1.0]
    for j in range(1, system.dimension):
        new.append((x[j] + x[j - 1]) % 1.0)
    return tuple(new)


def orbit_point(system, point, n: int) -> tuple[float, ...]:
    """T^n(x) by the closed form x_j(n) = frac(sum_i C(n, j-i) x_i + C(n, j) alpha).

    Exact fixed-point accumulation, so the result matches n-fold
    application of the one-step map to float resolution for any n that
    keeps the binomials in memory.
    """
    if n < 0:
        raise ValueError("n: must be nonnegative")
    x = system.validate_point(point)
    fx = [_to_fixed(c) for c in x]
    fa = _to_fixed(system.alpha)
    out = []
    for j in range(1, system.dimension + 1):
        acc = math.comb(n, j) * fa
        for i in range(1, j + 1):
            acc += math.comb(n, j - i) * fx[i - 1]
        out.append(_fixed_to_float(acc & _FIXED_MASK))
    return tuple(out)


def evaluate(char, point) -> complex:
    """e(<k, x>) of a ``CharacterObservable`` at ``point``, once ``CharacterObservable.evaluate``."""
    phase = sum(k * _to_fixed(c) for k, c in zip(char.frequencies, point)) & _FIXED_MASK
    return complex(unit_values(_fixed_to_float(phase)))


def is_valid(tower) -> bool:
    """Check every level identity symbolically (exact arithmetic), once ``QuasiEigenTower.is_valid``."""
    alpha = Fraction(tower.system.alpha)
    for j in range(1, len(tower.levels)):
        upper = tower.levels[j]
        lower = tower.levels[j - 1]
        if lower.frequencies != _shift_down(upper.frequencies):
            return False
        if lower.constant_phase != (alpha * upper.frequencies[0]) % 1:
            return False
    return True
