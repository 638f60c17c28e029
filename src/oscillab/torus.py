"""Skew-shift dynamics on the m-torus and character tower factorizations.

The system is T(x_1, ..., x_m) = (x_1 + alpha, x_2 + x_1, ..., x_m + x_{m-1})
with every coordinate mod 1.  For a character f(x) = e(<k, x>) the
composition f(Tx) factors as a constant times a character of strictly
lower "depth", and iterating that division produces a finite tower of
levels whose bottom is the constant e(k_r * alpha).  Along an orbit the
observable then evaluates as a product of the level phases raised to
binomial powers, equivalently e(Q(n)) for an explicit polynomial Q in
the binomial basis.  Weighted multiple averages along polynomial times
reduce to a single weighted exponential average of the composed phase
polynomial, which is what makes million-term runs cheap.

All tower identities are exact integer/rational statements (frequency
vectors shift and constants are integer multiples of alpha mod 1).  T
itself and the tower identity f_j(Tx) = f_{j-1}(x) f_j(x) are the
difference recurrence r_j += r_{j-1}, on the registers (alpha, x_1, ...,
x_m) and on the level phases: the last register of a front (alpha, x_1,
..., x_j) or (theta_0, ..., theta_j) is a polynomial in n, and so is
c + <k, T^n x>, whose front is the forward differences of its values at
n = 0..m.  Each front streams exactly in 128-bit fixed point on the
lane table of every phase stream.  The orbit (``_register_phases``)
converts it to floats once, by the conversion hi * 2^-64 + lo * 2^-128
(1.0 folded to 0) of every fixed-point phase, so ``orbit_point`` matches
the stepped orbit bit for bit.  ``verify_factorization`` reads its three
routes' units e(.) off their fixed-point words (``_register_units``), so
routes whose exact values agree give the same units, not merely values
within a drifting tolerance.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyphase import (
    _FIXED_MASK,
    ErgodicAverageSeries,
    PhasePolynomial,
    _binomial_to_monomial,
    _difference_steps,
    _fixed_to_float,
    _forward_differences,
    _integer,
    _register_phases,
    _register_units,
    _to_fixed,
    _validated_checkpoints,
    binomial_phase_polynomial,
    compose_time_polynomial,
    unit_values,
    weighted_exponential_average,
)


@dataclass(frozen=True)
class SkewShiftSystem:
    """Skew shift on the m-torus with rotation number alpha.

    Floats are rational, so minimality (alpha irrational) is a statement
    about the alpha the caller intends, not about the stored float.
    """

    dimension: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "dimension", _integer(self.dimension, "dimension"))
        if self.dimension < 1:
            raise ValueError("dimension: must be >= 1")
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha: must be finite, got {alpha!r}")
        object.__setattr__(self, "alpha", alpha % 1.0)

    def validate_point(self, point) -> tuple[float, ...]:
        pt = tuple(float(c) % 1.0 for c in point)
        if not all(map(math.isfinite, pt)):
            raise ValueError("point: coordinates must be finite")
        if len(pt) != self.dimension:
            raise ValueError(
                f"point: expected {self.dimension} coordinates, got {len(pt)}"
            )
        return pt

    def step(self, point) -> tuple[float, ...]:
        """One application of T (float arithmetic; test oracle)."""
        x = self.validate_point(point)
        new = [(x[0] + self.alpha) % 1.0]
        for j in range(1, self.dimension):
            new.append((x[j] + x[j - 1]) % 1.0)
        return tuple(new)


def orbit_point(system: SkewShiftSystem, point, n: int) -> tuple[float, ...]:
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


def _orbit_blocks(system: SkewShiftSystem, point, count: int):
    """``(start, coordinates)``: x_1, ..., x_m of T^n(x), n = 0..count-1, an (m, size) array per block.

    Coordinate j streams the front (alpha, x_1, ..., x_j) of T's
    registers on ``_register_phases``, exactly mod 1, so x_j is the
    closed form of ``orbit_point`` to the bit.
    """
    registers = [_to_fixed(c) for c in (system.alpha, *system.validate_point(point))]
    return _register_phases([registers[: j + 1] for j in range(1, len(registers))], count)


@dataclass(frozen=True)
class CharacterObservable:
    """Unimodular observable e(<k, x>) with integer frequency vector k."""

    frequencies: tuple[int, ...]

    def __post_init__(self):
        freqs = tuple(_integer(k, "frequencies") for k in self.frequencies)
        if not freqs:
            raise ValueError("frequencies: must be nonempty")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def order(self) -> int:
        """Largest 1-based coordinate index carrying a nonzero frequency."""
        for i in range(len(self.frequencies) - 1, -1, -1):
            if self.frequencies[i]:
                return i + 1
        return 0

    def evaluate(self, point) -> complex:
        phase = sum(k * _to_fixed(c) for k, c in zip(self.frequencies, point)) & _FIXED_MASK
        return complex(unit_values(_fixed_to_float(phase)))


@dataclass(frozen=True)
class TowerLevel:
    """One tower level: constant phase times a character."""

    constant_phase: Fraction
    frequencies: tuple[int, ...]

    def phase_fraction(self, point) -> Fraction:
        acc = self.constant_phase
        for k, c in zip(self.frequencies, point):
            if k:
                acc += k * Fraction(c)
        return acc % 1


def _shift_down(freqs: tuple[int, ...]) -> tuple[int, ...]:
    return freqs[1:] + (0,)


@dataclass(frozen=True)
class QuasiEigenTower:
    """Chain (f_0, ..., f_k) with f_j(Tx) = f_{j-1}(x) f_j(x) at every level.

    ``levels[j]`` holds f_j; f_0 is a pure constant (the eigenvalue
    level) and the top level is the observable the tower was built for.
    For frequency vectors with several nonzero coordinates the
    intermediate levels pick up constant factors, so each level is
    stored as a constant phase plus a character.
    """

    system: SkewShiftSystem
    levels: tuple[TowerLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("levels: must be nonempty")
        if any(self.levels[0].frequencies):
            raise ValueError("levels: bottom level must be constant")

    @property
    def order(self) -> int:
        """Largest level index whose frequency vector is nonzero (0 if none)."""
        for j in range(len(self.levels) - 1, -1, -1):
            if any(self.levels[j].frequencies):
                return j
        return 0

    @property
    def top(self) -> TowerLevel:
        return self.levels[-1]

    @classmethod
    def constant(cls, system: SkewShiftSystem, theta) -> "QuasiEigenTower":
        zero = (0,) * system.dimension
        return cls(system, (TowerLevel(Fraction(theta) % 1, zero),))

    def is_valid(self) -> bool:
        """Check every level identity symbolically (exact arithmetic)."""
        alpha = Fraction(self.system.alpha)
        for j in range(1, len(self.levels)):
            upper = self.levels[j]
            lower = self.levels[j - 1]
            if lower.frequencies != _shift_down(upper.frequencies):
                return False
            if lower.constant_phase != (alpha * upper.frequencies[0]) % 1:
                return False
        return True


def build_tower(system: SkewShiftSystem, char: CharacterObservable) -> QuasiEigenTower:
    """Tower for the character e(<k, x>) by repeated division f(Tx)/f(x).

    Each division shifts the frequency vector down one coordinate and
    emits the constant e(k_1 * alpha); the recursion bottoms out at the
    constant level after exactly ``char.order`` steps.
    """
    freqs = char.frequencies
    if len(freqs) != system.dimension:
        raise ValueError(
            f"frequencies: expected {system.dimension} entries, got {len(freqs)}"
        )
    order = char.order
    if order == 0:
        raise ValueError(
            "frequencies: zero vector (constant observable); use QuasiEigenTower.constant"
        )
    alpha = Fraction(system.alpha)
    levels = [TowerLevel(Fraction(0), freqs)]
    current = freqs
    for _ in range(order):
        constant = (alpha * current[0]) % 1
        current = _shift_down(current)
        levels.append(TowerLevel(constant, current))
    levels.reverse()
    return QuasiEigenTower(system, tuple(levels))


def tower_thetas(tower: QuasiEigenTower, point) -> tuple[Fraction, ...]:
    """Level phases theta_j = phase of f_j at the base point, j = 0..k."""
    pt = tower.system.validate_point(point)
    return tuple(level.phase_fraction(pt) for level in tower.levels)


def tower_phase_polynomial(tower: QuasiEigenTower, point) -> PhasePolynomial:
    """Q with f(T^n x) = e(Q(n)), Q(z) = sum_j theta_j C(z, k-j).

    theta_0 (the constant level) multiplies the top binomial C(z, k).
    """
    return binomial_phase_polynomial(tower_thetas(tower, point))


def verify_factorization(tower: QuasiEigenTower, point, n_max: int) -> float:
    """Max pairwise distance of the three evaluation routes over n <= n_max.

    Route 1 evaluates the top character c + sum_j k_j x_j on the orbit:
    T applied exactly to x for n = 0..m gives its values there, and their
    forward differences are the front of that degree-<= m polynomial, so
    the route needs T alone, not the tower.  Route 2 steps the level
    phases theta_0, ..., theta_k by the tower identity
    f_j(Tx) = f_{j-1}(x) f_j(x) and reads the top one; route 3 evaluates
    e(Q(n)) through the monomial expansion of the tower phase polynomial
    on a phase stream.  All three see alpha and x truncated to 128-bit
    fixed point once and run in exact arithmetic mod 1, and every unit is
    read off its route's fixed-point words (``_register_units``), so a
    valid tower deviates by 0.0.  The routes go block by block side by
    side, so memory does not grow with ``n_max``.
    """
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max: must be >= 1")
    count = n_max + 1
    top = tower.top
    # alpha and x truncated once; a lower level's constant, k_1 alpha of the level above, moves with alpha.
    drop = Fraction(tower.system.alpha) - Fraction(_to_fixed(tower.system.alpha), _FIXED_MASK + 1)
    pt = tuple(Fraction(_to_fixed(c), _FIXED_MASK + 1) for c in tower.system.validate_point(point))
    lifts = [upper.frequencies[0] for upper in tower.levels[1:]] + [0]
    thetas = [(level.phase_fraction(pt) - k * drop) % 1 for level, k in zip(tower.levels, lifts)]
    # c + <k, T^n x> at n = 0..m, T applied in place to its registers (alpha, x_1, ..., x_m).
    registers = [_to_fixed(c) for c in (tower.system.alpha, *pt)]
    characters = [
        _to_fixed(top.constant_phase) + sum(k * x for k, x in zip(top.frequencies, orbit[1:]))
        for orbit in _difference_steps(registers, len(registers), _FIXED_MASK + 1)
    ]
    fronts = [
        [v & _FIXED_MASK for v in reversed(_forward_differences(characters))],
        [_to_fixed(theta) for theta in thetas],
    ]
    deviation = 0.0
    for _, values in _register_units(fronts, [binomial_phase_polynomial(thetas)], count):
        deviation = max(deviation, *(np.abs(values[a] - values[b]).max() for a, b in ((0, 1), (0, 2), (1, 2))))
    return float(deviation)


@dataclass(frozen=True)
class TimePolynomial:
    """Integer-valued polynomial q(n) = sum_j a_j C(n, j), a_j integers.

    The binomial basis makes integer values automatic; nonnegativity on
    the used range is checked at use time via
    ``first_negative_on_range``.
    """

    binomial_coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(_integer(a, "binomial_coefficients") for a in self.binomial_coefficients)
        if not coeffs:
            raise ValueError("binomial_coefficients: must be nonempty")
        object.__setattr__(self, "binomial_coefficients", coeffs)

    @classmethod
    def from_power(cls, power: int) -> "TimePolynomial":
        """q(n) = n^power: a_j is the j-th forward difference of n^power at 0."""
        if power < 0:
            raise ValueError("power: must be nonnegative")
        return cls(tuple(_forward_differences([n**power for n in range(power + 1)])))

    @property
    def degree(self) -> int:
        for j in range(len(self.binomial_coefficients) - 1, -1, -1):
            if self.binomial_coefficients[j]:
                return j
        return 0

    def __call__(self, n: int) -> int:
        return sum(
            a * math.comb(n, j)
            for j, a in enumerate(self.binomial_coefficients)
            if a
        )

    def monomial_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(_binomial_to_monomial(self.binomial_coefficients[: self.degree + 1]))

    def first_negative_on_range(self, count: int) -> int | None:
        """Smallest integer n in [0, count) with q(n) < 0, if any."""
        runs = self.negative_runs(count)
        return runs[0][0] if runs else None

    def negative_runs(self, count: int) -> list[tuple[int, int]]:
        """Maximal runs [start, stop) of the integers n in [0, count) with q(n) < 0.

        Found by forward differences, from integer values of q alone.
        The difference q(n + 1) - q(n) has binomial coefficients a_1, a_2,
        ..., so its negative runs over [0, count - 1) are the runs [s, t)
        on which q falls strictly; between them q does not fall.  Their
        ends cut [0, count - 1] into pieces on which q is monotone, so on
        each piece {q < 0} is a suffix (q falling) or a prefix (q rising)
        whose end is found by bisection.  Runs from pieces that share an
        endpoint merge.  The base case is a constant or a single point.
        """
        if count < 1:
            raise ValueError("count: must be >= 1")
        if count == 1 or self.degree == 0:
            return [(0, count)] if self(0) < 0 else []
        falls = TimePolynomial(self.binomial_coefficients[1:]).negative_runs(count - 1)
        # The pieces [cuts[i], cuts[i + 1]] alternate: q does not fall for even i, falls for odd i.
        cuts = [0, *(n for run in falls for n in run), count - 1]
        runs: list[tuple[int, int]] = []
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            falling = i % 2 == 1
            if self(hi if falling else lo) >= 0:
                continue
            # First n in [lo, hi] with q(n) < 0 on a fall, q(n) >= 0 on a rise; hi + 1 if none.
            edge = lo + bisect.bisect_left(
                range(lo, hi + 1), True, key=lambda n: (self(n) < 0) == falling
            )
            start, stop = (edge, hi + 1) if falling else (lo, edge)
            if runs and start <= runs[-1][1]:
                start = runs.pop()[0]
            runs.append((start, stop))
        return runs


def _check_nonnegative_times(time_polynomials, count: int) -> None:
    """Raise a ValueError naming the first q_j with q_j(n) < 0 for some n < count."""
    for j, q in enumerate(time_polynomials):
        bad = q.first_negative_on_range(count)
        if bad is not None:
            raise ValueError(f"time_polynomials[{j}]: q(n) = {q(bad)} < 0 at n = {bad}")


def multiple_ergodic_average(
    system: SkewShiftSystem,
    chars,
    time_polynomials,
    point,
    seq,
    checkpoints,
) -> ErgodicAverageSeries:
    """(1/N) sum c_n prod_j f_j(T^{q_j(n)} x) at each checkpoint.

    Each factor contributes the composed phase polynomial Q_j(q_j(z));
    their sum feeds one difference-table stream, so the total cost is a
    single pass regardless of how large the q_j(n) get.
    """
    chars = list(chars)
    qs = list(time_polynomials)
    if not chars or len(chars) != len(qs):
        raise ValueError("chars and time_polynomials: need equal nonzero counts")
    pt = system.validate_point(point)
    cps = _validated_checkpoints(checkpoints)
    _check_nonnegative_times(qs, cps[-1])

    total = PhasePolynomial.zero()
    for char, q in zip(chars, qs):
        if char.order == 0:
            continue
        tower = build_tower(system, char)
        q_phase = tower_phase_polynomial(tower, pt)
        total = total + compose_time_polynomial(q_phase, q)
    return weighted_exponential_average(seq, total, cps)
