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
vectors shift and constants are integer multiples of alpha mod 1), and
the orbit closed form is evaluated in 128-bit fixed point, so the three
evaluation routes compared by ``verify_factorization`` agree to float
resolution, not merely to some drifting tolerance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyphase import (
    _FIXED_MASK,
    ErgodicAverageSeries,
    PhasePolynomial,
    _binomial_basis_monomials,
    _fixed_to_float,
    _to_fixed,
    _validated_checkpoints,
    binomial_phase_polynomial,
    compose_time_polynomial,
    phase_stream,
    unit_values,
    weighted_exponential_average,
)


@dataclass(frozen=True)
class SkewShiftSystem:
    """Skew shift on the m-torus with rotation number alpha.

    Floats are rational, so true minimality is a statement about the
    user's intended alpha; ``declared_irrational`` records that intent
    and is advisory only.
    """

    dimension: int
    alpha: float
    declared_irrational: bool = True

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension: must be >= 1")
        object.__setattr__(self, "alpha", float(self.alpha) % 1.0)

    @property
    def minimal(self) -> bool:
        return self.declared_irrational

    def validate_point(self, point) -> tuple[float, ...]:
        pt = tuple(float(c) % 1.0 for c in point)
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


@dataclass(frozen=True)
class CharacterObservable:
    """Unimodular observable e(<k, x>) with integer frequency vector k."""

    frequencies: tuple[int, ...]

    def __post_init__(self):
        freqs = tuple(int(k) for k in self.frequencies)
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

    def phase_fixed(self, point) -> int:
        acc = 0
        for k, c in zip(self.frequencies, point):
            if k:
                acc += k * _to_fixed(c)
        return acc & _FIXED_MASK

    def evaluate(self, point) -> complex:
        return complex(np.exp(2j * np.pi * _fixed_to_float(self.phase_fixed(point))))


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

    def is_trivial(self) -> bool:
        return self.constant_phase == 0 and not any(self.frequencies)


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
    def chain_length(self) -> int:
        return len(self.levels) - 1

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
    freqs = tuple(int(k) for k in char.frequencies)
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


def tower_product(a: QuasiEigenTower, b: QuasiEigenTower) -> QuasiEigenTower:
    """Level-wise product of two towers (the group law).

    The shorter tower is padded below with trivial levels: its own
    bottom constant keeps dividing to the identity, so the padded chain
    still satisfies every level identity, and therefore so does the
    product.
    """
    if a.system != b.system:
        raise ValueError("towers must live on the same system")
    length = max(len(a.levels), len(b.levels))
    zero = (0,) * a.system.dimension

    def padded(t: QuasiEigenTower):
        pad = length - len(t.levels)
        return tuple(TowerLevel(Fraction(0), zero) for _ in range(pad)) + t.levels

    levels = tuple(
        TowerLevel(
            (la.constant_phase + lb.constant_phase) % 1,
            tuple(x + y for x, y in zip(la.frequencies, lb.frequencies)),
        )
        for la, lb in zip(padded(a), padded(b))
    )
    return QuasiEigenTower(a.system, levels)


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

    Route 1 evaluates the top character on the closed-form orbit, route
    2 multiplies the level values raised to binomial powers, route 3
    evaluates e(Q(n)) through the monomial expansion of the tower phase
    polynomial.  All three run in exact arithmetic, so for a valid tower
    the returned deviation sits at float-rounding scale.
    """
    if n_max < 1:
        raise ValueError("n_max: must be >= 1")
    system = tower.system
    pt = system.validate_point(point)
    m = system.dimension
    k_top = tower.top.frequencies
    chain = tower.chain_length

    fx = [_to_fixed(c) for c in pt]
    fa = _to_fixed(system.alpha)
    f_const_top = _to_fixed(tower.top.constant_phase)
    thetas_fx = [_to_fixed(th) for th in tower_thetas(tower, pt)]

    count = n_max + 1
    combs = [[math.comb(n, j) for n in range(count)] for j in range(max(m, chain) + 1)]

    phases_orbit = np.empty(count, dtype=np.float64)
    phases_product = np.empty(count, dtype=np.float64)
    for n in range(count):
        acc1 = f_const_top
        for j in range(1, m + 1):
            kj = k_top[j - 1]
            if kj:
                coord = combs[j][n] * fa
                for i in range(1, j + 1):
                    coord += combs[j - i][n] * fx[i - 1]
                acc1 += kj * (coord & _FIXED_MASK)
        phases_orbit[n] = _fixed_to_float(acc1 & _FIXED_MASK)

        acc2 = 0
        for j, th in enumerate(thetas_fx):
            acc2 += combs[chain - j][n] * th
        phases_product[n] = _fixed_to_float(acc2 & _FIXED_MASK)

    q_poly = tower_phase_polynomial(tower, pt)
    phases_q = phase_stream(q_poly, count)

    v1 = unit_values(phases_orbit)
    v2 = unit_values(phases_product)
    v3 = unit_values(phases_q)
    dev = max(
        float(np.abs(v1 - v2).max()),
        float(np.abs(v1 - v3).max()),
        float(np.abs(v2 - v3).max()),
    )
    return dev


@dataclass(frozen=True)
class TimePolynomial:
    """Integer-valued polynomial q(n) = sum_j a_j C(n, j), a_j integers.

    The binomial basis makes integer values automatic; nonnegativity on
    the used range is checked at use time via
    ``first_negative_on_range``.
    """

    binomial_coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(a) for a in self.binomial_coefficients)
        if not coeffs:
            raise ValueError("binomial_coefficients: must be nonempty")
        object.__setattr__(self, "binomial_coefficients", coeffs)

    @classmethod
    def from_power(cls, power: int) -> "TimePolynomial":
        """q(n) = n^power via n^k = sum_j S2(k, j) j! C(n, j)."""
        if power < 0:
            raise ValueError("power: must be nonnegative")
        if power == 0:
            return cls((1,))
        # Stirling numbers of the second kind, row `power`.
        row = [0] * (power + 1)
        row[0] = 1
        for _ in range(power):
            new = [0] * (power + 1)
            for j in range(power):
                if row[j]:
                    new[j] += j * row[j]
                    new[j + 1] += row[j]
            row = new
        return cls(tuple(row[j] * math.factorial(j) for j in range(power + 1)))

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
        acc = [Fraction(0)] * (self.degree + 1)
        for j, a in enumerate(self.binomial_coefficients):
            if a:
                for s, b in enumerate(_binomial_basis_monomials(j)):
                    acc[s] += a * b
        return tuple(acc)

    def first_negative_on_range(self, count: int) -> int | None:
        """Smallest integer n in [0, count) with q(n) < 0, if any.

        If n > 0 is the first such integer then q(n - 1) >= 0 > q(n), so
        a real root r lies in [n - 1, n) and n = floor(r) + 1.  A Sturm
        chain with integer coefficients counts the distinct real roots
        in (a, b] exactly; bisecting (-1, count - 1] down to the unit
        intervals (k - 1, k] that hold a root leaves the candidates k and
        k + 1, which are evaluated exactly together with n = 0.
        """
        if count < 1:
            raise ValueError("count: must be >= 1")
        candidates = {0}
        if self.degree > 0:
            chain = _sturm_chain(self.monomial_coefficients())
            stack = [(-1, count - 1, _sign_changes(chain, -1), _sign_changes(chain, count - 1))]
            while stack:
                lo, hi, changes_lo, changes_hi = stack.pop()
                if changes_lo == changes_hi:
                    continue
                if hi - lo == 1:
                    candidates.update((hi, hi + 1))
                    continue
                mid = (lo + hi) // 2
                changes_mid = _sign_changes(chain, mid)
                stack.append((lo, mid, changes_lo, changes_mid))
                stack.append((mid, hi, changes_mid, changes_hi))
        negatives = [n for n in sorted(candidates) if n < count and self(n) < 0]
        return negatives[0] if negatives else None


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of exact polynomials, highest degree first."""
    rem = list(num)
    quot = []
    while len(rem) >= len(den):
        factor = rem[0] / den[0]
        quot.append(factor)
        for i, d in enumerate(den):
            rem[i] -= factor * d
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def _primitive(poly: list) -> tuple[int, ...]:
    """Positive multiple of a rational polynomial with coprime integer coefficients."""
    scale = math.lcm(*(Fraction(c).denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    content = math.gcd(*ints)
    return tuple(c // content for c in ints)


def _derivative(poly: list) -> list:
    degree = len(poly) - 1
    return [c * (degree - i) for i, c in enumerate(poly[:-1])]


def _sturm_chain(monomial_coeffs) -> list[tuple[int, ...]]:
    """Sturm chain of the square-free part of a nonconstant polynomial.

    Members are scaled by positive constants to integer coefficients
    (highest degree first), which leaves every sign unchanged.  For a
    square-free p the sign changes V(x) along the chain, zeros skipped,
    satisfy V(a) - V(b) = #{distinct real roots in (a, b]} for a < b.
    """
    p = [Fraction(c) for c in reversed(monomial_coeffs)]
    gcd, rest = p, _derivative(p)
    while rest:
        gcd, rest = rest, _poly_divmod(gcd, rest)[1]
    chain = [_poly_divmod(p, gcd)[0]]
    chain.append(_derivative(chain[0]))
    while rem := _poly_divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    return [_primitive(member) for member in chain]


def _sign_changes(chain: list[tuple[int, ...]], x: int) -> int:
    signs = []
    for member in chain:
        value = 0
        for c in member:
            value = value * x + c
        if value:
            signs.append(value > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


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
    n_max = cps[-1]

    for j, q in enumerate(qs):
        bad = q.first_negative_on_range(n_max)
        if bad is not None:
            raise ValueError(
                f"time_polynomials[{j}]: q(n) = {q(bad)} < 0 at n = {bad}"
            )

    total = PhasePolynomial.zero()
    for char, q in zip(chars, qs):
        if char.order == 0:
            continue
        tower = build_tower(system, char)
        q_phase = tower_phase_polynomial(tower, pt)
        total = total + compose_time_polynomial(q_phase, q)
    return weighted_exponential_average(seq, total, cps)
