"""Empirical oscillation-order estimation over the coefficient torus.

The membership question behind these tools asks whether the partial
averages (1/N) sum c_n e(P(n)) vanish for every real polynomial P of
degree <= d.  At a desk scale the sup over all of R_d[z] is approximated
by a finite grid on the coefficient torus plus a derivative-free local
polish, and the decay of the resulting estimates across checkpoints is
classified with documented (configurable) thresholds.  The verdicts are
heuristics, not certificates: finite data cannot prove decay, and an
off-grid resonance narrower than the grid pitch is invisible to any
value-based search.

The grid stage is exact and cheap: on the grid {0, 1/G, ..., (G-1)/G}
the phase of index n depends only on n mod G, so the sequence folds
into G residue buckets and each grid point costs G multiply-adds
regardless of N.

The constant coefficient only rotates the average, so it is pinned to 0
and excluded from the search dimensions (the reported argmax vector
still carries the t_0 slot).
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyphase import (
    PhasePolynomial,
    _as_complex_values,
    _validated_checkpoints,
    phase_stream,
    unit_values,
)

GRID_BUDGET = 10_000_000

# Grid evaluation proceeds in bounded row blocks to cap peak memory.
_GRID_CHUNK_ELEMENTS = 2_000_000

#: Default grid pitch per degree: G^(d+1) work grows fast, so degree 3
#: drops to a coarser grid.
DEFAULT_GRID = {1: 16, 2: 16, 3: 8}

DECAY_SLOPE = -0.2
DECAY_LEVEL = 0.1
NONDECAY_LEVEL = 0.5


class GridBudgetError(RuntimeError):
    """Requested grid exceeds the evaluation budget."""


def _weights_prefix(seq, n_terms: int) -> np.ndarray:
    values = _as_complex_values(seq)
    if n_terms < 1 or n_terms > len(values):
        raise ValueError("n_terms: must be in [1, sequence length]")
    return values[:n_terms]


def grid_sup_average(
    seq, degree: int, grid_per_dim: int, n_terms: int
) -> tuple[float, tuple[float, ...]]:
    """Max of |(1/N) sum c_n e(P(n))| over the coefficient grid.

    P ranges over polynomials with t_j in {0, 1/G, ..., (G-1)/G} for
    j = 1..degree and t_0 = 0.  Returns (sup modulus, argmax coefficient
    vector including the t_0 slot).  Ties break to the lexicographically
    smallest grid index; evaluation order is fixed, so the result is
    deterministic.
    """
    if degree < 1:
        raise ValueError("degree: must be >= 1")
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim: must be >= 2")
    g = int(grid_per_dim)
    cost = g ** (degree + 1)
    if cost > GRID_BUDGET:
        raise GridBudgetError(
            f"grid budget exceeded: G^(d+1) = {cost} > {GRID_BUDGET}"
        )
    values = _weights_prefix(seq, n_terms)

    # Fold the sequence into residue buckets mod G: the grid phase of
    # index n is determined by n mod G.
    padded_len = -(-n_terms // g) * g
    padded = np.zeros(padded_len, dtype=np.complex128)
    padded[:n_terms] = values
    buckets = padded.reshape(-1, g).sum(axis=0) / n_terms

    # rho^j mod G for j = 1..degree.
    rho = np.arange(g, dtype=np.int64)
    powers = np.empty((degree, g), dtype=np.int64)
    powers[0] = rho
    for j in range(1, degree):
        powers[j] = (powers[j - 1] * rho) % g
    roots = np.exp((2j * np.pi / g) * np.arange(g))

    n_points = g**degree
    chunk = max(1, _GRID_CHUNK_ELEMENTS // g)
    best_sq = -1.0
    best_index = -1
    for start in range(0, n_points, chunk):
        stop = min(start + chunk, n_points)
        flat = np.arange(start, stop, dtype=np.int64)
        # Lexicographic digits (g_1 most significant).
        digits = np.empty((stop - start, degree), dtype=np.int64)
        rem = flat
        for j in range(degree - 1, -1, -1):
            digits[:, j] = rem % g
            rem = rem // g
        table = (digits @ powers) % g
        averages = roots[table] @ buckets
        sq = averages.real**2 + averages.imag**2
        local = int(np.argmax(sq))
        if sq[local] > best_sq:
            best_sq = float(sq[local])
            best_index = start + local
    digits = []
    rem = best_index
    for _ in range(degree):
        digits.append(rem % g)
        rem //= g
    digits.reverse()
    coeffs = (0.0,) + tuple(dig / g for dig in digits)
    return math.sqrt(max(best_sq, 0.0)), coeffs


def _weighted_terms(values: np.ndarray, coefficients) -> np.ndarray:
    """Terms c_n * e(P(n)) for n < len(values), P given by its coefficients."""
    return values * unit_values(phase_stream(PhasePolynomial(coefficients), len(values)))


def _shift_factor(shift: Fraction, index: int, n_terms: int) -> np.ndarray:
    """Factors e(shift * n^index) for n < n_terms."""
    return unit_values(phase_stream(PhasePolynomial.monomial(shift, index), n_terms))


def refine_local(
    seq,
    degree: int,
    start,
    n_terms: int,
    initial_step: float = 1.0 / 16,
    min_step: float = 1e-5,
    max_evals: int = 10_000,
) -> tuple[float, tuple[float, ...]]:
    """Coordinate descent polish of a coefficient vector, wrapped mod 1.

    Sweeps coordinates 1..degree with a shrinking step (halved after a
    sweep with no improvement, stopping below ``min_step``).  The t_0
    slot is left untouched since it cannot change the modulus.  Never
    returns a value below the start value and scores at most
    ``max_evals`` candidates, the start included.

    The terms w_n = c_n e(P(n)) at the current point are kept.  Moving
    t_i by the exact shift s multiplies them by f_n = e(s n^i), so both
    moves of a step are scored from one factor: +step as |sum w f| / N
    and -step as |sum w conj(f)| / N.  Where the float candidates are not
    exact negatives of each other (a step that rounds, as on a G = 10
    grid), -step gets a factor for its own exact shift.  A winning score is confirmed by
    re-streaming the terms at the candidate, and the move is taken only
    if that exact value beats the best, so the returned sup is the exact
    objective at the returned coefficients.
    """
    if degree < 1:
        raise ValueError("degree: must be >= 1")
    coeffs = [float(c) % 1.0 for c in start]
    if len(coeffs) != degree + 1:
        raise ValueError("start: expected degree + 1 coefficients")
    values = _weights_prefix(seq, n_terms)

    base = _weighted_terms(values, coeffs)
    best = abs(base.sum()) / n_terms
    evals = 1
    step = float(initial_step)
    while step >= min_step and evals < max_evals:
        improved = False
        for i in range(1, degree + 1):
            factor = plus_shift = None
            for plus in (True, False):
                if evals >= max_evals:
                    break
                candidate = list(coeffs)
                candidate[i] = (candidate[i] + (step if plus else -step)) % 1.0
                # The exact shift to this candidate; c - step rounds apart
                # from c + step, so -step reuses the factor only when the
                # two shifts are exact negatives mod 1.
                shift = Fraction(candidate[i]) - Fraction(coeffs[i])
                if factor is not None and (shift + plus_shift) % 1 == 0:
                    total = np.vdot(factor, base)
                else:
                    factor = None  # free the old factor before streaming
                    factor = _shift_factor(shift, i, n_terms)
                    plus_shift = shift
                    total = np.dot(base, factor)
                evals += 1
                if abs(total) / n_terms <= best:
                    continue
                # Hold one N-length array while re-streaming.
                factor = base = None
                base = _weighted_terms(values, candidate)
                value = abs(base.sum()) / n_terms
                if value > best:
                    best = value
                    coeffs = candidate
                    improved = True
                    break
                base = _weighted_terms(values, coeffs)
        if not improved:
            step *= 0.5
    return best, tuple(coeffs)


@dataclass(frozen=True)
class CheckpointEstimate:
    n: int
    sup: float
    coefficients: tuple[float, ...]
    grid_sup: float


@dataclass(frozen=True)
class DegreeProfile:
    degree: int
    estimates: tuple[CheckpointEstimate, ...]
    slope: float
    verdict: str
    grid_per_dim: int


@dataclass(frozen=True)
class OscillationReport:
    """Per-degree sup estimates with decay slopes and verdicts."""

    degrees: tuple[DegreeProfile, ...]
    weight_provenance: str = ""

    def profile(self, degree: int) -> DegreeProfile:
        for item in self.degrees:
            if item.degree == degree:
                return item
        raise KeyError(f"no profile for degree {degree}")


def report_to_json(report: OscillationReport) -> str:
    """Serialize per-degree records to the documented JSON schema."""
    payload = [
        {
            "degree": prof.degree,
            "checkpoints": [
                {"n": est.n, "sup": est.sup, "coeffs": list(est.coefficients)}
                for est in prof.estimates
            ],
            "slope": prof.slope,
            "verdict": prof.verdict,
        }
        for prof in report.degrees
    ]
    return json.dumps(payload, indent=2) + "\n"


def growth_exponent(series) -> float:
    """Least-squares slope of log value against log N.

    Needs at least three points with positive values.
    """
    points = [(int(n), float(v)) for n, v in series]
    if len(points) < 3:
        raise ValueError("series: at least 3 points required")
    if any(v <= 0 for _, v in points):
        raise ValueError("series: values must be positive")
    xs = np.log([n for n, _ in points])
    ys = np.log([v for _, v in points])
    xs = xs - xs.mean()
    return float((xs * (ys - ys.mean())).sum() / (xs * xs).sum())


def estimate_oscillation_profile(
    seq,
    d_max: int,
    checkpoints,
    budget: int = GRID_BUDGET,
    grid_per_dim: int | None = None,
    slope_threshold: float = DECAY_SLOPE,
    decay_level: float = DECAY_LEVEL,
    nondecay_level: float = NONDECAY_LEVEL,
) -> OscillationReport:
    """Grid + refine sup estimates for every degree d <= d_max.

    The decay slope is the least-squares slope of log sup vs log N over
    the trailing half of the checkpoints (at least 3).  Verdict policy:
    decaying when slope <= slope_threshold and the final sup is at most
    decay_level; non-decaying when the final sup is at least
    nondecay_level; inconclusive otherwise.  Thresholds are heuristics
    and are exposed as parameters.
    """
    if d_max < 1:
        raise ValueError("d_max: must be >= 1")
    if grid_per_dim is None and d_max > 3:
        raise ValueError("d_max: > 3 requires an explicit grid_per_dim")
    cps = _validated_checkpoints(checkpoints)
    if len(cps) < 3:
        raise ValueError("checkpoints: at least 3 required for a decay slope")

    profiles = []
    for degree in range(1, d_max + 1):
        if grid_per_dim is not None:
            g = int(grid_per_dim)
        else:
            g = DEFAULT_GRID.get(degree, 8)
        while g ** (degree + 1) > budget and g > 2:
            g //= 2
        estimates = []
        for n in cps:
            grid_value, grid_coeffs = grid_sup_average(seq, degree, g, n)
            refined, coeffs = refine_local(
                seq, degree, grid_coeffs, n, initial_step=1.0 / g
            )
            estimates.append(
                CheckpointEstimate(n, refined, coeffs, grid_value)
            )
        window = max(3, (len(cps) + 1) // 2)
        tail = estimates[-window:]
        slope = growth_exponent([(e.n, max(e.sup, 1e-300)) for e in tail])
        final = estimates[-1].sup
        if final >= nondecay_level:
            verdict = "non-decaying"
        elif slope <= slope_threshold and final <= decay_level:
            verdict = "decaying"
        else:
            verdict = "inconclusive"
        profiles.append(
            DegreeProfile(degree, tuple(estimates), slope, verdict, g)
        )
    provenance = getattr(seq, "provenance", "array")
    return OscillationReport(tuple(profiles), provenance)


def classify_exact_order(report: OscillationReport):
    """Read an exact oscillation order off a profile report.

    Returns the smallest d with a non-decaying verdict minus 1 when all
    lower degrees decay, the string ">= d_max+1" when every degree
    decays, "not oscillating of order 1" when degree 1 already fails to
    decay, and "inconclusive" as soon as an inconclusive verdict blocks
    the reading.
    """
    degrees = sorted(report.degrees, key=lambda p: p.degree)
    if not degrees:
        raise ValueError("report: no degree profiles")
    for prof in degrees:
        if prof.verdict == "inconclusive":
            return "inconclusive"
        if prof.verdict == "non-decaying":
            if prof.degree == 1:
                return "not oscillating of order 1"
            return prof.degree - 1
    return f">= {degrees[-1].degree + 1}"
