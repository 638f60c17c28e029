"""Empirical oscillation-order estimation over the coefficient torus.

The membership question behind these tools asks whether the partial
averages (1/N) sum c_n e(P(n)) vanish for every real polynomial P of
degree <= d.  At a desk scale the sup over all of R_d[z] is approximated
by a finite grid on the coefficient torus plus a derivative-free local
polish, and the decay of the resulting estimates across checkpoints is
classified with the fixed thresholds ``DECAY_SLOPE``, ``DECAY_LEVEL``
and ``NONDECAY_LEVEL``.  The verdicts are heuristics, not certificates:
finite data cannot prove decay, and an off-grid resonance narrower than
the grid pitch is invisible to any value-based search.

The grid stage is exact and cheap: on the grid {0, 1/G, ..., (G-1)/G}
the phase of index n depends only on n mod G, so the weights are summed
onto their G residue classes (``polyphase._class_sums``, the fold of the
spectrum scan and of p-adic averages) and each grid point costs G
multiply-adds regardless of N.

Every pitch is a power of two, so the refinement steps on a dyadic
lattice no finer than 2^-16, where t_i +/- step is an exact float and
e(P(n)) repeats with period q <= 2^16, the lcm of the denominators of
t_1..t_d.  So its N-term factors e(step n^i) and units e(P(n)) come from
``polyphase.unit_stream``, which reads one period off the stream's
fixed-point words and repeats it, bit for bit the full stream.

The constant coefficient only rotates the average, so it is pinned to 0
and excluded from the search dimensions (the reported argmax vector
still carries the t_0 slot).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .polyphase import (
    PhasePolynomial,
    _class_sums,
    _integer,
    _validated_checkpoints,
    _weights,
    unit_stream,
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

#: Refinement stops once its step falls below this pitch,
MIN_STEP = 2.0**-16
#: or once it has scored this many candidates, the start included.
MAX_EVALS = 10_000


class GridBudgetError(RuntimeError):
    """Requested grid exceeds the evaluation budget."""


def _weights_prefix(seq, n_terms: int) -> np.ndarray:
    """The first ``n_terms`` weights in their own dtype; n_terms not an integer in [1, length] raises a ValueError."""
    values, n_terms = _weights(seq), _integer(n_terms, "n_terms")
    if n_terms < 1 or n_terms > len(values):
        raise ValueError("n_terms: must be in [1, sequence length]")
    return values[:n_terms]


def _checked_grid(degree: int, grid_per_dim) -> int:
    """The pitch G as an int, once degree >= 1, G = 2^k >= 2 and G^(d+1) <= ``GRID_BUDGET`` hold."""
    if degree < 1:
        raise ValueError("degree: must be >= 1")
    g = _integer(grid_per_dim, "grid_per_dim")
    if g < 2 or g & (g - 1):
        raise ValueError(f"grid_per_dim: must be a power of two >= 2, got {g}")
    cost = g ** (degree + 1)
    if cost > GRID_BUDGET:
        raise GridBudgetError(f"grid budget exceeded: G^(d+1) = {cost} > {GRID_BUDGET}")
    return g


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
    g = _checked_grid(degree, grid_per_dim)
    values = _weights_prefix(seq, n_terms)
    n_terms = len(values)

    # The grid phase of index n is determined by n mod G; the weights fold as they are, int8 in int64.
    buckets = _class_sums(values, 0, n_terms, 0, g, g).astype(np.complex128) / n_terms

    # rho^j mod G for j = 1..degree.
    rho = np.arange(g, dtype=np.int64)
    powers = np.empty((degree, g), dtype=np.int64)
    powers[0] = rho
    for j in range(1, degree):
        powers[j] = (powers[j - 1] * rho) % g
    roots = np.exp((2j * np.pi / g) * np.arange(g))

    # Grid points in lexicographic order, g_1 the most significant digit.
    shape = (g,) * degree
    n_points = g**degree
    chunk = max(1, _GRID_CHUNK_ELEMENTS // g)
    best_sq = -1.0
    best_index = -1
    for start in range(0, n_points, chunk):
        flat = np.arange(start, min(start + chunk, n_points), dtype=np.int64)
        digits = np.stack(np.unravel_index(flat, shape), axis=1)
        table = (digits @ powers) % g
        averages = roots[table] @ buckets
        sq = averages.real**2 + averages.imag**2
        local = int(np.argmax(sq))
        if sq[local] > best_sq:
            best_sq = float(sq[local])
            best_index = start + local
    coeffs = (0.0,) + tuple(int(dig) / g for dig in np.unravel_index(best_index, shape))
    return math.sqrt(max(best_sq, 0.0)), coeffs


def refine_local(
    seq,
    degree: int,
    start,
    n_terms: int,
    initial_step: float = 1.0 / 16,
) -> tuple[float, tuple[float, ...]]:
    """Coordinate descent polish of a coefficient vector, wrapped mod 1.

    Sweeps coordinates 1..degree with a shrinking step (halved after a
    sweep with no improvement, stopping below ``MIN_STEP``).  The t_0
    slot is left untouched since it cannot change the modulus.  Never
    returns a value below the start value and scores at most
    ``MAX_EVALS`` candidates, the start included.

    ``initial_step`` must be 2^-k with k >= 1 and t_1..t_d multiples of
    it (a grid argmax of pitch 1/G = 2^-k is); anything else raises a
    ValueError.  On that lattice t_i +/- step is an exact float, so the
    terms w_n = c_n e(P(n)) at the current point are kept and one factor
    f_n = e(step n^i) per coordinate scores both moves: +step as
    |sum w f| / N and -step as |sum w conj(f)| / N.  A winning score is
    confirmed by re-streaming the terms at the candidate, and the move is
    taken only if that exact value beats the best, so the returned sup is
    the exact objective at the returned coefficients.

    Factors and units come from ``polyphase.unit_stream``, which reads one
    period off the stream's words and repeats it: every coordinate and
    step has a denominator of at most 2^16 once the step is 2^-16 or
    more, so at N = 2 * 10^5 a factor is at most 65,536 streamed terms.
    """
    if degree < 1:
        raise ValueError("degree: must be >= 1")
    coeffs = [float(c) % 1.0 for c in start]
    if len(coeffs) != degree + 1:
        raise ValueError("start: expected degree + 1 coefficients")
    step = float(initial_step)
    if math.frexp(step)[0] != 0.5 or step > 0.5:
        raise ValueError(f"initial_step: must be 2^-k with k >= 1, got {initial_step!r}")
    if not all((c / step).is_integer() for c in coeffs[1:]):
        raise ValueError(f"start: t_1..t_d must be multiples of initial_step {step!r}")
    values = np.asarray(_weights_prefix(seq, n_terms), dtype=np.complex128)
    n_terms = len(values)

    base = values * unit_stream(PhasePolynomial(coeffs), n_terms)
    best = abs(base.sum()) / n_terms
    evals = 1
    while step >= MIN_STEP and evals < MAX_EVALS:
        improved = False
        for i in range(1, degree + 1):
            factor = None
            for sign in (1, -1):
                if evals >= MAX_EVALS:
                    break
                candidate = list(coeffs)
                candidate[i] = (candidate[i] + sign * step) % 1.0
                if factor is None:
                    factor = unit_stream(PhasePolynomial.monomial(step, i), n_terms)
                total = np.dot(base, factor) if sign > 0 else np.vdot(factor, base)
                evals += 1
                if abs(total) / n_terms <= best:
                    continue
                # Hold one N-length array while re-streaming.
                factor = base = None
                base = values * unit_stream(PhasePolynomial(candidate), n_terms)
                value = abs(base.sum()) / n_terms
                if value > best:
                    best = value
                    coeffs = candidate
                    improved = True
                    break
                base = values * unit_stream(PhasePolynomial(coeffs), n_terms)
        if not improved:
            step *= 0.5
    return best, tuple(coeffs)


@dataclass(frozen=True)
class CheckpointEstimate:
    n: int
    sup: float
    coefficients: tuple[float, ...]
    grid_sup: float


def sup_search(seq, degree: int, n: int, grid: int) -> CheckpointEstimate:
    """The one estimate of sup |(1/n) sum_{k<n} c_k e(P(k))| over P of degree <= ``degree``.

    The weight prefix is made complex once; ``grid_sup_average`` scans the
    pitch-1/grid grid and ``refine_local`` polishes its argmax from a step of 1/grid.
    A ``grid`` that is no power of two raises a ValueError before the scan.
    """
    values = np.asarray(_weights_prefix(seq, n), dtype=np.complex128)
    n = len(values)
    grid_value, start = grid_sup_average(values, degree, grid, n)
    sup, coeffs = refine_local(values, degree, start, n, initial_step=1.0 / grid)
    return CheckpointEstimate(n, sup, coeffs, grid_value)


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
            "grid_per_dim": prof.grid_per_dim,
            "checkpoints": [
                {
                    "n": est.n,
                    "sup": est.sup,
                    "coeffs": list(est.coefficients),
                    "grid_sup": est.grid_sup,
                }
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
    seq, d_max: int, checkpoints, grid_per_dim: int | None = None
) -> OscillationReport:
    """``sup_search`` estimates at every checkpoint for every degree d <= d_max.

    The pitch is ``grid_per_dim``, else ``DEFAULT_GRID[d]``, at every
    degree; checkpoints past the sequence, a pitch that is no power of two
    and one with G^(d+1) above ``GRID_BUDGET`` (``GridBudgetError``) are
    refused before any search.
    The decay slope is the least-squares slope of log sup vs log N over
    the trailing half of the checkpoints (at least 3).  Verdict policy:
    decaying when slope <= ``DECAY_SLOPE`` and the final sup is at most
    ``DECAY_LEVEL``; non-decaying when the final sup is at least
    ``NONDECAY_LEVEL``; inconclusive otherwise.  The thresholds are
    heuristics.
    """
    if d_max < 1:
        raise ValueError("d_max: must be >= 1")
    if grid_per_dim is None and d_max > 3:
        raise ValueError("d_max: > 3 requires an explicit grid_per_dim")
    cps = _validated_checkpoints(checkpoints, len(_weights(seq)))
    if len(cps) < 3:
        raise ValueError("checkpoints: at least 3 required for a decay slope")
    grids = {
        d: _checked_grid(d, DEFAULT_GRID[d] if grid_per_dim is None else grid_per_dim)
        for d in range(1, d_max + 1)
    }

    profiles = []
    for degree, g in grids.items():
        estimates = [sup_search(seq, degree, n, g) for n in cps]
        window = max(3, (len(cps) + 1) // 2)
        tail = estimates[-window:]
        slope = growth_exponent([(e.n, max(e.sup, 1e-300)) for e in tail])
        final = estimates[-1].sup
        if final >= NONDECAY_LEVEL:
            verdict = "non-decaying"
        elif slope <= DECAY_SLOPE and final <= DECAY_LEVEL:
            verdict = "decaying"
        else:
            verdict = "inconclusive"
        profiles.append(DegreeProfile(degree, tuple(estimates), slope, verdict, g))
    return OscillationReport(tuple(profiles))


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
