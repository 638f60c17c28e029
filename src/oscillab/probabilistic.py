"""Subnormality margins and empirical sup growth of random phase sums.

A real random variable xi is subnormal when E e^(lambda xi) <= e^(lambda^2/2)
for every real lambda; symmetric +-1 variables are the canonical example
and the standard Gaussian is the equality case.  For independent
subnormal weights the sup over degree-d phase polynomials of the
unnormalized sum |sum xi_n e(P(n))| grows like sqrt(N log N) almost
surely, so on a log-log plot the empirical sup should run with slope
just above 1/2 and stay below a fixed multiple of sqrt(N log N).

``lsk_empirical_sup`` is N times the oscillation module's one sup
search, ``sup_search``, at the pitch asked for, which keeps the two
modules' estimates consistent to the bit and makes the cross-module
oracle a strict identity check.  The absolute constant in the growth
law is not pinned down; tests use the documented headroom factor 5.
"""

from dataclasses import dataclass

import numpy as np

# growth_exponent lives in oscillation, which fits decay slopes with it too;
# it stays importable from here.
from .oscillation import _checked_grid, growth_exponent, sup_search
from .polyphase import _integer, _weights
from .sequences import ComplexSequence, _counter_blocks, rademacher_sequence

RADEMACHER = "rademacher"
SCALED_RADEMACHER = "scaled-rademacher"
STANDARD_GAUSSIAN = "standard-gaussian"

_KINDS = (RADEMACHER, SCALED_RADEMACHER, STANDARD_GAUSSIAN)


@dataclass(frozen=True)
class Distribution:
    """Distribution tag with closed-form moment generating function."""

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind: unsupported distribution {self.kind!r}")

    def log_mgf(self, lam: np.ndarray) -> np.ndarray:
        """log E e^(lambda xi), vectorized over lambda."""
        lam = np.asarray(lam, dtype=np.float64)
        if self.kind == STANDARD_GAUSSIAN:
            return lam * lam / 2.0
        c = self.scale if self.kind == SCALED_RADEMACHER else 1.0
        # log cosh(c lam), overflow-safe.
        z = c * lam
        return np.logaddexp(z, -z) - np.log(2.0)


@dataclass(frozen=True)
class RandomSequenceSpec:
    """Sampling request: distribution, seed, length.

    Scaled +-c weights are admitted only for |c| <= 1, the subnormal
    range; the margin computation itself accepts any scale.
    """

    distribution: Distribution
    seed: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length: must be >= 1")
        if (
            self.distribution.kind == SCALED_RADEMACHER
            and abs(self.distribution.scale) > 1.0
        ):
            raise ValueError(
                "distribution: scaled-rademacher requires |scale| <= 1"
            )


def sample(spec: RandomSequenceSpec) -> ComplexSequence:
    """Deterministic realization of the spec (counter-based per entry).

    Gaussian entry n is Box-Muller on the uniforms at counters 2n and
    2n + 1, sqrt(-2 ln u_2n) cos(2 pi u_2n+1), drawn block by block; the
    uniforms lie in [2^-54, 1), so the logarithm is finite.
    """
    kind = spec.distribution.kind
    if kind == RADEMACHER:
        return rademacher_sequence(spec.seed, spec.length)
    if kind == SCALED_RADEMACHER:
        base = rademacher_sequence(spec.seed, spec.length)
        values = base.values.astype(np.float64) * spec.distribution.scale
        return ComplexSequence(
            values,
            f"scaled-rademacher(c={spec.distribution.scale}, seed={spec.seed}, n={spec.length})",
        )
    values = np.empty(spec.length, dtype=np.float64)
    for start, stop, words in _counter_blocks(spec.seed, spec.length, 2):
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        values[start:stop] = np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
    return ComplexSequence(values, f"standard-gaussian(seed={spec.seed}, n={spec.length})")


def subnormality_margin(distribution: Distribution, lambda_grid) -> list[tuple[float, float]]:
    """margin(lambda) = lambda^2/2 - log E e^(lambda xi) on the grid.

    Nonnegative margins on the grid certify subnormality there; the
    Gaussian sits at margin identically zero.
    """
    lams = np.asarray(list(lambda_grid), dtype=np.float64)
    margins = lams * lams / 2.0 - distribution.log_mgf(lams)
    if distribution.kind == STANDARD_GAUSSIAN:
        margins = np.zeros_like(margins)
    return [(float(l), float(m)) for l, m in zip(lams, margins)]


def lsk_empirical_sup(
    spec,
    degree: int,
    n_list,
    grid_per_dim: int,
) -> list[tuple[int, float]]:
    """``sup_search`` max of |sum_{n<N} xi_n e(P(n))| for each N.

    Note the quantity is the unnormalized sum: it is N times the
    oscillation module's sup estimate on the same grid and weights.
    ``spec`` may be a RandomSequenceSpec or any sequence-like object;
    an N past its length is refused before any search.
    """
    ns = sorted(_integer(n, "n_list") for n in n_list)
    if not ns or ns[0] < 1:
        raise ValueError("n_list: nonempty, entries >= 1")
    sampled = isinstance(spec, RandomSequenceSpec)
    length = spec.length if sampled else len(_weights(spec))
    if length < ns[-1]:
        raise ValueError(f"n_list: {ns[-1]} exceeds sequence length {length}")
    _checked_grid(degree, grid_per_dim)
    seq = sample(spec) if sampled else spec
    return [(n, sup_search(seq, degree, n, grid_per_dim).sup * n) for n in ns]
