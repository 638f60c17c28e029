"""oscillab: a desk-scale laboratory for oscillating weight sequences.

Generates arithmetic, polynomial-phase and random weight sequences,
computes weighted exponential and multiple ergodic averages over
skew-shift torus systems and p-adic affine maps, estimates oscillation
orders by sup-maximization over coefficient tori, and checks the
sqrt(N log N) growth law of random phase-sum suprema.
"""

__version__ = "0.1.0"

from .oscillation import (
    GridBudgetError,
    OscillationReport,
    classify_exact_order,
    estimate_oscillation_profile,
    grid_sup_average,
    refine_local,
)
from .padic import (
    PadicAffineSystem,
    affine_minimality_check,
    orbit_residue_census,
    padic_weighted_average,
)
from .polyphase import (
    ErgodicAverageSeries,
    PhasePolynomial,
    binomial_phase_polynomial,
    compose_time_polynomial,
    fourier_bohr_scan,
    geometric_checkpoints,
    phase_at,
    phase_stream,
    weighted_exponential_average,
)
from .probabilistic import (
    Distribution,
    RandomSequenceSpec,
    growth_exponent,
    lsk_empirical_sup,
    sample,
    subnormality_margin,
)
from .sequences import (
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
from .torus import (
    CharacterObservable,
    QuasiEigenTower,
    SkewShiftSystem,
    TimePolynomial,
    build_tower,
    multiple_ergodic_average,
    orbit_point,
    tower_phase_polynomial,
    verify_factorization,
)
