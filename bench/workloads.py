"""The three researcher workloads: seeded inputs, one pass of operations, checks.

Each workload is a closed loop of one client: the operations of a pass
run back to back in this process, each starting when the previous one
has returned.  README commands go through ``oscillab.cli.main`` in
process; what the CLI does not expose is called through the public
library.  Library functions are always looked up on their module at
call time, so a traced pass sees the traced wrappers.

Checks run after the timed passes and compare each output against an
independent route.  A check with ``gate=True`` guards a precision or
oracle bound and makes the run incorrect when it fails.  A check with
``gate=False`` is a verdict the lab is known to get wrong at some
commits (the README order example, ROADMAP item 2a); it only lowers the
pass share, so the defect stays visible without hiding every other
number.
"""

import cmath
import csv
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from oscillab import cli, oscillation, padic, polyphase, probabilistic, sequences, torus

GOLDEN = 0.618033988749895


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    gate: bool = True


@dataclass(frozen=True)
class Operation:
    """One request of the closed loop; ``command`` is set for CLI operations."""

    label: str
    call: object
    command: str | None = None


def _cli(label, argv):
    return Operation(label, lambda: cli.main([str(a) for a in argv]), argv[0])


def _read_csv(path):
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _within(name, value, reference, tol, gate=True):
    err = abs(value - reference)
    return Check(name, bool(err <= tol), f"|{value!r} - {reference!r}| = {err:.3e} (limit {tol:g})", gate)


class Workload:
    """Inputs drawn from a seed, the operations of one pass, and their checks."""

    def sup_found(self, out, results):
        """Top modulus of the pass's spectrum scan, the sup over its frequency grid."""
        return float(_read_csv(out / "spectrum" / "spectrum.csv")[0]["modulus"])

    def extras(self, out, results):
        """Reported values that are not checked."""
        return {}


class OrderSearch(Workload):
    """Sup search: the README order example, then lsk-check growth runs.

    Exact big-int seeding of ``phase_stream`` dominates each of the
    ~1,100 short streams (N <= 2*10^5) the refinement asks for, so this
    workload moves ROADMAP items 2a and 3.  It runs no sieve and no file
    I/O.
    """

    name = "order-search"
    ALPHA = 0.41421356237309515
    N = 200_000
    CHECKPOINTS = (50_000, 100_000, 200_000)
    D_MAX = 2
    LSK_NS = (1024, 4096, 16384, 65536)
    GRID = 16
    ORACLE_N = 4096

    def __init__(self, seed):
        rng = random.Random(seed)
        drawn = rng.sample(range(1, 2**31), 6)
        self.lsk_runs = ((1, tuple(drawn[:5])), (2, (drawn[5],)))

    def inputs(self):
        return {
            "estimate_order": {
                "generator": "polyphase", "alpha": self.ALPHA, "power": 2,
                "n": self.N, "d_max": self.D_MAX, "checkpoints": list(self.CHECKPOINTS),
            },
            "lsk_check": [
                {"d": d, "seeds": list(seeds), "n_list": list(self.LSK_NS), "grid": self.GRID}
                for d, seeds in self.lsk_runs
            ],
        }

    def operations(self, out):
        ops = [
            _cli("estimate-order", [
                "estimate-order", "--generator", "polyphase", "--alpha", repr(self.ALPHA),
                "--power", 2, "--n", self.N, "--d-max", self.D_MAX,
                "--checkpoints", ",".join(map(str, self.CHECKPOINTS)), "--out", out / "order",
            ])
        ]
        for d, seeds in self.lsk_runs:
            ops.append(_cli(f"lsk-check d={d}", [
                "lsk-check", "--seeds", ",".join(map(str, seeds)), "--d", d,
                "--n-list", ",".join(map(str, self.LSK_NS)), "--grid", self.GRID,
                "--out", out / f"lsk-d{d}",
            ]))
        return ops

    def _lsk_rows(self, out):
        rows = []
        for d, _ in self.lsk_runs:
            rows += _read_csv(out / f"lsk-d{d}" / "lsk.csv")
        return rows

    def sup_found(self, out, results):
        """Geometric mean of every sup reported, lsk sums divided by N to share the modulus scale.

        The sups span two orders of magnitude, so an arithmetic mean would
        follow the few N = 1024 lsk sups and the seed alone would move it
        by 9% (interquartile, ten seeds); the geometric mean weighs every
        sup alike and moves 5%.
        """
        report = json.loads((out / "order" / "oscillation.json").read_text(encoding="utf-8"))
        sups = [cp["sup"] for prof in report for cp in prof["checkpoints"]]
        sups += [float(row["sup"]) / int(row["n"]) for row in self._lsk_rows(out)]
        return statistics.geometric_mean(sups)

    def extras(self, out, results):
        slopes = {}
        for d, _ in self.lsk_runs:
            text = (out / f"lsk-d{d}" / "lsk_slopes.json").read_text(encoding="utf-8")
            slopes[f"d={d}"] = json.loads(text)
        return {"lsk_growth_slopes": slopes}

    def checks(self, out, results):
        verdict = json.loads((out / "order" / "order.json").read_text(encoding="utf-8"))
        order = verdict["classification"]
        checks = [
            Check("README estimate-order example classifies as order 1", order == 1,
                  f"classification {order!r}", gate=False)
        ]
        seq = sequences.polynomial_phase_sequence(self.ALPHA, 2, self.N)
        report = json.loads((out / "order" / "oscillation.json").read_text(encoding="utf-8"))
        for prof in report:
            d = prof["degree"]
            for cp in prof["checkpoints"]:
                n, sup = cp["n"], cp["sup"]
                grid_value, _ = oscillation.grid_sup_average(seq, d, self.GRID, n)
                checks.append(Check(
                    f"estimate-order d={d} n={n}: sup >= grid value", sup >= grid_value - 1e-12,
                    f"sup {sup!r}, grid {grid_value!r}",
                ))
                again = polyphase.weighted_exponential_average(
                    seq, polyphase.PhasePolynomial(cp["coeffs"]), [n]
                ).moduli[0]
                checks.append(_within(
                    f"estimate-order d={d} n={n}: average at returned coefficients", float(again), sup, 1e-10
                ))
        rows = self._lsk_rows(out)
        for d, seeds in self.lsk_runs:
            for seed in seeds:
                spec = probabilistic.RandomSequenceSpec(
                    probabilistic.Distribution("rademacher"), seed, max(self.LSK_NS)
                )
                weights = probabilistic.sample(spec)
                mine = {int(r["n"]): float(r["sup"]) for r in rows if int(r["seed"]) == seed and int(r["d"]) == d}
                for n in self.LSK_NS:
                    sup = mine.get(n, float("nan"))
                    grid_value, grid_coeffs = oscillation.grid_sup_average(weights, d, self.GRID, n)
                    checks.append(Check(
                        f"lsk d={d} seed={seed} n={n}: sup >= N * grid value",
                        sup >= grid_value * n - 1e-9 * n, f"sup {sup!r}, N * grid {grid_value * n!r}",
                    ))
                    if n != self.ORACLE_N:
                        continue
                    refined, coeffs = oscillation.refine_local(
                        weights, d, grid_coeffs, n, initial_step=1.0 / self.GRID
                    )
                    checks.append(_within(
                        f"lsk d={d} seed={seed} n={n}: sup / N matches the oscillation sup", sup / n, refined, 1e-10
                    ))
                    again = polyphase.weighted_exponential_average(
                        weights, polyphase.PhasePolynomial(coeffs), [n]
                    ).moduli[0]
                    checks.append(_within(
                        f"lsk d={d} seed={seed} n={n}: average at refined coefficients", float(again), refined, 1e-10
                    ))
        return checks


def _affine_power(a, b, t, mod):
    """(A, B) with T^t x = A x + B mod ``mod`` for T x = a x + b, by repeated squaring."""
    big_a, big_b = 1, 0
    pa, pb = a % mod, b % mod
    while t:
        if t & 1:
            big_a, big_b = (pa * big_a) % mod, (pa * big_b + pb) % mod
        pa, pb = (pa * pa) % mod, (pa * pb + pb) % mod
        t >>= 1
    return big_a, big_b


class LongAverage(Workload):
    """Calls at the top of the documented envelope (N = 10^7, degree 8).

    They exercise difference-table stepping, ``unit_values``, the sieve,
    the p-adic orbit and time streams, and peak memory: ROADMAP item 4's
    ground.  It runs no refinement.
    """

    name = "long-average"
    N = 10_000_000
    DEGREE = 8
    CHECKPOINTS = (100_000, 1_000_000, 10_000_000)
    SCAN_M = 4096
    PADIC = (3, 4, 1)
    PADIC_LEVEL = 12
    PREFIX = 4096
    MULTI_CHECKPOINTS = (PREFIX, 100_000, 1_000_000, 10_000_000)
    TOWERS = 100
    TOWER_N = 1000
    PHASE_SAMPLES = 200

    def __init__(self, seed):
        rng = random.Random(seed)
        self.coeffs = tuple(rng.random() for _ in range(self.DEGREE + 1))
        self.weights_seed = rng.randrange(1, 2**31)
        self.padic_x0 = rng.randrange(self.PADIC[0] ** self.PADIC_LEVEL)
        self.towers = []
        for _ in range(self.TOWERS):
            m = rng.randint(1, 4)
            freqs = [rng.randint(-3, 3) for _ in range(m)]
            if not any(freqs):
                freqs[-1] = 1
            self.towers.append((m, tuple(freqs), tuple(rng.random() for _ in range(m))))
        self.phase_indices = sorted(rng.sample(range(self.N), self.PHASE_SAMPLES))

    def inputs(self):
        return {
            "average": {"generator": "mobius", "n": self.N, "coeffs": list(self.coeffs),
                        "checkpoints": list(self.CHECKPOINTS)},
            "scan_spectrum": {"generator": "mobius", "n": self.N, "grid_size": self.SCAN_M},
            "multi_average": {"n": self.N, "weights_seed": self.weights_seed,
                              "checkpoints": list(self.MULTI_CHECKPOINTS)},
            "padic_weighted_average": {"p_a_b": list(self.PADIC), "level": self.PADIC_LEVEL,
                                       "x0": self.padic_x0, "time_polynomials": ["n^3", "n"],
                                       "n": self.N, "weights_seed": self.weights_seed,
                                       "checkpoints": list(self.MULTI_CHECKPOINTS)},
            "verify_factorization": {"towers": self.TOWERS, "n_max": self.TOWER_N, "alpha": GOLDEN},
            "phase_check_samples": self.PHASE_SAMPLES,
        }

    def _padic(self):
        weights = sequences.rademacher_sequence(self.weights_seed, self.N)
        system = padic.PadicAffineSystem.from_ints(*self.PADIC)
        qs = [torus.TimePolynomial.from_power(3), torus.TimePolynomial.from_power(1)]
        series = padic.padic_weighted_average(
            system, self.PADIC_LEVEL, self.padic_x0, qs, weights, self.MULTI_CHECKPOINTS
        )
        return tuple(complex(a) for a in series.averages)

    def _towers(self):
        deviations = []
        for m, freqs, x in self.towers:
            tower = torus.build_tower(torus.SkewShiftSystem(m, GOLDEN), torus.CharacterObservable(freqs))
            deviations.append(torus.verify_factorization(tower, x, self.TOWER_N))
        return tuple(deviations)

    def operations(self, out):
        multi = ",".join(map(str, self.MULTI_CHECKPOINTS))
        return [
            _cli("average", [
                "average", "--generator", "mobius", "--n", self.N,
                "--coeffs", ",".join(repr(c) for c in self.coeffs),
                "--checkpoints", ",".join(map(str, self.CHECKPOINTS)), "--out", out / "average",
            ]),
            _cli("scan-spectrum", [
                "scan-spectrum", "--generator", "mobius", "--n", self.N,
                "--grid-size", self.SCAN_M, "--out", out / "spectrum",
            ]),
            _cli("multi-average", [
                "multi-average", "--m", 2, "--alpha", repr(GOLDEN), "--x", "0.25,0.5",
                "--chars", "0,1", "--chars", "0,1", "--qs", "0,1", "--qs", "0,1,2", "--n", self.N,
                "--weights", json.dumps({"generator": "rademacher", "seed": self.weights_seed}),
                "--checkpoints", multi, "--out", out / "multi",
            ]),
            Operation("padic_weighted_average", self._padic),
            Operation("verify_factorization x100", self._towers),
        ]

    def checks(self, out, results):
        padic_averages, deviations = results
        checks = []
        poly = polyphase.PhasePolynomial(self.coeffs)
        stream = polyphase.phase_stream(poly, self.N)
        for i in self.phase_indices:
            err = abs(float(stream[i]) - polyphase.phase_at(poly, i))
            err = min(err, 1.0 - err)
            checks.append(Check(f"degree-8 phase_stream[{i}] vs phase_at", err <= 1e-9, f"{err:.3e}"))
        del stream
        for (m, freqs, _), dev in zip(self.towers, deviations):
            checks.append(Check(f"tower m={m} k={freqs}: deviation <= 1e-9", dev <= 1e-9, f"{dev:.3e}"))

        weights = sequences.rademacher_sequence(self.weights_seed, self.PREFIX).values
        p, a, b = self.PADIC
        mod = p**self.PADIC_LEVEL
        total = 0j
        for n in range(self.PREFIX):
            residue = 0
            for t in (n**3, n):
                big_a, big_b = _affine_power(a, b, t, mod)
                residue += big_a * self.padic_x0 + big_b
            total += int(weights[n]) * cmath.exp(2j * math.pi * ((residue % mod) / mod))
        checks.append(_within(
            f"p-adic average at N={self.PREFIX} vs term-by-term orbit powers",
            padic_averages[0], total / self.PREFIX, 1e-10,
        ))

        row = next(r for r in _read_csv(out / "multi" / "multi_average.csv") if int(r["n"]) == self.PREFIX)
        alpha = Fraction(GOLDEN)
        x1, x2 = Fraction(0.25), Fraction(0.5)
        total = 0j
        for n in range(self.PREFIX):
            phase = Fraction(0)
            for t in (n, n * n):
                phase += x2 + t * x1 + math.comb(t, 2) * alpha
            total += int(weights[n]) * cmath.exp(2j * math.pi * float(phase % 1))
        checks.append(_within(
            f"multi-average at N={self.PREFIX} vs exact skew-shift orbit",
            complex(float(row["re"]), float(row["im"])), total / self.PREFIX, 1e-10,
        ))

        top = _read_csv(out / "spectrum" / "spectrum.csv")[0]
        freq = Fraction(top["frequency"])
        direct = polyphase.weighted_exponential_average(
            sequences.mobius_sequence(self.N), polyphase.PhasePolynomial([0, freq]), [self.N]
        ).moduli[0]
        checks.append(_within(
            f"scan-spectrum top modulus at {top['frequency']} vs direct average",
            float(top["modulus"]), float(direct), 1e-10,
        ))
        return checks


class FileRoundtrip(Workload):
    """Text I/O: generate a Moebius file, then average and scan it.

    Writes and reads sit side by side, so a change that speeds one and
    slows the other shows here; other layers stay under a tenth of the
    time.  The inputs are the README's and do not depend on the seed.
    """

    name = "file-roundtrip"
    N = 1_000_000
    COEFFS = "0,0.1,0.3"
    SCAN_M = 1024

    def __init__(self, seed):
        """The inputs are fixed, so ``seed`` changes nothing here."""

    def inputs(self):
        return {"generate": {"generator": "mobius", "n": self.N},
                "average": {"generator": "file", "n": self.N, "coeffs": self.COEFFS},
                "scan_spectrum": {"generator": "file", "n": self.N, "grid_size": self.SCAN_M}}

    def operations(self, out):
        path = out / "sequence" / "sequence.txt"
        return [
            _cli("generate", ["generate", "--generator", "mobius", "--n", self.N, "--out", out / "sequence"]),
            _cli("average", [
                "average", "--generator", "file", "--path", path, "--n", self.N,
                "--coeffs", self.COEFFS, "--out", out / "average",
            ]),
            _cli("scan-spectrum", [
                "scan-spectrum", "--generator", "file", "--path", path, "--n", self.N,
                "--grid-size", self.SCAN_M, "--out", out / "spectrum",
            ]),
        ]

    def checks(self, out, results):
        direct = sequences.mobius_sequence(self.N)
        read = sequences.read_sequence(out / "sequence" / "sequence.txt")
        same = read.values.shape == (self.N,) and np.array_equal(
            read.values.view(np.uint64), direct.complex_values.view(np.uint64)
        )
        checks = [Check("file round trip is bit-exact", bool(same), f"{read.values.shape[0]} values")]
        norm = float(sequences.cesaro_l1_norm(read, [self.N])[0])
        checks.append(_within("Cesaro l1 norm of the file", norm, 0.6079, 0.001))

        rows = _read_csv(out / "average" / "average.csv")
        series = polyphase.weighted_exponential_average(
            direct, polyphase.PhasePolynomial([float(c) for c in self.COEFFS.split(",")]),
            [int(r["n"]) for r in rows],
        )
        for row, avg in zip(rows, series.averages):
            checks.append(_within(
                f"file average at N={row['n']} vs in-memory weights",
                complex(float(row["re"]), float(row["im"])), complex(avg), 1e-12,
            ))
        top = _read_csv(out / "spectrum" / "spectrum.csv")[0]
        freq, modulus = polyphase.fourier_bohr_scan(direct, self.SCAN_M, self.N)[0]
        checks.append(Check(
            "file scan-spectrum top peak vs in-memory weights",
            float(top["frequency"]) == freq and abs(float(top["modulus"]) - modulus) <= 1e-12,
            f"file ({top['frequency']}, {top['modulus']}), direct ({freq!r}, {modulus!r})",
        ))
        return checks


WORKLOADS = {w.name: w for w in (OrderSearch, LongAverage, FileRoundtrip)}
