"""Command-line front end: experiment configs, orchestration, report emission.

One subcommand per capability; every run validates its parameter block
before any computation starts, writes its reports plus a manifest
(inputs, versions, wall time) into the output directory, and is
deterministic given (config, seed).  Exit codes: 0 success, 1 validation
error, 2 runtime error; validation messages name the offending field.

Configuration is JSON (--config) with command-line flags overriding
config fields.  Reports are CSV/JSON per the module interfaces plus a
minimal log-log SVG decay plot.
"""

import argparse
import ctypes
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .oscillation import (
    GridBudgetError,
    OscillationReport,
    _checked_grid,
    classify_exact_order,
    estimate_oscillation_profile,
    refine_local,
    report_to_json,
)
from .padic import PadicAffineSystem, affine_minimality_check, orbit_residue_census
from .padic import _orbit_blocks as _padic_orbit_blocks
from .polyphase import (
    ErgodicAverageSeries,
    PhasePolynomial,
    _integer,
    _spectrum,
    _validated_checkpoints,
    geometric_checkpoints,
    weighted_exponential_average,
)
from .probabilistic import (
    Distribution,
    RandomSequenceSpec,
    growth_exponent,
    lsk_empirical_sup,
    subnormality_margin,
)
from .sequences import (
    ComplexSequence,
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
    SkewShiftSystem,
    TimePolynomial,
    _orbit_blocks,
    build_tower,
    multiple_ergodic_average,
    verify_factorization,
)

class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    """Validated run request: command tag plus its parameter block."""

    command: str
    params: dict = field(default_factory=dict)
    out_dir: str = "."
    seed: int | None = None
    checkpoints: tuple[int, ...] | None = None

    def serialize(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if "command" not in data:
            raise ConfigError("command: missing from config")
        # Split only, as the --checkpoints flag is: the runner reads the
        # items as integers after the fields it checks first.
        cps = data.get("checkpoints")
        return cls(
            command=data["command"],
            params=dict(data.get("params", {})),
            out_dir=data.get("out_dir", "."),
            seed=data.get("seed"),
            checkpoints=tuple(_items(cps)) if cps is not None else None,
        )


# ---------------------------------------------------------------------------
# report emission


def _svg_plot(curves, xlabel: str, ylabel: str) -> str:
    """Log-log decay plot: one labeled polyline per curve."""
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 20, 50
    points = [
        (math.log10(x), math.log10(y))
        for _, xs, ys in curves
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if not points:
        points = [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(p[1] for p in points)
    y_hi = max(p[1] for p in points)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(v):
        return height - bottom - (v - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.0f}" y="{height - 12}" text-anchor="middle">{xlabel} (log scale)</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.0f}" text-anchor="middle" transform="rotate(-90 16 {(top + height - bottom) / 2:.0f})">{ylabel} (log scale)</text>',
        f'<text x="{left}" y="{height - bottom + 16}" text-anchor="middle">{10 ** x_lo:.3g}</text>',
        f'<text x="{width - right}" y="{height - bottom + 16}" text-anchor="middle">{10 ** x_hi:.3g}</text>',
        f'<text x="{left - 6}" y="{height - bottom}" text-anchor="end">{10 ** y_lo:.3g}</text>',
        f'<text x="{left - 6}" y="{top + 10}" text-anchor="end">{10 ** y_hi:.3g}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(curves):
        color = palette[idx % len(palette)]
        pts = " ".join(
            f"{sx(math.log10(x)):.2f},{sy(math.log10(y)):.2f}"
            for x, y in zip(xs, ys)
            if x > 0 and y > 0
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - right - 4}" y="{top + 16 + 16 * idx}" text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(value, fmt: str, path) -> Path:
    """Write a series or report in the requested format; returns the path."""
    path = Path(path)
    if isinstance(value, ErgodicAverageSeries):
        if fmt == "csv":
            # abs of each complex128 scalar: np.abs over the array can differ in the last bit.
            rows = ((n, a.real, a.imag, abs(a)) for n, a in zip(value.checkpoints, value.averages))
            _write_csv(path, "n,re,im,modulus", "%d,%.17g,%.17g,%.17g", rows)
        elif fmt == "svg":
            curve = ("average", list(value.checkpoints), [max(m, 1e-300) for m in value.moduli])
            path.write_text(_svg_plot([curve], "n", "modulus"), encoding="utf-8")
        else:
            raise ValueError(f"format: unsupported pairing {fmt!r} for a series")
        return path
    if isinstance(value, OscillationReport):
        if fmt == "json":
            path.write_text(report_to_json(value), encoding="utf-8")
        elif fmt == "svg":
            curves = [
                (
                    f"degree {prof.degree}",
                    [est.n for est in prof.estimates],
                    [max(est.sup, 1e-300) for est in prof.estimates],
                )
                for prof in value.degrees
            ]
            path.write_text(_svg_plot(curves, "n", "sup"), encoding="utf-8")
        else:
            raise ValueError(f"format: unsupported pairing {fmt!r} for a report")
        return path
    raise ValueError(f"format: no emitter for {type(value).__name__}")


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


# Rows per ``%``-format call of ``_write_csv``.
_CSV_CHUNK_ROWS = 1 << 14


def _write_csv(path: Path, header: str, row_format: str, rows) -> Path:
    """Write ``header`` and a ``row_format`` line per row, each chunk of rows by one ``%``-format call.

    Every CSV is written here, floats as ``%.17g`` (which round-trips
    float64) and ints as ``%d``; only a chunk of ``rows`` is held at once.
    """
    rows = iter(rows)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
            handle.write(((row_format + "\n") * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)))
    return path


# ---------------------------------------------------------------------------
# parameter handling


_MISSING = object()


def _parse(name: str, value, kind):
    """``kind(value)``, with a failure reported as a ConfigError naming ``name``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _require(params: dict, name: str, kind, default=_MISSING):
    if params.get(name) is None:
        if default is _MISSING:
            raise ConfigError(f"{name}: required parameter missing")
        return default
    return _parse(name, params[name], kind)


def _grid(params: dict, degree: int, default):
    """The grid pitch G, as ``oscillation._checked_grid`` passes it for ``degree``, else the default."""
    grid = _require(params, "grid", _int, default=default)
    try:
        return grid if grid is None else _checked_grid(degree, grid)
    except (ValueError, GridBudgetError) as exc:
        raise ConfigError(f"grid: {str(exc).removeprefix('grid_per_dim: ')}") from exc


def _items(value) -> list:
    """A list/tuple as is, or the nonblank parts of comma-separated text."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [part for part in str(value).split(",") if part.strip()]


def _int(value) -> int:
    """Decimal text (a flag) or an integral number (a JSON value); 1000.9 is refused."""
    return int(value) if isinstance(value, str) else _integer(value)


def _bool(value) -> bool:
    """A JSON boolean (a store_true flag is one too); text such as "false" is refused."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def _int_list(value) -> tuple[int, ...]:
    return tuple(_int(v) for v in _items(value))


def _float(value) -> float:
    """A finite float: nan and +-inf are refused, before they reach exact arithmetic."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"must be finite, got {number}")
    return number


def _float_list(value) -> tuple[float, ...]:
    return tuple(_float(v) for v in _items(value))


def _load_weights(params: dict, length: int, seed: int | None) -> ComplexSequence:
    generator = _require(params, "generator", str)
    if generator == "mobius":
        return mobius_sequence(length)
    if generator == "liouville":
        return liouville_sequence(length)
    if generator == "rademacher":
        actual_seed = params.get("seed", seed)
        if actual_seed is None:
            raise ConfigError("seed: required for rademacher weights")
        return rademacher_sequence(_parse("seed", actual_seed, _int), length)
    if generator == "polyphase":
        alpha = _require(params, "alpha", _float)
        power = _require(params, "power", _int)
        return polynomial_phase_sequence(alpha, power, length)
    if generator == "file":
        path = _require(params, "path", str)
        seq = read_sequence(path)
        if seq.length < length:
            raise ConfigError(
                f"path: file holds {seq.length} values, {length} required"
            )
        return seq
    raise ConfigError(f"generator: unknown generator {generator!r}")


def _checkpoints_or_default(config: ExperimentConfig, n: int) -> tuple[int, ...]:
    if config.checkpoints:
        return _validated_checkpoints(_parse("checkpoints", config.checkpoints, _int_list), n)
    return geometric_checkpoints(max(1, n // 16), n)


# ---------------------------------------------------------------------------
# subcommand runners (validate first, then compute)


def _run_generate(config: ExperimentConfig, out: Path) -> list[Path]:
    n = _require(config.params, "n", _int)
    if n < 1:
        raise ConfigError("n: must be >= 1")
    seq = _load_weights(config.params, n, config.seed)
    path = out / "sequence.txt"
    write_sequence(path, ComplexSequence(seq.values[:n], seq.provenance))
    return [path]

def _run_average(config: ExperimentConfig, out: Path) -> list[Path]:
    n = _require(config.params, "n", _int)
    coeffs = _require(config.params, "coeffs", _float_list)
    if not coeffs:
        raise ConfigError("coeffs: at least one coefficient required")
    try:
        poly = PhasePolynomial(coeffs)
    except ValueError as exc:
        raise ConfigError(f"coeffs: {exc}") from exc
    cps = _checkpoints_or_default(config, n)
    seq = _load_weights(config.params, n, config.seed)
    series = weighted_exponential_average(seq, poly, cps)
    paths = [
        emit_report(series, "csv", out / "average.csv"),
        emit_report(series, "svg", out / "average.svg"),
    ]
    return paths


def _run_scan_spectrum(config: ExperimentConfig, out: Path) -> list[Path]:
    n = _require(config.params, "n", _int)
    m = _require(config.params, "grid-size", _int, default=1024)
    if m < 2:
        raise ConfigError("grid-size: must be >= 2")
    refine = _require(config.params, "refine", _bool, default=False)
    if refine and m & (m - 1):
        raise ConfigError("grid-size: must be a power of two with --refine")
    seq = _load_weights(config.params, n, config.seed)
    moduli = _spectrum(seq, m, n)
    order = np.argsort(-moduli, kind="stable")
    chunks = (order[i : i + _CSV_CHUNK_ROWS] for i in range(0, m, _CSV_CHUNK_ROWS))
    rows = itertools.chain.from_iterable(zip((js / m).tolist(), moduli[js].tolist()) for js in chunks)
    paths = [_write_csv(out / "spectrum.csv", "frequency,modulus", "%.17g,%.17g", rows)]
    if refine:
        top_freq, top_mod = int(order[0]) / m, float(moduli[order[0]])
        refined, coeffs = refine_local(
            seq, 1, (0.0, top_freq), n, initial_step=1.0 / m
        )
        payload = {
            "grid_peak_frequency": top_freq,
            "grid_peak_modulus": top_mod,
            "refined_frequency": coeffs[1],
            "refined_modulus": refined,
        }
        paths.append(_write_json(out / "spectrum_refined.json", payload))
    return paths


def _run_estimate_order(config: ExperimentConfig, out: Path) -> list[Path]:
    n = _require(config.params, "n", _int)
    d_max = _require(config.params, "d-max", _int, default=2)
    if d_max < 1:
        raise ConfigError("d-max: must be >= 1")
    grid = _grid(config.params, d_max, default=None)
    if grid is None and d_max > 3:
        raise ConfigError("grid: --d-max above 3 requires an explicit --grid")
    cps = _checkpoints_or_default(config, n)
    if len(cps) < 3:
        raise ConfigError("checkpoints: at least 3 required")
    seq = _load_weights(config.params, n, config.seed)
    report = estimate_oscillation_profile(seq, d_max, cps, grid_per_dim=grid)
    return [
        emit_report(report, "json", out / "oscillation.json"),
        emit_report(report, "svg", out / "oscillation.svg"),
        _write_json(out / "order.json", {"classification": classify_exact_order(report)}),
    ]


def _torus_system(params: dict) -> SkewShiftSystem:
    m = _require(params, "m", _int)
    alpha = _require(params, "alpha", _float)
    if m < 1:
        raise ConfigError("m: must be >= 1")
    return SkewShiftSystem(m, alpha)


def _torus_point(params: dict, system: SkewShiftSystem) -> tuple[float, ...]:
    x = _require(params, "x", _float_list)
    if len(x) != system.dimension:
        raise ConfigError(f"x: expected {system.dimension} coordinates")
    return x


def _run_simulate_torus(config: ExperimentConfig, out: Path) -> list[Path]:
    system = _torus_system(config.params)
    x = _torus_point(config.params, system)
    steps = _require(config.params, "steps", _int)
    if steps < 1:
        raise ConfigError("steps: must be >= 1")
    blocks = _orbit_blocks(system, x, steps)
    rows = itertools.chain.from_iterable(zip(itertools.count(start), *block.tolist()) for start, block in blocks)
    header = "n," + ",".join(f"x{i + 1}" for i in range(system.dimension))
    return [_write_csv(out / "orbit.csv", header, "%d" + ",%.17g" * system.dimension, rows)]


def _run_verify_tower(config: ExperimentConfig, out: Path) -> list[Path]:
    system = _torus_system(config.params)
    x = _torus_point(config.params, system)
    freqs = _require(config.params, "freqs", _int_list)
    if len(freqs) != system.dimension:
        raise ConfigError(f"freqs: expected {system.dimension} entries")
    if not any(freqs):
        raise ConfigError("freqs: zero frequency vector has no tower")
    n_max = _require(config.params, "n-max", _int, default=1000)
    tower = build_tower(system, CharacterObservable(freqs))
    deviation = verify_factorization(tower, x, n_max)
    payload = {
        "order": tower.order,
        "n_max": n_max,
        "max_deviation": deviation,
        "levels": [
            {"constant_phase": float(lvl.constant_phase), "frequencies": list(lvl.frequencies)}
            for lvl in tower.levels
        ],
    }
    return [_write_json(out / "tower.json", payload)]


def _run_multi_average(config: ExperimentConfig, out: Path) -> list[Path]:
    params = config.params
    system = _torus_system(params)
    x = _torus_point(params, system)
    chars_spec = params.get("chars")
    qs_spec = params.get("qs")
    if not chars_spec:
        raise ConfigError("chars: required parameter missing")
    if not qs_spec:
        raise ConfigError("qs: required parameter missing")
    chars = [CharacterObservable(_parse("chars", c, _int_list)) for c in chars_spec]
    qs = [TimePolynomial(_parse("qs", q, _int_list)) for q in qs_spec]
    if len(chars) != len(qs):
        raise ConfigError("qs: needs one time polynomial per character")
    if "ell" in params and _parse("ell", params["ell"], _int) != len(chars):
        raise ConfigError(f"ell: {params['ell']} does not match {len(chars)} characters")
    for char in chars:
        if len(char.frequencies) != system.dimension:
            raise ConfigError(f"chars: expected {system.dimension} entries per vector")
    weights_spec = params.get("weights")
    if not isinstance(weights_spec, dict):
        raise ConfigError("weights: required parameter block missing")
    n = _require(params, "n", _int)
    cps = _checkpoints_or_default(config, n)
    seq = _load_weights(weights_spec, n, config.seed)
    series = multiple_ergodic_average(system, chars, qs, x, seq, cps)
    return [
        emit_report(series, "csv", out / "multi_average.csv"),
        emit_report(series, "svg", out / "multi_average.svg"),
    ]


def _padic_system(params: dict) -> PadicAffineSystem:
    p = _require(params, "p", _int)
    a = _require(params, "a", _int)
    b = _require(params, "b", _int)
    precision = _require(params, "precision", _int, default=24)
    if precision < 1:
        raise ConfigError("precision: must be >= 1")
    try:
        return PadicAffineSystem.from_ints(p, a, b, precision=precision)
    except ValueError as exc:
        raise ConfigError(f"p: {exc}") from exc


def _run_simulate_padic(config: ExperimentConfig, out: Path) -> list[Path]:
    system = _padic_system(config.params)
    x0 = _require(config.params, "x0", _int)
    steps = _require(config.params, "steps", _int)
    if steps < 1:
        raise ConfigError("steps: must be >= 1")
    blocks = _padic_orbit_blocks(system, x0, system.precision, steps)
    rows = itertools.chain.from_iterable(enumerate(block.tolist(), start) for start, block in blocks)
    try:
        minimal = affine_minimality_check(system.a, system.b, system.prime)
    except ValueError:
        minimal = None
    info = {
        "p": system.prime,
        "precision": system.precision,
        "a": system.a,
        "b": system.b,
        "minimal": minimal,
    }
    return [
        _write_csv(out / "padic_orbit.csv", "n,value", "%d,%d", rows),
        _write_json(out / "padic_system.json", info),
    ]


def _run_census(config: ExperimentConfig, out: Path) -> list[Path]:
    system = _padic_system(config.params)
    x0 = _require(config.params, "x0", _int)
    level = _require(config.params, "level", _int)
    steps = _require(config.params, "steps", _int)
    census = orbit_residue_census(system, x0, level, steps)
    return [_write_csv(out / "census.csv", "residue,count", "%d,%d", sorted(census.items()))]


def _run_lsk_check(config: ExperimentConfig, out: Path) -> list[Path]:
    params = config.params
    default_seeds = config.seed if config.seed is not None else ""
    seeds = _parse("seeds", params.get("seeds", default_seeds), _int_list)
    if not seeds:
        raise ConfigError("seeds: at least one seed required")
    degree = _require(params, "d", _int)
    if degree < 1:
        raise ConfigError("d: must be >= 1")
    n_list = _require(params, "n-list", _int_list)
    if not n_list:
        raise ConfigError("n-list: at least one length required")
    if min(n_list) < 2:
        # sqrt(N log N) vanishes at N = 1, so the ratio column needs N >= 2.
        raise ConfigError("n-list: entries must be >= 2")
    grid = _grid(params, degree, default=16)
    rows = []
    slopes = {}
    for seed in seeds:
        spec = RandomSequenceSpec(Distribution("rademacher"), seed, max(n_list))
        sups = lsk_empirical_sup(spec, degree, n_list, grid)
        for n, sup in sups:
            ratio = sup / math.sqrt(n * math.log(n))
            rows.append((seed, degree, n, sup, ratio))
        slopes[seed] = growth_exponent(sups) if len(sups) >= 3 else None
    return [
        _write_csv(out / "lsk.csv", "seed,d,n,sup,ratio", "%d,%d,%d,%.17g,%.17g", rows),
        _write_json(out / "lsk_slopes.json", {str(k): v for k, v in slopes.items()}),
    ]


def _run_subnormal_check(config: ExperimentConfig, out: Path) -> list[Path]:
    params = config.params
    kind = _require(params, "distribution", str)
    scale = _require(params, "scale", _float, default=1.0)
    lambdas = _require(params, "lambdas", _float_list, default=(0.25, 0.5, 1.0, 2.0, 4.0))
    if not lambdas:
        raise ConfigError("lambdas: at least one value required")
    try:
        dist = Distribution(kind, scale)
    except ValueError as exc:
        raise ConfigError(f"distribution: {exc}") from exc
    margins = subnormality_margin(dist, lambdas)
    verdict = all(margin >= 0 for _, margin in margins)
    return [
        _write_csv(out / "subnormal.csv", "lambda,margin", "%.17g,%.17g", margins),
        _write_json(out / "subnormal.json", {"subnormal_on_grid": verdict}),
    ]


_RUNNERS = {
    "generate": _run_generate,
    "average": _run_average,
    "scan-spectrum": _run_scan_spectrum,
    "estimate-order": _run_estimate_order,
    "simulate-torus": _run_simulate_torus,
    "verify-tower": _run_verify_tower,
    "multi-average": _run_multi_average,
    "simulate-padic": _run_simulate_padic,
    "census": _run_census,
    "lsk-check": _run_lsk_check,
    "subnormal-check": _run_subnormal_check,
}
COMMANDS = tuple(_RUNNERS)

# The commands whose runners read checkpoints.
_CHECKPOINTED = ("average", "estimate-order", "multi-average")


def _check_keys(config: ExperimentConfig) -> None:
    """Refuse a ``params`` key or ``checkpoints`` that the command's runner would not read."""
    flags = _SUBCOMMAND_FLAGS[config.command]
    known = {flag.lstrip("-") for flag in flags}
    if "--generator" in flags:
        known.add("seed")  # a config file's seed for rademacher weights
    if config.command == "multi-average":
        known.add("ell")  # the character count, checked against --chars
    for key in config.params:
        if key not in known:
            raise ConfigError(f"{key}: not a parameter of {config.command}")
    if config.checkpoints is not None and config.command not in _CHECKPOINTED:
        raise ConfigError(f"checkpoints: {config.command} takes no checkpoints")


def run_experiment(config: ExperimentConfig) -> tuple[int, list[Path]]:
    """Validate and execute one experiment; returns (exit status, outputs)."""
    if config.command not in _RUNNERS:
        raise ConfigError(f"command: unknown command {config.command!r}")
    _check_keys(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs = _RUNNERS[config.command](config, out)
    elapsed = time.perf_counter() - started
    manifest = {
        "command": config.command,
        "config": json.loads(config.serialize()),
        "versions": {
            "oscillab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_seconds": elapsed,
        "outputs": [str(p) for p in outputs],
    }
    _write_json(out / "manifest.json", manifest)
    return 0, outputs


# ---------------------------------------------------------------------------
# argument parsing

_SUBCOMMAND_FLAGS = {
    "generate": ("--generator", "--n", "--alpha", "--power", "--path"),
    "average": ("--generator", "--n", "--coeffs", "--alpha", "--power", "--path"),
    "scan-spectrum": ("--generator", "--n", "--grid-size", "--refine", "--alpha", "--power", "--path"),
    "estimate-order": ("--generator", "--n", "--d-max", "--grid", "--alpha", "--power", "--path"),
    "simulate-torus": ("--m", "--alpha", "--x", "--steps"),
    "verify-tower": ("--m", "--alpha", "--x", "--freqs", "--n-max"),
    "multi-average": ("--m", "--alpha", "--x", "--chars", "--qs", "--n", "--weights"),
    "simulate-padic": ("--p", "--a", "--b", "--precision", "--x0", "--steps"),
    "census": ("--p", "--a", "--b", "--precision", "--x0", "--level", "--steps"),
    "lsk-check": ("--seeds", "--d", "--n-list", "--grid"),
    "subnormal-check": ("--distribution", "--scale", "--lambdas"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillab",
        description="Oscillating-sequence experiments: averages, towers, p-adic orbits.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for command in COMMANDS:
        sub = subparsers.add_parser(command, help=f"run the {command} experiment")
        sub.add_argument("--config", help="JSON config file; flags override its fields")
        sub.add_argument("--out", help="output directory (default: current)")
        sub.add_argument("--seed", type=int, help="64-bit seed for random weights")
        sub.add_argument("--checkpoints", help="comma-separated checkpoint lengths")
        for flag in _SUBCOMMAND_FLAGS[command]:
            name = flag.lstrip("-")
            if flag == "--refine":
                sub.add_argument(flag, action="store_true", help="polish the top frequency")
            elif flag in ("--chars", "--qs"):
                sub.add_argument(flag, action="append", help=f"{name} (repeatable, comma-separated ints)")
            else:
                sub.add_argument(flag, help=name.replace("-", " "))
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.parse(Path(args.config).read_text(encoding="utf-8"))
        if config.command != args.command:
            raise ConfigError(
                f"command: config says {config.command!r}, flags say {args.command!r}"
            )
    else:
        config = ExperimentConfig(command=args.command)
    skip = {"command", "config", "out", "seed", "checkpoints"}
    for key, value in vars(args).items():
        if key in skip or value in (None, False):
            continue
        config.params[key.replace("_", "-")] = value
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    if args.checkpoints:
        config.checkpoints = _parse("checkpoints", args.checkpoints, _int_list)
    if args.command == "multi-average" and "weights" in config.params:
        weights = config.params["weights"]
        if isinstance(weights, str):
            config.params["weights"] = _parse("weights", weights, json.loads)
    return config


# glibc raises its mmap threshold to the size of each mapped block freed
# (up to 32 MiB).  Arrays of a few MB then land in the heap or in their
# own mapping depending on what the process freed before, and a heap
# array that grows moves whenever a later allocation sits above it, so
# a command's peak memory would depend on that history.  A fixed
# threshold keeps it steady: whole-sequence arrays get their own mapping
# and are returned when freed, while streamed blocks (about 1 MB) and
# other small buffers reuse heap space, kept up to the trim threshold.
# Whether a free gets past that threshold hangs on the sizes freed before
# it, so each command first returns the free heap pages (malloc_trim).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20


def _fix_malloc_thresholds() -> None:
    """Pin the C allocator's thresholds and return its free heap pages (glibc only; a no-op elsewhere)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)
    malloc_trim.argtypes = (ctypes.c_size_t,)
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 1
    try:
        config = _config_from_args(args)
        run_experiment(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
