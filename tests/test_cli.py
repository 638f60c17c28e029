"""CLI contracts: validation, determinism, formats, help text, config round-trip."""

import json
import platform
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oscillab.cli import (
    COMMANDS,
    ExperimentConfig,
    _CSV_CHUNK_ROWS,
    _SUBCOMMAND_FLAGS,
    _write_csv,
    build_parser,
    emit_report,
    main,
    run_experiment,
)
from oscillab.oscillation import estimate_oscillation_profile
from oscillab.padic import PadicAffineSystem
from oscillab.polyphase import ErgodicAverageSeries, fourier_bohr_scan
from oscillab.sequences import mobius_sequence, read_sequence, write_sequence
from oscillab.torus import SkewShiftSystem

from oracles import orbit_point

import numpy as np


def run(argv):
    return main(argv)


def test_generate_writes_parseable_sequence(tmp_path):
    out = tmp_path / "g"
    assert run(["generate", "--generator", "mobius", "--n", "50", "--out", str(out)]) == 0
    seq = read_sequence(out / "sequence.txt")
    assert np.array_equal(seq.complex_values, mobius_sequence(50).complex_values)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert "wall_time_seconds" in manifest


def test_generate_liouville_and_polyphase(tmp_path):
    out = tmp_path / "lio"
    assert run(["generate", "--generator", "liouville", "--n", "32", "--out", str(out)]) == 0
    seq = read_sequence(out / "sequence.txt")
    assert set(seq.complex_values.real.tolist()) <= {-1.0, 1.0}
    out2 = tmp_path / "poly"
    assert run(
        [
            "generate", "--generator", "polyphase",
            "--alpha", "0.25", "--power", "2", "--n", "8",
            "--out", str(out2),
        ]
    ) == 0
    seq2 = read_sequence(out2 / "sequence.txt")
    assert np.allclose(np.abs(seq2.complex_values), 1.0)


def test_validation_error_names_field(tmp_path, capsys):
    out = tmp_path / "v"
    status = run(
        [
            "average",
            "--generator",
            "mobius",
            "--n",
            "100",
            "--coeffs",
            "0,0.5",
            "--checkpoints",
            "50,200",
            "--out",
            str(out),
        ]
    )
    assert status == 1
    assert "checkpoints" in capsys.readouterr().err


def test_missing_required_parameter(tmp_path, capsys):
    status = run(["average", "--generator", "mobius", "--n", "100", "--out", str(tmp_path)])
    assert status == 1
    assert "coeffs" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    args = [
        "average",
        "--generator",
        "rademacher",
        "--seed",
        "7",
        "--n",
        "2000",
        "--coeffs",
        "0,0.25,0.125",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("average.csv", "average.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_smoke_estimate_order(tmp_path):
    out = tmp_path / "smoke"
    status = run(
        [
            "estimate-order",
            "--generator",
            "mobius",
            "--n",
            "10000",
            "--d-max",
            "1",
            "--checkpoints",
            "2500,5000,10000",
            "--out",
            str(out),
        ]
    )
    assert status == 0
    report = json.loads((out / "oscillation.json").read_text())
    assert report and report[0]["degree"] == 1
    assert (out / "order.json").exists()
    svg = (out / "oscillation.svg").read_text()
    assert svg.count("<polyline") == 1
    assert "log scale" in svg


def test_series_csv_header(tmp_path):
    series = ErgodicAverageSeries((2, 4), np.array([0.5 + 0j, 0.25j]))
    path = emit_report(series, "csv", tmp_path / "s.csv")
    assert path.read_text().splitlines()[0] == "n,re,im,modulus"


def test_report_json_schema_via_emit(tmp_path):
    seq = mobius_sequence(4000)
    report = estimate_oscillation_profile(seq, 1, [1000, 2000, 4000])
    path = emit_report(report, "json", tmp_path / "r.json")
    payload = json.loads(path.read_text())
    assert set(payload[0]) == {"degree", "grid_per_dim", "checkpoints", "slope", "verdict"}


def test_svg_polyline_per_degree(tmp_path):
    seq = mobius_sequence(4000)
    report = estimate_oscillation_profile(seq, 2, [1000, 2000, 4000])
    path = emit_report(report, "svg", tmp_path / "r.svg")
    text = path.read_text()
    assert text.count("<polyline") == 2


def test_emit_rejects_unsupported_pairing(tmp_path):
    series = ErgodicAverageSeries((2,), np.array([0.5 + 0j]))
    with pytest.raises(ValueError):
        emit_report(series, "yaml", tmp_path / "x.yaml")
    seq = mobius_sequence(1000)
    report = estimate_oscillation_profile(seq, 1, [250, 500, 1000])
    with pytest.raises(ValueError):
        emit_report(report, "csv", tmp_path / "r.csv")


def test_census_csv_format(tmp_path):
    out = tmp_path / "c"
    assert run(
        [
            "census",
            "--p", "3", "--a", "4", "--b", "1",
            "--x0", "0", "--level", "1", "--steps", "9",
            "--out", str(out),
        ]
    ) == 0
    lines = (out / "census.csv").read_text().splitlines()
    assert lines[0] == "residue,count"
    assert lines[1:] == ["0,3", "1,3", "2,3"]


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--level", "5", "error: level: must be in [0, precision]"),
        ("--level", "-1", "error: level: must be in [0, precision]"),
        ("--steps", "0", "error: steps: must be >= 1"),
    ],
)
def test_census_refuses_level_and_steps_out_of_range(tmp_path, capsys, flag, value, message):
    args = {"--level": "1", "--steps": "9", flag: value}
    argv = ["census", "--p", "3", "--a", "4", "--b", "1", "--precision", "4", "--x0", "0"]
    argv += [item for pair in args.items() for item in pair] + ["--out", str(tmp_path / "c")]
    assert run(argv) == 1
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "c" / "census.csv").exists()


def test_lsk_csv_format(tmp_path):
    out = tmp_path / "l"
    assert run(
        [
            "lsk-check",
            "--seeds", "1", "--d", "1",
            "--n-list", "256,512,1024", "--grid", "8",
            "--out", str(out),
        ]
    ) == 0
    lines = (out / "lsk.csv").read_text().splitlines()
    assert lines[0] == "seed,d,n,sup,ratio"
    assert len(lines) == 4


def test_subnormal_check(tmp_path):
    out = tmp_path / "s"
    assert run(
        ["subnormal-check", "--distribution", "rademacher", "--out", str(out)]
    ) == 0
    assert json.loads((out / "subnormal.json").read_text())["subnormal_on_grid"]
    out2 = tmp_path / "s2"
    assert run(
        [
            "subnormal-check",
            "--distribution", "scaled-rademacher", "--scale", "2.0",
            "--lambdas", "2.0",
            "--out", str(out2),
        ]
    ) == 0
    assert not json.loads((out2 / "subnormal.json").read_text())["subnormal_on_grid"]


def test_multi_average_smoke(tmp_path):
    out = tmp_path / "m"
    status = run(
        [
            "multi-average",
            "--m", "2", "--alpha", "0.618033988749895",
            "--x", "0.25,0.5",
            "--chars", "0,1", "--chars", "0,1",
            "--qs", "0,1", "--qs", "0,1,2",
            "--n", "5000",
            "--weights", '{"generator":"rademacher","seed":1}',
            "--out", str(out),
        ]
    )
    assert status == 0
    lines = (out / "multi_average.csv").read_text().splitlines()
    assert lines[0] == "n,re,im,modulus"
    assert len(lines) > 1


def test_verify_tower_smoke(tmp_path):
    out = tmp_path / "t"
    assert run(
        [
            "verify-tower",
            "--m", "2", "--alpha", "0.618033988749895",
            "--x", "0.25,0.5", "--freqs", "0,1",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads((out / "tower.json").read_text())
    assert payload["order"] == 2
    assert payload["max_deviation"] <= 1e-9


def test_simulate_torus_rows_are_the_exact_orbit(tmp_path):
    """Every row of orbit.csv reads back as ``orbit_point`` at its n.

    The rows are stepped in exact fixed point; a float loop of the
    one-step map is off by 0.04 turn at n = 2 * 10^4 on this orbit.
    """
    out = tmp_path / "st"
    x = (0.1, 0.2, 0.3, 0.4)
    assert run(
        [
            "simulate-torus", "--m", "4", "--alpha", "0.618033988749895",
            "--x", "0.1,0.2,0.3,0.4", "--steps", "20000", "--out", str(out),
        ]
    ) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    assert lines[0] == "n,x1,x2,x3,x4"
    assert len(lines) == 20_001
    system = SkewShiftSystem(4, 0.618033988749895)
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert tuple(float(c) for c in cells[1:]) == orbit_point(system, x, n), n


def test_simulate_torus_rows_cross_a_block_edge(tmp_path):
    """70,000 rows span two blocks of the register stream; each is ``orbit_point`` at its n."""
    out = tmp_path / "st"
    x = (0.7071067811865476, 0.1)
    assert run(
        [
            "simulate-torus", "--m", "2", "--alpha", "0.618033988749895",
            "--x", ",".join(map(repr, x)), "--steps", "70000", "--out", str(out),
        ]
    ) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    assert len(lines) == 70_001
    system = SkewShiftSystem(2, 0.618033988749895)
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert tuple(float(c) for c in cells[1:]) == orbit_point(system, x, n), n


def test_simulate_torus_rows_are_the_exact_orbit_on_inexact_inputs(tmp_path):
    """alpha = 1e-25 and x_i near 2^-90 are not multiples of 2^-128: both routes truncate them once, alike.

    So across the block edge of 70,000 rows each row is still
    ``orbit_point`` at its n, bit for bit.
    """
    out = tmp_path / "st"
    alpha = 1e-25
    x = (2.0**-90 / 3, 0.3, 2.0**-90 * 5 / 7)
    assert all(2**128 % Fraction(c).denominator for c in (alpha, x[0], x[2]))
    assert run(
        [
            "simulate-torus", "--m", "3", "--alpha", repr(alpha),
            "--x", ",".join(map(repr, x)), "--steps", "70000", "--out", str(out),
        ]
    ) == 0
    lines = (out / "orbit.csv").read_text().splitlines()
    assert len(lines) == 70_001
    system = SkewShiftSystem(3, alpha)
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert tuple(float(c) for c in cells[1:]) == orbit_point(system, x, n), n


def test_csv_rows_are_the_cell_formats_across_chunks(tmp_path):
    """One ``%``-format per chunk writes each cell as ``str`` of an int and ``.17g`` of a float, as cell by cell."""
    values = [0.0, -0.0, 0.1, 1e-300, -2.5e300, float("inf"), float("nan"), np.float64(1 / 3), 2**-1074]
    ints = [0, -7, 2**64 + 1, -(3**50), np.int64(-(2**63))]
    count = 2 * _CSV_CHUNK_ROWS + 3
    rows = [(n, ints[n % len(ints)], values[n % len(values)]) for n in range(count)]
    path = _write_csv(tmp_path / "rows.csv", "n,int,float", "%d,%d,%.17g", iter(rows))
    expected = ["n,int,float", *(f"{n},{i},{v:.17g}" for n, i, v in rows)]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_simulate_torus_reduces_the_start_point(tmp_path):
    out = tmp_path / "st"
    assert run(
        [
            "simulate-torus", "--m", "2", "--alpha", "0.125",
            "--x", "1.25,0.5", "--steps", "3", "--out", str(out),
        ]
    ) == 0
    rows = (out / "orbit.csv").read_text().splitlines()[1:]
    assert rows == ["0,0.25,0.5", "1,0.375,0.75", "2,0.5,0.125"]


def test_simulate_torus_rows_stay_below_one(tmp_path):
    """A coordinate within 2^-54 of 1 is written as 0, not as 1."""
    out = tmp_path / "st"
    start = f"{1 - 2**-53!r},{2**-54 + 2**-60!r}"
    assert run(
        [
            "simulate-torus", "--m", "2", "--alpha", "0.25",
            "--x", start, "--steps", "2", "--out", str(out),
        ]
    ) == 0
    rows = (out / "orbit.csv").read_text().splitlines()[1:]
    assert rows[1] == "1,0.24999999999999989,0"


def test_simulate_padic_rows_follow_step_int(tmp_path):
    out = tmp_path / "sp"
    assert run(
        [
            "simulate-padic", "--p", "3", "--a", "4", "--b", "1", "--precision", "40",
            "--x0=-7", "--steps", "300", "--out", str(out),
        ]
    ) == 0
    lines = (out / "padic_orbit.csv").read_text().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 301
    system = PadicAffineSystem.from_ints(3, 4, 1, precision=40)
    x = -7 % 3**40
    for n, line in enumerate(lines[1:]):
        assert line == f"{n},{x}"
        x = (system.a * x + system.b) % system.prime**40
    info = json.loads((out / "padic_system.json").read_text())
    assert info == {"p": 3, "precision": 40, "a": 4, "b": 1, "minimal": True}


@pytest.mark.parametrize(
    "p, a, b, precision, x0",
    [(3, 4, 1, 19, 5), (2, 5, 3, 31, 7), (3, 4, 1, 40, -7)],
    ids=["int64", "int64-at-2^31", "object"],
)
def test_simulate_padic_rows_cross_a_block_boundary(tmp_path, p, a, b, precision, x0):
    """70,000 steps span two orbit blocks: int64 points up to p^K = 2^31, Python ints past it."""
    out = tmp_path / "sp"
    argv = ["simulate-padic", "--p", str(p), "--a", str(a), "--b", str(b), "--precision", str(precision)]
    assert run(argv + [f"--x0={x0}", "--steps", "70000", "--out", str(out)]) == 0
    lines = (out / "padic_orbit.csv").read_text().splitlines()
    assert len(lines) == 70001
    system = PadicAffineSystem.from_ints(p, a, b, precision=precision)
    x = x0 % p**precision
    for n, line in enumerate(lines[1:]):
        assert line == f"{n},{x}"
        x = (system.a * x + system.b) % system.prime**precision


def test_simulate_padic_leaves_p2_minimality_open(tmp_path):
    out = tmp_path / "sp2"
    assert run(
        [
            "simulate-padic", "--p", "2", "--a", "5", "--b", "3",
            "--x0", "1", "--steps", "4", "--out", str(out),
        ]
    ) == 0
    rows = (out / "padic_orbit.csv").read_text().splitlines()[1:]
    assert rows == ["0,1", "1,8", "2,43", "3,218"]
    info = json.loads((out / "padic_system.json").read_text())
    assert info["minimal"] is None and info["p"] == 2 and info["precision"] == 24


def test_runtime_error_exits_two(tmp_path, capsys):
    # --out names a regular file: the run fails making its directory, after validation
    blocker = tmp_path / "file"
    blocker.write_text("")
    status = run(["subnormal-check", "--distribution", "rademacher", "--out", str(blocker)])
    assert status == 2
    assert capsys.readouterr().err.startswith("runtime error:")


@pytest.mark.parametrize(
    "argv",
    [
        # 256^3 points at degree 2 exceed the grid budget; no smaller pitch is tried
        ["estimate-order", "--generator", "mobius", "--n", "1000", "--d-max", "2",
         "--grid", "256", "--checkpoints", "250,500,1000"],
        ["lsk-check", "--seeds", "1", "--d", "3", "--n-list", "256", "--grid", "64"],
    ],
    ids=["estimate-order", "lsk-check"],
)
def test_over_budget_grid_exits_one(tmp_path, capsys, monkeypatch, argv):
    """G^(d+1) is known from the flags, so an over-budget grid is refused before any weights are drawn."""

    def no_weights(*args, **kwargs):
        raise AssertionError("weights drawn before the grid was checked")

    monkeypatch.setattr("oscillab.cli._load_weights", no_weights)
    monkeypatch.setattr("oscillab.cli.lsk_empirical_sup", no_weights)
    assert run(argv + ["--out", str(tmp_path / "boom")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid:") and "budget" in err


_FINITE_FLAGS = [
    ("coeffs", ["average", "--generator", "mobius", "--n", "100"], "--coeffs", "0,{}"),
    ("alpha", ["estimate-order", "--generator", "polyphase", "--power", "2", "--n", "1000",
               "--checkpoints", "250,500,1000"], "--alpha", "{}"),
    ("alpha", ["verify-tower", "--m", "2", "--x", "0.1,0.2", "--freqs", "0,1"], "--alpha", "{}"),
    ("x", ["verify-tower", "--m", "2", "--alpha", "0.3", "--freqs", "0,1"], "--x", "0.1,{}"),
    ("x", ["simulate-torus", "--m", "2", "--alpha", "0.3", "--steps", "10"], "--x", "{},0.2"),
    ("scale", ["subnormal-check", "--distribution", "rademacher"], "--scale", "{}"),
    ("lambdas", ["subnormal-check", "--distribution", "rademacher"], "--lambdas", "1,{}"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field, argv, flag, template", _FINITE_FLAGS, ids=[f"{argv[0]}-{field}" for field, argv, *_ in _FINITE_FLAGS]
)
def test_non_finite_floats_exit_one_naming_the_field(tmp_path, capsys, monkeypatch, field, argv, flag, template, value):
    """nan and +-inf in a float flag are refused before any weights are drawn or anything is computed."""

    def nothing_drawn(*args, **kwargs):
        raise AssertionError("computed before the float flags were checked")

    for name in ("mobius_sequence", "polynomial_phase_sequence", "verify_factorization", "_orbit_blocks",
                 "subnormality_margin"):
        monkeypatch.setattr(f"oscillab.cli.{name}", nothing_drawn)
    out = tmp_path / "out"
    assert run(argv + [f"{flag}={template.format(value)}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: must be finite")
    assert not out.exists() or [p.name for p in out.iterdir()] == []


def test_estimate_order_above_degree_three_needs_grid_before_weights(tmp_path, capsys, monkeypatch):
    """--d-max 4 has no default pitch: refused before any weights are drawn, naming the flags."""
    calls = []
    monkeypatch.setattr("oscillab.cli._load_weights", lambda *args: calls.append(args))
    argv = ["estimate-order", "--generator", "mobius", "--n", "1000000", "--d-max", "4"]
    assert run(argv + ["--out", str(tmp_path / "d4")]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: grid:") and "--grid" in err and "--d-max" in err


def test_multi_average_descriptor_config(tmp_path):
    descriptor = {
        "command": "multi-average",
        "params": {
            "m": 2,
            "alpha": 0.618033988749895,
            "x": [0.25, 0.5],
            "ell": 2,
            "chars": [[0, 1], [0, 1]],
            "qs": [[0, 1], [0, 1, 2]],
            "weights": {"generator": "rademacher", "seed": 4},
            "n": 4000,
        },
        "checkpoints": [1000, 2000, 4000],
        "out_dir": str(tmp_path / "desc"),
    }
    cfg = tmp_path / "descriptor.json"
    cfg.write_text(json.dumps(descriptor))
    assert run(["multi-average", "--config", str(cfg)]) == 0
    lines = (tmp_path / "desc" / "multi_average.csv").read_text().splitlines()
    assert len(lines) == 4

    descriptor["params"]["ell"] = 3
    cfg.write_text(json.dumps(descriptor))
    assert run(["multi-average", "--config", str(cfg)]) == 1


def test_config_round_trip():
    config = ExperimentConfig(
        command="average",
        params={"generator": "mobius", "n": 100, "coeffs": "0,0.5"},
        out_dir="/tmp/out",
        seed=9,
        checkpoints=(10, 100),
    )
    assert ExperimentConfig.parse(config.serialize()) == config
    # Configs written while a "threads" field existed still parse.
    old = json.loads(config.serialize())
    old["threads"] = 2
    assert ExperimentConfig.parse(json.dumps(old)) == config


def test_config_file_with_flag_override(tmp_path):
    config = ExperimentConfig(
        command="generate",
        params={"generator": "mobius", "n": 10},
        out_dir=str(tmp_path / "from_config"),
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config.serialize())
    out = tmp_path / "override"
    assert run(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "sequence.txt").exists()


def test_help_enumerates_all_flags():
    parser = build_parser()
    sub_actions = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
    )
    for command in COMMANDS:
        sub = sub_actions.choices[command]
        text = sub.format_help()
        for flag in ("--config", "--out", "--seed", "--checkpoints"):
            assert flag in text, (command, flag)
        for flag in _SUBCOMMAND_FLAGS[command]:
            assert flag in text, (command, flag)


def test_no_input_mutation(tmp_path):
    src = tmp_path / "weights.txt"
    write_sequence(src, mobius_sequence(200))
    before = src.read_bytes()
    out = tmp_path / "o"
    assert run(
        [
            "average",
            "--generator", "file", "--path", str(src),
            "--n", "200", "--coeffs", "0,0.5",
            "--out", str(out),
        ]
    ) == 0
    assert src.read_bytes() == before


def test_module_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "oscillab.cli",
            "generate",
            "--generator",
            "rademacher",
            "--seed",
            "3",
            "--n",
            "16",
            "--out",
            str(tmp_path / "sp"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-m", "oscillab.cli", "generate", "--generator", "nope",
         "--n", "4", "--out", str(tmp_path / "bad")],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1
    assert "generator" in bad.stderr


def test_estimate_order_rejects_grid_below_two(tmp_path, capsys):
    base = ["estimate-order", "--generator", "mobius", "--n", "1000",
            "--checkpoints", "250,500,1000"]
    assert run(base + ["--grid", "1", "--out", str(tmp_path / "g1")]) == 1
    assert capsys.readouterr().err.startswith("error: grid:")
    # A config grid of 0 is an invalid pitch, not "use the default".
    config = ExperimentConfig(
        command="estimate-order",
        params={"generator": "mobius", "n": 1000, "grid": 0},
        out_dir=str(tmp_path / "g0"),
        checkpoints=(250, 500, 1000),
    )
    cfg = tmp_path / "grid0.json"
    cfg.write_text(config.serialize())
    assert run(["estimate-order", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: grid:")


def test_lsk_check_rejects_grid_below_two(tmp_path, capsys):
    status = run(["lsk-check", "--seeds", "1", "--d", "1", "--n-list", "256,512",
                  "--grid", "1", "--out", str(tmp_path / "l")])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: grid:")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("grid", ["estimate-order", "--generator", "mobius", "--n", "1000",
                  "--checkpoints", "250,500,1000", "--grid", "10"]),
        ("grid", ["estimate-order", "--generator", "mobius", "--n", "1000",
                  "--checkpoints", "250,500,1000", "--grid", "12"]),
        ("grid", ["lsk-check", "--seeds", "1", "--d", "1", "--n-list", "256,512", "--grid", "10"]),
        ("grid-size", ["scan-spectrum", "--generator", "mobius", "--n", "2000",
                       "--grid-size", "1000", "--refine"]),
    ],
)
def test_search_pitch_must_be_a_power_of_two(tmp_path, capsys, flag, argv):
    """Only a power-of-two pitch puts the refinement's start and steps on floats."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: must be a power of two")
    assert not out.exists() or [p.name for p in out.iterdir()] == []


def test_plain_spectrum_scan_takes_any_grid_size(tmp_path):
    out = tmp_path / "out"
    argv = ["scan-spectrum", "--generator", "mobius", "--n", "2000", "--grid-size", "1000"]
    assert run(argv + ["--out", str(out)]) == 0
    assert len((out / "spectrum.csv").read_text().splitlines()) == 1001


def test_spectrum_csv_is_the_ranked_scan_across_chunks(tmp_path):
    """M = 65,536 rows span four CSV chunks; the file is the scan's rows and --refine starts at row 0."""
    m, n = 4 * _CSV_CHUNK_ROWS, 3000
    out = tmp_path / "out"
    argv = ["scan-spectrum", "--generator", "mobius", "--n", str(n), "--grid-size", str(m), "--refine"]
    assert run(argv + ["--out", str(out)]) == 0
    scan = fourier_bohr_scan(mobius_sequence(n), m, n)
    expected = "frequency,modulus\n" + "".join("%.17g,%.17g\n" % row for row in scan)
    assert (out / "spectrum.csv").read_text() == expected
    refined = json.loads((out / "spectrum_refined.json").read_text())
    assert (refined["grid_peak_frequency"], refined["grid_peak_modulus"]) == scan[0]


@pytest.mark.parametrize(
    "field, command, params, checkpoints",
    [
        ("grid_size", "scan-spectrum", {"generator": "mobius", "n": 100, "grid_size": 64, "refnie": True}, None),
        ("refnie", "scan-spectrum", {"generator": "mobius", "n": 100, "grid-size": 64, "refnie": True}, None),
        ("ell", "average", {"generator": "mobius", "n": 100, "coeffs": "0,0.5", "ell": 2}, None),
        ("seed", "lsk-check", {"seeds": "1", "d": 1, "n-list": "256,512", "seed": 3}, None),
        ("checkpoints", "scan-spectrum", {"generator": "mobius", "n": 100}, [10, 20]),
        ("checkpoints", "lsk-check", {"seeds": "1", "d": 1, "n-list": "256,512"}, [256]),
    ],
    ids=["scan-underscore-key", "scan-misspelt-flag", "average-ell", "lsk-seed", "scan-checkpoints",
         "lsk-checkpoints"],
)
def test_config_keys_no_runner_reads_exit_one(tmp_path, capsys, field, command, params, checkpoints):
    """A params key the command has no flag for, or checkpoints it does not take, exit 1 before any run."""
    out = tmp_path / "out"
    config = ExperimentConfig(command=command, params=params, out_dir=str(out), checkpoints=checkpoints)
    cfg = tmp_path / "keys.json"
    cfg.write_text(config.serialize())
    assert run([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_checkpoints_flag_on_a_scan_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["scan-spectrum", "--generator", "mobius", "--n", "100", "--checkpoints", "10,20"]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoints: scan-spectrum takes no checkpoints")
    assert not out.exists()


_AVERAGE = ["average", "--n", "100", "--coeffs", "0,0.5"]
_MULTI = ["multi-average", "--m", "2", "--alpha", "0.3", "--x", "0.25,0.5", "--chars", "0,1", "--qs", "0,1", "--n", "100"]


@pytest.mark.parametrize(
    "field, argv, config",
    [
        ("alpha", _AVERAGE + ["--generator", "mobius", "--alpha", "0.3", "--power", "7"], None),
        ("path", ["generate", "--generator", "polyphase", "--alpha", "0.3", "--power", "2", "--n", "10",
                  "--path", "x.txt"], None),
        ("power", ["generate", "--generator", "liouville", "--n", "10", "--power", "2"], None),
        ("seed", _AVERAGE + ["--generator", "mobius", "--seed", "3"], None),
        ("seed", ["average"], {"params": {"generator": "mobius", "n": 100, "coeffs": "0,0.5", "seed": 3}}),
        ("seed", ["generate"], {"params": {"generator": "polyphase", "alpha": 0.3, "power": 2, "n": 10}, "seed": 3}),
        ("sed", _MULTI + ["--weights", '{"generator":"mobius","sed":1,"n":5}'], None),
        ("n", _MULTI + ["--weights", '{"generator":"mobius","n":5}'], None),
        ("alpha", _MULTI + ["--weights", '{"generator":"rademacher","seed":1,"alpha":0.3}'], None),
        ("seed", _MULTI + ["--weights", '{"generator":"liouville"}', "--seed", "3"], None),
        ("seed", ["simulate-torus", "--m", "2", "--alpha", "0.3", "--x", "0.1,0.2", "--steps", "5", "--seed", "1"], None),
        ("seed", ["verify-tower", "--m", "2", "--alpha", "0.3", "--x", "0.1,0.2", "--freqs", "0,1", "--n-max", "10",
                  "--seed", "1"], None),
        ("seed", ["simulate-padic", "--p", "3", "--a", "4", "--b", "1", "--x0", "0", "--steps", "5", "--seed", "1"], None),
        ("seed", ["census", "--p", "3", "--a", "4", "--b", "1", "--x0", "0", "--level", "2", "--steps", "9",
                  "--seed", "5"], None),
        ("seed", ["subnormal-check", "--distribution", "rademacher", "--seed", "1"], None),
        ("seed", ["census"], {"params": {"p": 3, "a": 4, "b": 1, "x0": 0, "level": 2, "steps": 9}, "seed": 5}),
    ],
    ids=["mobius-alpha", "polyphase-path", "liouville-power", "mobius-seed-flag", "mobius-params-seed",
         "polyphase-config-seed", "weights-sed", "weights-n", "weights-rademacher-alpha", "weights-liouville-seed",
         "simulate-torus-seed", "verify-tower-seed", "simulate-padic-seed", "census-seed", "subnormal-check-seed",
         "census-config-seed"],
)
def test_values_no_runner_reads_exit_one(tmp_path, capsys, field, argv, config):
    """A generator key, --weights key or seed that no runner reads exits 1 naming it, before any run."""
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": argv[0], **config}))
        argv = argv + ["--config", str(cfg)]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_refined_scan_above_the_least_step_exits_one(tmp_path, capsys):
    """--refine starts at step 1/M; past M = 2^16 that is below ``MIN_STEP``, so no sweep would run."""
    out = tmp_path / "out"
    argv = ["scan-spectrum", "--generator", "mobius", "--n", "1000", "--grid-size", "131072", "--refine"]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: grid-size: at most 65536 with --refine")
    assert not (out / "spectrum.csv").exists()
    assert run(argv[:-1] + ["--out", str(out)]) == 0


def test_config_weight_seed_is_read(tmp_path):
    """A weight seed in params is a config-only key, not an unknown one (multi-average reads ell)."""
    for seed in (4, 5):
        config = ExperimentConfig(
            command="average",
            params={"generator": "rademacher", "seed": seed, "n": 100, "coeffs": "0,0.5"},
            out_dir=str(tmp_path / str(seed)),
        )
        cfg = tmp_path / f"seed{seed}.json"
        cfg.write_text(config.serialize())
        assert run(["average", "--config", str(cfg)]) == 0
    assert (tmp_path / "4" / "average.csv").read_text() != (tmp_path / "5" / "average.csv").read_text()


def test_lsk_check_rejects_length_one(tmp_path, capsys):
    out = tmp_path / "l"
    status = run(["lsk-check", "--seeds", "1", "--d", "1", "--n-list", "1,4,8",
                  "--out", str(out)])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: n-list:")
    assert not (out / "lsk.csv").exists()


@pytest.mark.parametrize(
    "field, argv",
    [
        ("coeffs", ["average", "--generator", "mobius", "--n", "100", "--coeffs", "0,a"]),
        ("scale", ["subnormal-check", "--distribution", "rademacher", "--scale", "x"]),
        ("seeds", ["lsk-check", "--seeds", "1,x", "--d", "1", "--n-list", "256"]),
        ("checkpoints", ["average", "--generator", "mobius", "--n", "100",
                         "--coeffs", "0,0.5", "--checkpoints", "10,x"]),
        ("grid", ["estimate-order", "--generator", "mobius", "--n", "1000", "--grid", "x"]),
        ("qs", ["multi-average", "--m", "2", "--alpha", "0.3", "--x", "0.25,0.5",
                "--chars", "0,1", "--qs", "0,x", "--n", "100",
                "--weights", '{"generator":"mobius"}']),
        ("weights", ["multi-average", "--m", "2", "--alpha", "0.3", "--x", "0.25,0.5",
                     "--chars", "0,1", "--qs", "0,1", "--n", "100",
                     "--weights", '{"generator":']),
    ],
)
def test_parse_errors_name_their_field(tmp_path, capsys, field, argv):
    assert run(argv + ["--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_config_checkpoint_error_names_field(tmp_path, capsys):
    config = ExperimentConfig(
        command="average",
        params={"generator": "mobius", "n": 100, "coeffs": "0,0.5"},
        out_dir=str(tmp_path / "out"),
        checkpoints=(10, "x"),
    )
    cfg = tmp_path / "cps.json"
    cfg.write_text(config.serialize())
    assert run(["average", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoints:")


@pytest.mark.parametrize(
    "field, n, checkpoints",
    [
        ("n", 1000.9, None),
        ("checkpoints", 1000, [250.5, 500.2, 1000.9]),
        ("n", 1000.9, [250.5, 500.2, 1000.9]),
    ],
)
def test_config_fractional_integers_exit_one(tmp_path, capsys, field, n, checkpoints):
    config = ExperimentConfig(
        command="average",
        params={"generator": "mobius", "n": n, "coeffs": "0,0.5"},
        out_dir=str(tmp_path / "out"),
        checkpoints=checkpoints,
    )
    cfg = tmp_path / "fractional.json"
    cfg.write_text(config.serialize())
    assert run(["average", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: expected an integer")
    assert not (tmp_path / "out" / "average.csv").exists()


def test_config_integral_json_numbers_are_integers(tmp_path):
    cfg = tmp_path / "integral.json"
    cfg.write_text(json.dumps({
        "command": "average",
        "params": {"generator": "mobius", "n": 1e3, "coeffs": "0,0.5"},
        "checkpoints": [2.5e2, 500, 1e3],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["average", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "average.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["250", "500", "1000"]


def test_config_checkpoint_text_reads_as_the_flag(tmp_path):
    """A JSON string "125" is checkpoint 125, as --checkpoints 125 is, not (1, 2, 5)."""
    cfg = tmp_path / "text.json"
    cfg.write_text(json.dumps({
        "command": "average",
        "params": {"generator": "mobius", "n": 200, "coeffs": "0,0.5"},
        "checkpoints": "125",
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["average", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "average.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["125"]


@pytest.mark.parametrize("refine", ["false", "true", 0, 1])
def test_config_refine_must_be_a_boolean(tmp_path, capsys, refine):
    """Text or numbers for ``refine`` exit 1 naming it; "false" used to turn refinement on."""
    cfg = tmp_path / "refine.json"
    cfg.write_text(json.dumps({
        "command": "scan-spectrum",
        "params": {"generator": "mobius", "n": 2000, "grid-size": 64, "refine": refine},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["scan-spectrum", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: refine: expected true or false")
    assert not (tmp_path / "out" / "spectrum_refined.json").exists()


@pytest.mark.parametrize("refine, refined", [(False, False), (True, True), (None, False)])
def test_config_refine_boolean(tmp_path, refine, refined):
    cfg = tmp_path / "refine.json"
    cfg.write_text(json.dumps({
        "command": "scan-spectrum",
        "params": {"generator": "mobius", "n": 2000, "grid-size": 64, "refine": refine},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["scan-spectrum", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "spectrum_refined.json").exists() == refined
    flag_out = tmp_path / "flag"
    argv = ["scan-spectrum", "--generator", "mobius", "--n", "2000", "--grid-size", "64"]
    assert run(argv + ["--refine", "--out", str(flag_out)]) == 0
    assert (flag_out / "spectrum_refined.json").exists()


def test_import_loads_no_scipy():
    """The package and its CLI run on numpy alone."""
    code = "import sys, oscillab, oscillab.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def readme_commands() -> list[list[str]]:
    """Every ``oscillab ...`` line of the README "Command line" block, split into argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("oscillab ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 9
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def readme_outputs() -> dict[str, set[str]]:
    """The files the README "Command line" section lists for each command, as ``- `cmd`: `file`, ...``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([a-z-]+)`: (.+)$", section, flags=re.MULTILINE)
    return {command: set(re.findall(r"`([^`]+)`", files)) for command, files in listed}


def test_readme_commands_run(tmp_path):
    """Every README command exits 0 and writes manifest.json and the files the README lists for it."""
    commands = readme_commands()
    outputs = readme_outputs()
    assert sorted(outputs) == sorted(COMMANDS)
    for argv in commands:
        out = tmp_path / argv[0]
        at = argv.index("--out")
        assert run(argv[:at] + ["--out", str(out)] + argv[at + 2 :]) == 0, argv
        assert {p.name for p in out.iterdir()} == outputs[argv[0]] | {"manifest.json"}, argv[0]


def test_readme_estimate_order_reports_its_grid(tmp_path):
    """The README example's report says which pitch each degree used and what the grid found.

    The grid folds residues and the refinement streams terms, so where
    the refinement keeps the grid point the two values of that one point
    can differ in their last bits: ``grid_sup <= sup`` is checked to the
    benchmark gate's 1e-12.
    """
    [argv] = [a for a in readme_commands() if a[0] == "estimate-order"]
    out = tmp_path / "order"
    assert run(argv[: argv.index("--out")] + ["--out", str(out)]) == 0
    report = json.loads((out / "oscillation.json").read_text())
    assert [prof["degree"] for prof in report] == [1, 2]
    for prof in report:
        assert prof["grid_per_dim"] == 16
        for cp in prof["checkpoints"]:
            assert 0 < cp["grid_sup"] <= cp["sup"] + 1e-12


_RETAINED_AFTER_FREE = """
import sys

import numpy as np

from oscillab import cli


def rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024


if sys.argv[1] == "pinned":
    cli._fix_malloc_thresholds()
# Freeing a 24 MB mapping lets glibc raise its mmap threshold past 16 MB.
big = np.ones(3 << 20)
del big
before = rss_mb()
middle = np.ones(2 << 20)
del middle
print(rss_mb() - before)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not Path("/proc/self/status").exists(),
    reason="the thresholds are glibc's; RSS is read from /proc",
)
def test_cli_pins_malloc_thresholds():
    """A 16 MB array freed after a larger one is returned once main pins the thresholds."""

    def retained_mb(mode):
        result = subprocess.run(
            [sys.executable, "-c", _RETAINED_AFTER_FREE, mode],
            capture_output=True, text=True, check=True,
        )
        return float(result.stdout)

    assert retained_mb("dynamic") > 12
    assert retained_mb("pinned") < 4


_RELEASED_AT_START = """
import numpy as np

from oscillab import cli


def rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024


cli._fix_malloc_thresholds()
# 1 MB arrays stay below the pinned mmap threshold, so they live in the
# heap; the last one, still alive, keeps the heap's top from shrinking.
blocks = [np.ones(1 << 17) for _ in range(9)]
del blocks[:8]
before = rss_mb()
cli._fix_malloc_thresholds()
print(before - rss_mb())
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not Path("/proc/self/status").exists(),
    reason="malloc_trim is glibc's; RSS is read from /proc",
)
def test_cli_returns_free_heap_pages_at_command_start():
    """8 MB freed below a live heap top is resident until main starts the next command."""
    result = subprocess.run(
        [sys.executable, "-c", _RELEASED_AT_START], capture_output=True, text=True, check=True
    )
    assert float(result.stdout) > 6

