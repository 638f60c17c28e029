"""oscillab benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload order-search --seed 1 --seconds 30 --trace 0

The workload's inputs are drawn from ``--seed``.  Passes of the
workload's operations run back to back while the next one is expected
to end within ``--seconds`` (at least one pass runs).  With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (tracing off); with ``--trace 1`` untraced and traced
passes alternate and the JSON holds the per-layer metrics, including
the tracing overhead.  Checks of every output run after the timed
passes.  A full record (host, versions, inputs, per-pass times, checks,
spans) is written under ``bench/out/``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Host-speed calibration.  On a shared host the speed of one core swings
#: by up to 2x within seconds as other tenants load it, and every timing
#: here moves with it.  During an untraced pass a SIGALRM handler runs
#: every SAMPLE_INTERVAL_S and times a small fixed kernel that never
#: touches oscillab: exact big-int powers, complex exponentials over
#: 1.6 MB, and 17-digit float formatting, the lab's three kinds of work.
#: Sampling through the whole pass follows the swings inside long
#: operations, and a kernel that leaves the L1 and L2 caches slows down
#: with the lab; a cache-resident kernel or one timed only between
#: operations left twice the noise.  The handler's time is subtracted
#: from the operations it interrupted, and the pass is reported scaled by
#: REFERENCE_KERNEL_S / (mean kernel time of the pass), i.e. in seconds
#: of a host on which the kernel takes REFERENCE_KERNEL_S.  Raw wall
#: times stay in the record.
SAMPLE_INTERVAL_S = 0.1
REFERENCE_KERNEL_S = 0.005
_KERNEL_PHASES = np.linspace(0.0, 1.0, 100_001)[:-1]


def _kernel():
    for i in range(150):
        pow(0x9E3779B97F4A7C15 + i, 65537, (1 << 127) - 1)
    np.cumsum(np.exp(2j * np.pi * _KERNEL_PHASES))
    " ".join(f"{v:.17g}" for v in _KERNEL_PHASES[:500].tolist())


class HostSpeed:
    """Times the calibration kernel every SAMPLE_INTERVAL_S while active."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        started = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, seconds):
        """``seconds`` at reference host speed."""
        return seconds * REFERENCE_KERNEL_S / statistics.fmean(self.samples)


END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
    "sup_found": "modulus",
}

#: Per-layer metrics and units.  Each name is ``<span name>.<quantity>``.
PER_LAYER = {
    "polyphase.phase_stream.calls": "count",
    "polyphase.phase_stream.terms": "count",
    "polyphase.phase_stream.self_s": "s",
    "polyphase.phase_stream.ns_per_term": "ns",
    "polyphase.unit_values.self_s": "s",
    "polyphase.weighted_exponential_average.self_s": "s",
    "polyphase.fourier_bohr_scan.self_s": "s",
    "oscillation.refine_local.calls": "count",
    "oscillation.refine_local.evals": "count",
    "oscillation.refine_local.self_s": "s",
    "oscillation.refine_local.busy_s": "s",
    "oscillation.grid_sup_average.self_s": "s",
    "oscillation.grid_sup_average.points": "count",
    "oscillation.estimate_oscillation_profile.busy_s": "s",
    "probabilistic.lsk_empirical_sup.busy_s": "s",
    "sequences.mobius_sequence.self_s": "s",
    "sequences.rademacher_sequence.self_s": "s",
    "sequences.write_sequence.self_s": "s",
    "sequences.write_sequence.bytes": "bytes",
    "sequences.write_sequence.mb_per_s": "MB/s",
    "sequences.read_sequence.self_s": "s",
    "sequences.read_sequence.bytes": "bytes",
    "sequences.read_sequence.mb_per_s": "MB/s",
    "torus.verify_factorization.self_s": "s",
    "torus.verify_factorization.terms": "count",
    "torus.multiple_ergodic_average.self_s": "s",
    "padic.padic_weighted_average.self_s": "s",
    "padic.padic_weighted_average.terms": "count",
    **{
        f"cli.run_experiment.{command}.busy_s": "s"
        for command in ("estimate-order", "lsk-check", "average", "scan-spectrum", "multi-average", "generate")
    },
    "cli.emit_report.self_s": "s",
}

TRACE_OVERHEAD = {
    "trace.untraced_experiment_s": "s",
    "trace.traced_experiment_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values):
    """(q1, median, q3) of the samples; a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure_setup():
    """Wall times of fresh interpreters through ``import oscillab``.

    These are not host-scaled: a calibration kernel timed around the
    samples did not track process start-up, and scaling widened the
    spread as often as it narrowed it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import oscillab"], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - started)
    return samples


def host_record():
    import scipy

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    model = None
    cpuinfo = read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}-{kind}"] = size
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or "unknown",
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def fingerprint(out_dir, results):
    """Digest of every output file except the timing-bearing manifests, plus library results."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest.update(str(path.relative_to(out_dir)).encode())
            digest.update(path.read_bytes())
    for value in results:
        digest.update(repr(value).encode())
    return digest.hexdigest()


def run_pass(workload, out, tracer):
    """One closed-loop pass.

    Returns (per-op seconds, host-scaled pass seconds, kernel samples,
    library results, failures).  An untraced pass samples host speed and leaves the
    sampling time out of the operation times; a traced pass does not
    sample, so that spans hold only the lab's own time, and is not
    scaled.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    op_times, results, failures = {}, [], []
    speed = HostSpeed()
    with spans.instrument(tracer) if tracer is not None else speed:
        for op in workload.operations(out):
            spent = speed.spent
            started = time.perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                value = None
            op_times[op.label] = time.perf_counter() - started - (speed.spent - spent)
            if op.command is None:
                results.append(value)
            elif value != 0:
                failures.append(f"{op.label}: exit status {value}")
    raw = sum(op_times.values())
    scaled = speed.scaled(raw) if speed.samples else raw
    return op_times, scaled, speed.samples, results, failures


def collect_passes(workload, seconds, trace, out):
    """Passes back to back until the next one would overrun ``seconds``.

    At least one pass runs; with tracing, untraced and traced passes
    alternate and at least one of each runs.
    """
    passes, layer_runs, traces, failures, results = [], [], [], [], []
    measured = 0.0
    while True:
        tracer = spans.Tracer() if trace and len(passes) % 2 == 1 else None
        op_times, scaled, kernels, results, pass_failures = run_pass(workload, out, tracer)
        raw = sum(op_times.values())
        measured += raw
        failures += pass_failures
        passes.append({
            "traced": tracer is not None,
            "raw_s": raw,
            "seconds": scaled,
            "kernel_samples": len(kernels),
            "kernel_mean_s": statistics.fmean(kernels) if kernels else None,
            "operations": op_times,
            "digest": fingerprint(out, results),
        })
        if tracer is not None:
            layer_runs.append(layer_metrics(tracer))
            traces.append(tracer.spans)
        if len(passes) >= 1 + trace and measured + raw > seconds:
            return passes, layer_runs, traces, failures, results


def layer_metrics(tracer):
    """Every per-layer metric of one traced pass; a layer the pass never called reads 0."""
    totals = spans.layer_totals(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": {}, "children": {}}
    values = {}
    for name in PER_LAYER:
        span_name, quantity = name.rsplit(".", 1)
        entry = totals.get(span_name, empty)
        if quantity in ("calls", "busy_s", "self_s"):
            value = entry[quantity]
        elif quantity == "evals":
            value = entry["children"].get("polyphase.phase_stream", 0)
        elif quantity == "ns_per_term":
            terms = entry["work"].get("terms", 0)
            value = entry["self_s"] * 1e9 / terms if terms else 0.0
        elif quantity == "mb_per_s":
            value = entry["work"].get("bytes", 0) / 1e6 / entry["self_s"] if entry["self_s"] else 0.0
        else:
            value = entry["work"].get(quantity, 0)
        values[name] = value
    return values


def import_program():
    """Import oscillab from this checkout's ``src/``; None when it is not there."""
    if not (SRC / "oscillab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import oscillab

    if Path(oscillab.__file__).resolve().parent != SRC / "oscillab":
        return None
    return oscillab


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if import_program() is None:
        print(f"error: no oscillab package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_samples = measure_setup() if args.trace == 0 else []
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    out = OUT / tag / "pass"

    passes, layer_runs, traces, failures, results = collect_passes(
        workload, args.seconds, args.trace, out
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    checks, sup_found, extras = [], 0.0, {}
    if not failures:
        try:
            checks = workload.checks(out, results)
            sup_found = workload.sup_found(out, results)
            extras = workload.extras(out, results)
        except Exception as exc:  # an unreadable output fails the run, it does not crash it
            checks = [workloads.Check("outputs could be read back", False, f"{type(exc).__name__}: {exc}")]
    digests = {p["digest"] for p in passes}
    checks.append(workloads.Check(
        "every pass wrote identical outputs", len(digests) == 1,
        f"{len(digests)} distinct output digests over {len(passes)} passes",
    ))
    passed = sum(c.ok for c in checks)
    correct = not failures and all(c.ok for c in checks if c.gate)
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    q1, median, q3 = quartiles(untraced)
    raw_q1, raw_median, raw_q3 = quartiles([p["raw_s"] for p in passes if not p["traced"]])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process, no think time",
        "host": host_record(),
        "inputs": workload.inputs(),
        "passes": passes,
        "experiment_s": {"median": median, "q1": q1, "q3": q3, "samples": len(untraced),
                         "raw_median": raw_median, "raw_q1": raw_q1, "raw_q3": raw_q3},
        "failures": failures,
        "checks": [vars(c) for c in checks],
        "extras": extras,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "experiment_s": median,
            "peak_rss_mb": peak_rss_mb,
            "pass_share": passed / len(checks),
            "sup_found": sup_found,
        }
        units = END_TO_END_UNITS
        record["setup_s"] = {"samples": setup_samples}
    else:
        metrics = {name: statistics.median(run[name] for run in layer_runs) for name in PER_LAYER}
        traced_median = statistics.median(p["raw_s"] for p in passes if p["traced"])
        metrics["trace.untraced_experiment_s"] = raw_median
        metrics["trace.traced_experiment_s"] = traced_median
        metrics["trace.overhead_s"] = traced_median - raw_median
        units = {**PER_LAYER, **TRACE_OVERHEAD}
        record["spans"] = traces
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for label in passes[-1]["operations"]:
        times = [p["operations"][label] for p in passes if not p["traced"]]
        print(f"  op {label:<28} raw median {statistics.median(times):8.3f} s over {len(times)}")
    print(f"  experiment_s  median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  samples {len(untraced)}"
          f"  (raw wall: median {raw_median:.4f} s  q1 {raw_q1:.4f}  q3 {raw_q3:.4f})")
    print(f"  failed_share  {1 - passed / len(checks):.4f} ratio  ({len(checks) - passed} of {len(checks)} checks)")
    for c in checks:
        if not c.ok:
            print(f"  FAILED {'gate' if c.gate else 'verdict'} check: {c.name}: {c.detail}")
    for failure in failures:
        print(f"  FAILED operation {failure}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(len(p["operations"]) for p in passes),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
