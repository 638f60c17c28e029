"""In-memory span tracing of oscillab's public functions, from outside the package.

``instrument`` wraps every public function defined in the traced modules
and rebinds the wrapper under every name that refers to the original in
any ``oscillab`` module namespace (the package itself and ``oscillab.cli``
included), so calls made through ``from .x import y`` imports are traced
too.  Private names are never touched, and everything is restored on
exit.  Nothing under ``src/`` changes.

A span is (id, name, parent id, start, end, work).  ``work`` holds the
counts a layer did, computed from the call's arguments and output only:
stream terms, grid points, tower terms, p-adic terms and file bytes.
"""

import inspect
import os
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = (
    "sequences",
    "polyphase",
    "oscillation",
    "torus",
    "padic",
    "probabilistic",
    "cli",
)


def _phase_stream_work(args, result):
    return {"terms": int(args["count"])}


def _grid_work(args, result):
    return {"points": int(args["grid_per_dim"]) ** int(args["degree"])}


def _tower_work(args, result):
    return {"terms": int(args["n_max"]) + 1}


def _padic_work(args, result):
    return {"terms": max(int(c) for c in args["checkpoints"])}


def _file_bytes_work(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Work counts per traced function, derived from arguments and outputs.
_WORK = {
    "polyphase.phase_stream": _phase_stream_work,
    "oscillation.grid_sup_average": _grid_work,
    "torus.verify_factorization": _tower_work,
    "padic.padic_weighted_average": _padic_work,
    "sequences.write_sequence": _file_bytes_work,
    "sequences.read_sequence": _file_bytes_work,
}


class Tracer:
    """Collects spans in memory; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        work = _WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            bound = None
            if work is not None or name == "cli.run_experiment":
                bound = signature.bind(*args, **kwargs).arguments
            if name == "cli.run_experiment":
                span_name = f"{name}.{bound['config'].command}"
            span = {
                "id": len(tracer.spans),
                "name": span_name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "start": time.perf_counter(),
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                span["work"] = work(bound, result)
            return result

        return traced


@contextmanager
def instrument(tracer):
    """Rebind every public oscillab function to a traced wrapper while active."""
    package = sys.modules["oscillab"]
    namespaces = [package] + [
        module
        for key, module in sys.modules.items()
        if key.startswith("oscillab.") and module is not None
    ]
    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"oscillab.{short}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrappers[id(value)] = (value, tracer.wrap(f"{short}.{attr}", value))
    saved = []
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if attr.startswith("_") or id(value) not in wrappers:
                continue
            original, wrapper = wrappers[id(value)]
            if value is original:
                saved.append((namespace, attr, original))
                setattr(namespace, attr, wrapper)
    try:
        yield tracer
    finally:
        for namespace, attr, original in saved:
            setattr(namespace, attr, original)


def layer_totals(spans):
    """Per span name: calls, busy time, self time, summed work, child counts.

    Self time is a span's duration minus the time covered by its child
    spans; children run sequentially inside their parent, so that is
    the sum of their durations.
    """
    child_time = {}
    child_calls = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span["end"] - span["start"]
            key = (parent, span["name"])
            child_calls[key] = child_calls.get(key, 0) + 1
    totals = {}
    for span in spans:
        entry = totals.setdefault(
            span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": {}, "children": {}}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time.get(span["id"], 0.0)
        for key, value in span.get("work", {}).items():
            entry["work"][key] = entry["work"].get(key, 0) + value
    by_id = {span["id"]: span for span in spans}
    for (parent, child_name), count in child_calls.items():
        children = totals[by_id[parent]["name"]]["children"]
        children[child_name] = children.get(child_name, 0) + count
    return totals
