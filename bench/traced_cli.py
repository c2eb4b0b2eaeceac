"""Run one consensim CLI command with every module boundary traced from outside.

Usage: python3 bench/traced_cli.py SPANS_FILE -- <consensim CLI arguments>

Each public function of graph, linalg, engine, agents and cli (plus the
CLI's own load and write helpers) is wrapped at every place it is looked
up: ``consensim.cli.null_vector`` and ``consensim.engine.null_vector`` are
separate names bound to the same function, so both are patched.  Every call
records a span (name, start, end, parent) in typed arrays, plus counts
read from return values.  The spans are written to SPANS_FILE (numpy .npz)
when the command ends, and the CLI's exit code is passed through.  Names
the program no longer has are skipped and listed in the file, so a refactor
degrades a metric to zero instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str, on_return=None, result_span: str | None = None):
        """Trace every call of fn as span; result_span also traces the callable it returns."""
        nid = self._name_id(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            if result_span is not None:
                result = self.wrap(result, result_span)
            return result

        return traced

    def patch(self, module: str, attr: str, span: str, on_return=None, result_span=None) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.missing.append(f"{module}.{attr}")
            return
        setattr(mod, attr, self.wrap(fn, span, on_return, result_span))

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({"counts": self.counts, "missing": self.missing})),
        )


def install(tracer: Tracer) -> None:
    """Patch every traced name where the program looks it up."""
    counts = tracer.counts

    def dense(result) -> None:
        # nbytes of the square 2-D arrays returned, directly or as dataclass fields
        for v in [result, *getattr(result, "__dict__", {}).values()]:
            if isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[0] == v.shape[1]:
                counts["engine.dense_bytes"] += v.nbytes

    def on_power_iteration(res) -> None:
        counts["linalg.power_iteration_iters"] += getattr(res, "iterations", 0)
        counts["linalg.power_iteration_converged"] += int(bool(getattr(res, "converged", False)))

    def on_run(trace) -> None:
        counts["engine.steps"] += getattr(trace, "steps_run", 0)

    def on_round(sent) -> None:
        counts["agents.messages"] += sent if isinstance(sent, int) else 0

    patches = [
        ("consensim.cli", "load_edge_list", "graph.load_edge_list", None),
        ("consensim.graph", "parse_edge_list", "graph.parse_edge_list", None),
        ("consensim.engine", "out_degrees", "graph.out_degrees", None),
        ("consensim.engine", "laplacian", "graph.laplacian", None),
        ("consensim.engine", "is_strongly_connected", "graph.is_strongly_connected", None),
        ("consensim.cli", "is_strongly_connected", "graph.is_strongly_connected", None),
        ("consensim.engine", "is_undirected", "graph.is_undirected", None),
        ("consensim.cli", "is_undirected", "graph.is_undirected", None),
        ("consensim.engine", "null_vector", "linalg.null_vector", None),
        ("consensim.cli", "null_vector", "linalg.null_vector", None),
        ("consensim.engine", "power_iteration", "linalg.power_iteration", on_power_iteration),
        ("consensim.cli", "build_system", "engine.build_system", dense),
        ("consensim.engine", "build_iteration_matrix", "engine.build_iteration_matrix", dense),
        ("consensim.cli", "predict", "engine.predict", None),
        ("consensim.cli", "run", "engine.run", on_run),
        # stepper factories are spans, and so is every call of the stepper they return
        ("consensim.engine", "matrix_stepper", "engine.matrix_stepper", None, "engine.matrix_step"),
        ("consensim.cli", "agent_stepper", "agents.agent_stepper", None, "agents.step"),
        ("consensim.agents", "build_agents", "agents.build_agents", None),
        ("consensim.agents", "step_round", "agents.step_round", on_round),
        ("consensim.cli", "_load_problem", "cli.load_problem", None),
        ("consensim.cli", "_write_trace_csv", "cli.write_trace", None),
        ("consensim.cli", "_summary_dict", "cli.summary_dict", None),
        ("consensim.cli", "cmd_check", "cli.check", None),
        ("consensim.cli", "cmd_run", "cli.run", None),
        ("consensim.cli", "cmd_compare", "cli.compare", None),
    ]
    for entry in patches:
        tracer.patch(*entry)

    # cli writes summary.json through json.dump; give it a json module whose dump is traced
    cli = importlib.import_module("consensim.cli")
    if isinstance(getattr(cli, "json", None), types.ModuleType):
        proxy = types.ModuleType("json")
        proxy.__dict__.update(cli.json.__dict__)
        proxy.dump = tracer.wrap(cli.json.dump, "cli.write_summary")
        cli.json = proxy
    else:
        tracer.missing.append("consensim.cli.json")


# unit and direction of every per-layer metric derived from the spans
LAYER_METRICS = {
    "graph.parse_s": ("s", "lower"),
    "graph.scc_s": ("s", "lower"),
    "graph.scc_calls": ("count", "lower"),
    "linalg.null_vector_s": ("s", "lower"),
    "linalg.null_vector_calls": ("count", "lower"),
    "linalg.power_iteration_s": ("s", "lower"),
    "linalg.power_iteration_iters": ("count", "lower"),
    "linalg.power_iteration_converged": ("ratio", "higher"),
    "engine.build_system_s": ("s", "lower"),
    "engine.build_iteration_matrix_s": ("s", "lower"),
    "engine.build_iteration_matrix_calls": ("count", "lower"),
    "engine.dense_bytes": ("bytes", "lower"),
    "engine.predict_s": ("s", "lower"),
    "engine.run_s": ("s", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.stepper_s": ("s", "lower"),
    "engine.step_us": ("us", "lower"),
    "engine.loop_s": ("s", "lower"),
    "agents.build_s": ("s", "lower"),
    "agents.round_s": ("s", "lower"),
    "agents.rounds": ("count", "lower"),
    "agents.round_us": ("us", "lower"),
    "agents.messages": ("count", "lower"),
    "cli.load_problem_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
}


def span_stats(path) -> dict:
    """Per span name: calls, total and self seconds; plus the recorded counts.

    A span's self time is its duration minus the durations of the spans it
    directly caused.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        meta = json.loads(str(z["meta"]))
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    self_s = np.bincount(name, weights=dur - child, minlength=k)
    stats = {
        nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, nm in enumerate(names)
    }
    return {"spans": stats, "counts": meta["counts"], "missing": meta["missing"]}


def merge_stats(parts: list[dict]) -> dict:
    """Sum span stats and counts over several commands."""
    spans: dict = {}
    counts: dict = {}
    for part in parts:
        for nm, st in part["spans"].items():
            acc = spans.setdefault(nm, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(stats: dict) -> dict[str, float]:
    """The per-layer metrics of LAYER_METRICS from (merged) span stats."""
    spans, counts = stats["spans"], stats["counts"]

    def total(nm: str) -> float:
        return spans.get(nm, {}).get("total_s", 0.0)

    def calls(nm: str) -> int:
        return spans.get(nm, {}).get("calls", 0)

    def per_call_us(nm: str) -> float:
        return 1e6 * total(nm) / calls(nm) if calls(nm) else 0.0

    power_calls = calls("linalg.power_iteration")
    return {
        "graph.parse_s": total("graph.load_edge_list"),
        "graph.scc_s": total("graph.is_strongly_connected"),
        "graph.scc_calls": calls("graph.is_strongly_connected"),
        "linalg.null_vector_s": total("linalg.null_vector"),
        "linalg.null_vector_calls": calls("linalg.null_vector"),
        "linalg.power_iteration_s": total("linalg.power_iteration"),
        "linalg.power_iteration_iters": counts.get("linalg.power_iteration_iters", 0),
        "linalg.power_iteration_converged": (
            counts.get("linalg.power_iteration_converged", 0) / power_calls if power_calls else 0.0
        ),
        "engine.build_system_s": total("engine.build_system"),
        "engine.build_iteration_matrix_s": total("engine.build_iteration_matrix"),
        "engine.build_iteration_matrix_calls": calls("engine.build_iteration_matrix"),
        "engine.dense_bytes": counts.get("engine.dense_bytes", 0),
        "engine.predict_s": total("engine.predict"),
        "engine.run_s": total("engine.run"),
        "engine.steps": counts.get("engine.steps", 0),
        "engine.stepper_s": total("engine.matrix_step"),
        "engine.step_us": per_call_us("engine.matrix_step"),
        "engine.loop_s": spans.get("engine.run", {}).get("self_s", 0.0),
        "agents.build_s": total("agents.agent_stepper"),
        "agents.round_s": total("agents.step_round"),
        "agents.rounds": calls("agents.step_round"),
        "agents.round_us": per_call_us("agents.step_round"),
        "agents.messages": counts.get("agents.messages", 0),
        "cli.load_problem_s": total("cli.load_problem"),
        "cli.write_s": total("cli.write_trace") + total("cli.write_summary"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("consensim.cli")
    try:
        return tracer.wrap(cli.main, "cli.main")(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
