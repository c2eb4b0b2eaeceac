"""consensim benchmark: drive the real CLI on seeded inputs and report metrics.

Usage, from the root of a checkout (the directory holding src/consensim):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI command runs as a fresh process (``python3 -m consensim``, with
PYTHONPATH pointing at the checkout's src/), one at a time, on inputs built
from the seed by bench/gen.py.  The benchmark and its children are pinned to
one CPU, so BLAS gets one thread.  A round runs check, run and compare once
each, plus set-up probes; rounds repeat until the next one would overrun
--seconds, and every reported time is the median over rounds.  Each time is
the process's wall time scaled to a reference CPU speed by
bench/speedprobe.py, which times fixed bursts of work on the same CPU while
the process runs; the raw wall times are printed and recorded beside them.
Each invocation's exit code and outputs are checked against bench/oracle.py;
failures are counted, never retried.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every command twice
per round, once plainly and once under bench/traced_cli.py, and reports the
per-layer metrics from the traced run plus the tracing overhead (traced
minus plain wall time).  Work files and a full result record (environment,
input hashes, per-round samples) go to .bench_work/ in the checkout.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from envstamp import (  # noqa: E402
    BLAS_THREAD_VARS,
    checkout_root,
    child_env,
    environment_stamp,
    pin_to_one_cpu,
    thread_cap,
)

# pinned before any thread or child starts, so the speed probe and every CLI
# process share this CPU; the probe's BLAS call gets the children's thread
# cap, which BLAS reads when numpy is first imported, below
CPU = pin_to_one_cpu()
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(thread_cap())

import gen  # noqa: E402
import oracle  # noqa: E402
from speedprobe import REFERENCE_BURST_S, SpeedProbe  # noqa: E402
from traced_cli import LAYER_METRICS, layer_metrics, merge_stats, span_stats  # noqa: E402

COMMANDS = ("check", "run", "compare")
# set-up probes per round, so that set-up is sampled across the whole run
SETUP_PER_ROUND = 2
# a process still running this long after the measuring budget is spent is
# killed and counted as failed; with --seconds 40 the benchmark ends within 180 s
DEADLINE_MARGIN_S = 130.0


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    # compare runs both modes to convergence unless capped; a cap keeps the
    # agent half from dominating a workload built to stress another layer
    compare_max_steps: int | None


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "certify-large": Workload("ring-chords", 1000, 50),
    "iterate-long": Workload("cycle", 85, 2000),
    "agents-lockstep": Workload("grid", 64, None),
}

END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "run_s": "s",
    "compare_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# every per-layer metric: those derived from spans, plus three measured here
PER_LAYER = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
PER_LAYER.update(
    {"cli.output_bytes": "bytes", "cli.stdout_bytes": "bytes", "trace.overhead_s": "s"}
)


@dataclass
class Invocation:
    code: int
    time_s: float  # wall time at the reference speed
    wall_s: float
    burst_s: float  # the speed probe's mean burst while the process ran
    rss_mb: float
    stdout: str


def invoke(argv: list[str], env: dict, cwd: Path, log_stem: Path, timeout: float) -> Invocation:
    """Run one process to completion; wall time, exit code and peak RSS from wait4."""
    with open(f"{log_stem}.stdout", "wb") as out, open(f"{log_stem}.stderr", "wb") as err:
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(f"{log_stem}.stdout").read_text(encoding="utf-8", errors="replace")
    return Invocation(
        proc.returncode,
        probe.scaled(wall),
        wall,
        probe.mean_burst_s,
        usage.ru_maxrss / 1024.0,
        stdout,
    )


class Bench:
    """One benchmark run: inputs, reference answer, and the CLI invocations."""

    def __init__(self, root: Path, name: str, seed: int, seconds: float, trace: bool):
        self.deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
        self.root = root
        self.workload = WORKLOADS[name]
        self.trace = trace
        self.work = root / ".bench_work" / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cap = thread_cap()
        self.env = child_env(root, self.cap)
        wl = self.workload
        self.inputs = gen.generate(wl.family, wl.n, seed)
        self.paths = gen.write_inputs(self.inputs, self.work / "inputs")
        self.hashes = gen.file_hashes(self.paths)
        inp = self.inputs
        self.alpha = oracle.reference_alpha(inp.n, inp.edges, inp.w, inp.x0)
        self.scale = max(1.0, max(abs(x) for x in self.inputs.x0))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def invoke(self, argv: list[str], log_stem: Path) -> Invocation:
        timeout = max(1.0, self.deadline - time.monotonic())
        return invoke(argv, self.env, self.work, log_stem, timeout)

    def setup_time(self) -> Invocation:
        """One fresh set-up process, which must load the checkout's source."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py")] + [
            str(self.paths[k]) for k in ("graph", "weights", "x0")
        ]
        inv = self.invoke(argv, self.work / "setup")
        loaded = Path(inv.stdout.strip() or ".").resolve()
        if inv.code != 0 or not loaded.is_relative_to(self.root / "src"):
            raise RuntimeError(
                f"set-up probe failed (exit {inv.code}, loaded {inv.stdout.strip()!r}); "
                f"see {self.work / 'setup.stderr'}"
            )
        return inv

    def cli_argv(self, command: str, outdir: Path) -> list[str]:
        argv = [command] + [f"--{k}={self.paths[k]}" for k in ("graph", "weights", "x0")]
        if command == "run":
            argv.append(f"--out={outdir}")
        if command == "compare" and self.workload.compare_max_steps is not None:
            argv.append(f"--max-steps={self.workload.compare_max_steps}")
        return argv

    def command(self, command: str, traced: bool) -> tuple[Invocation, int, str]:
        """One checked CLI invocation; returns it, the steps run reported, and its file tag.

        The tag names the invocation's files: out-<tag>/ for outputs and
        <tag>.spans.npz for spans.
        """
        tag = f"{command}-traced" if traced else command
        outdir = self.work / f"out-{tag}"
        for stale in ("trace.csv", "summary.json"):
            (outdir / stale).unlink(missing_ok=True)
        prefix = [sys.executable]
        if traced:
            prefix += [str(BENCH_DIR / "traced_cli.py"), str(self.work / f"{tag}.spans.npz"), "--"]
        else:
            prefix += ["-m", "consensim"]
        inv = self.invoke(prefix + self.cli_argv(command, outdir), self.work / tag)
        steps = 0
        if command == "check":
            problems = oracle.check_check(inv.code, inv.stdout, self.alpha, self.scale)
        elif command == "run":
            problems, steps = oracle.check_run(inv.code, outdir, self.alpha, self.scale)
        else:
            problems = oracle.check_compare(inv.code, inv.stdout)
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{tag}: {p}" for p in problems]
        return inv, steps, tag

    def plain_round(self) -> dict:
        setup = [self.setup_time() for _ in range(SETUP_PER_ROUND)]
        invs = {}
        steps = 0
        for command in COMMANDS:
            invs[command], s, _ = self.command(command, traced=False)
            steps = steps or s
        cap = self.workload.compare_max_steps
        compare_steps = steps if cap is None else min(steps, cap)
        iterated = steps + 2 * compare_steps
        everything = setup + list(invs.values())
        return {
            "setup_s": [inv.time_s for inv in setup],
            "check_s": invs["check"].time_s,
            "run_s": invs["run"].time_s,
            "compare_s": invs["compare"].time_s,
            "steps_per_s": iterated / (invs["run"].time_s + invs["compare"].time_s),
            "peak_rss_mb": max(inv.rss_mb for inv in invs.values()),
            "wall_s": {c: inv.wall_s for c, inv in invs.items()}
            | {"setup": statistics.median(inv.wall_s for inv in setup)},
            "burst_s": statistics.median(inv.burst_s for inv in everything),
        }

    def traced_round(self) -> dict:
        parts, bursts, overhead, out_bytes, stdout_bytes = [], [], 0.0, 0, 0
        per_command = {}
        for command in COMMANDS:
            plain, _, _ = self.command(command, traced=False)
            traced, _, tag = self.command(command, traced=True)
            overhead += traced.time_s - plain.time_s
            bursts += [plain.burst_s, traced.burst_s]
            out_bytes += sum(p.stat().st_size for p in (self.work / f"out-{tag}").glob("*"))
            stdout_bytes += len(traced.stdout.encode())
            stats = span_stats(self.work / f"{tag}.spans.npz")
            parts.append(stats)
            per_command[command] = layer_metrics(stats)
        metrics = layer_metrics(merge_stats(parts))
        metrics["cli.output_bytes"] = out_bytes
        metrics["cli.stdout_bytes"] = stdout_bytes
        metrics["trace.overhead_s"] = overhead
        return {
            "metrics": metrics,
            "per_command": per_command,
            "missing": parts[0]["missing"],
            "burst_s": statistics.median(bursts),
        }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(bench: Bench, seconds: float) -> list[dict]:
    """Rounds until starting another would overrun the budget (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(bench.traced_round() if bench.trace else bench.plain_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    root = checkout_root()
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = environment_stamp(root, bench.cap) | {"pinned_cpu": CPU}
    bench.setup_time()  # warm-up: checks the source is the checkout's and compiles bytecode
    rounds = measure(bench, args.seconds)

    if bench.trace:
        units = PER_LAYER
        samples = {name: [r["metrics"][name] for r in rounds] for name in units}
    else:
        units = END_TO_END
        samples = {name: [r[name] for r in rounds] for name in units if name != "setup_s"}
        samples["setup_s"] = [t for r in rounds for t in r["setup_s"]]
    bursts = [r["burst_s"] for r in rounds]
    walls = {}
    if not bench.trace:
        walls = {c: [r["wall_s"][c] for r in rounds] for c in rounds[0]["wall_s"]}
    medians = {name: statistics.median(values) for name, values in samples.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": stamp,
        "inputs": {"n": bench.inputs.n, "m": bench.inputs.m, "sha256": bench.hashes},
        "reference_alpha": bench.alpha,
        "rounds": len(rounds),
        "samples": samples,
        "probe_burst_s": bursts,
        "raw_wall_s": walls,
        "medians": medians,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
    }
    if bench.trace:
        record["per_command"] = rounds[0]["per_command"]
        record["counts_repeat"] = all(
            r["metrics"][k] == rounds[0]["metrics"][k]
            for r in rounds
            for k, u in units.items()
            if u in ("count", "bytes")
        )
        record["untraced_names"] = rounds[0]["missing"]
    (bench.work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"n={bench.inputs.n} m={bench.inputs.m}, {len(rounds)} rounds")
    print("environment " + json.dumps(stamp, sort_keys=True))
    print("inputs sha256 " + json.dumps(bench.hashes, sort_keys=True))
    for name, unit in units.items():
        q1, q2, q3 = quartiles(samples[name])
        k = len(samples[name])
        print(f"  {name}: {q2:.6g} {unit}  (median of {k}, quartiles {q1:.6g}..{q3:.6g})")
    for name, values in walls.items():
        q1, q2, q3 = quartiles(values)
        print(f"  raw wall {name}: {q2:.6g} s  (median of {len(values)}, "
              f"quartiles {q1:.6g}..{q3:.6g}; not a metric)")
    q1, q2, q3 = quartiles(bursts)
    print(f"  speed probe burst: {q2 * 1e6:.6g} us  (reference {REFERENCE_BURST_S * 1e6:.6g} us, "
          f"quartiles {q1 * 1e6:.6g}..{q3 * 1e6:.6g}; not a metric)")
    failed, attempted = bench.failed, bench.attempted
    print(f"  failed_ops: {failed / attempted:.6g} share  ({failed} of {attempted} invocations)")
    if bench.trace:
        for command, metrics in record["per_command"].items():
            counts = " ".join(
                f"{k}={v:.12g}" for k, v in metrics.items() if units.get(k) in ("count", "bytes")
            )
            print(f"  per {command}: {counts}")
        print(f"  counts repeat across rounds: {str(record['counts_repeat']).lower()}")
    for failure in bench.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  record: {bench.work / 'result.json'}")

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": medians[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
