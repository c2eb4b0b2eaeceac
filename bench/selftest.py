"""Self-test of the benchmark's generator and output oracle.

Usage, from the root of a checkout:  python3 bench/selftest.py

Runs the real CLI once per command on two small generated problems (one
with the full-state trace.csv of n <= 64, one with the x_min/x_max form),
checks that the oracle accepts those outputs, then perturbs each checked
output in turn and checks that every perturbed invocation counts as failed.
Also checks that the generator is byte-stable per seed and that the speed
probe scales a timed invocation by its bursts.  Exits 0 when every check
holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import oracle  # noqa: E402
from envstamp import checkout_root, child_env, thread_cap  # noqa: E402
from run import invoke as _invoke  # noqa: E402
from speedprobe import REFERENCE_BURST_S, SpeedProbe  # noqa: E402


class Checks:
    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.passed += ok
        self.failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {what}")


def invoke(argv: list[str], env: dict, cwd: Path, log_stem: Path):
    return _invoke(argv, env, cwd, log_stem, timeout=120.0)


def perturb_summary(outdir: Path, bad: Path, factor: float) -> Path:
    shutil.copytree(outdir, bad, dirs_exist_ok=True)
    summary = json.loads((bad / "summary.json").read_text())
    summary["predicted_alpha"] *= factor
    (bad / "summary.json").write_text(json.dumps(summary))
    return bad


def perturb_final_state(outdir: Path, bad: Path, delta: float) -> Path:
    shutil.copytree(outdir, bad, dirs_exist_ok=True)
    lines = (bad / "trace.csv").read_text().splitlines()
    last = lines[-1].split(",")
    last[-1] = repr(float(last[-1]) + delta)
    lines[-1] = ",".join(last)
    (bad / "trace.csv").write_text("\n".join(lines) + "\n")
    return bad


def check_problem(checks: Checks, root: Path, work: Path, family: str, n: int) -> None:
    inputs = gen.generate(family, n, 7)
    paths = gen.write_inputs(inputs, work / "inputs")
    alpha = oracle.reference_alpha(n, inputs.edges, inputs.w, inputs.x0)
    scale = 1.0
    env = child_env(root, thread_cap())
    files = [f"--{k}={paths[k]}" for k in ("graph", "weights", "x0")]
    cli = [sys.executable, "-m", "consensim"]

    def expect(ok: bool, what: str) -> None:
        checks.expect(ok, f"{family} n={n}: {what}")

    inv = invoke(cli + ["check"] + files, env, work, work / "check")
    expect(oracle.check_check(inv.code, inv.stdout, alpha, scale) == [], "real check passes")
    scaled = inv.wall_s * REFERENCE_BURST_S / inv.burst_s
    expect(inv.burst_s > 0 and abs(inv.time_s - scaled) <= 1e-12 * scaled, "check time is scaled")
    bumped = re.sub(
        r"^predicted_alpha: .*$", f"predicted_alpha: {alpha * (1 + 1e-6)!r}", inv.stdout, flags=re.M
    )
    expect(oracle.check_check(0, bumped, alpha, scale) != [], "perturbed check alpha fails")
    expect(oracle.check_check(2, inv.stdout, alpha, scale) != [], "check exit 2 fails")

    outdir = work / "out"
    inv = invoke(cli + ["run", f"--out={outdir}"] + files, env, work, work / "run")
    problems, steps = oracle.check_run(inv.code, outdir, alpha, scale)
    expect(problems == [] and steps > 0, f"real run passes ({steps} steps)")
    bad = perturb_summary(outdir, work / "bad-summary", 1 + 1e-6)
    expect(oracle.check_run(0, bad, alpha, scale)[0] != [], "perturbed summary alpha fails")
    bad = perturb_final_state(outdir, work / "bad-trace", 10 * oracle.DEFAULT_TOL)
    expect(oracle.check_run(0, bad, alpha, scale)[0] != [], "perturbed final state fails")
    (bad / "summary.json").unlink()
    expect(oracle.check_run(0, bad, alpha, scale)[0] != [], "missing summary fails")
    expect(oracle.check_run(3, outdir, alpha, scale)[0] != [], "run exit 3 fails")

    inv = invoke(cli + ["compare"] + files, env, work, work / "compare")
    expect(oracle.check_compare(inv.code, inv.stdout) == [], "real compare passes")
    diverged = inv.stdout.replace("traces identical: true", "traces identical: false")
    expect(oracle.check_compare(0, diverged) != [], "'traces identical: false' fails")
    expect(oracle.check_compare(4, inv.stdout) != [], "compare exit 4 fails")


def main() -> int:
    root = checkout_root()
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()

    for family, n in (("grid", 16), ("ring-chords", 80), ("cycle", 12)):
        a = gen.write_inputs(gen.generate(family, n, 3), work / "gen-a")
        b = gen.write_inputs(gen.generate(family, n, 3), work / "gen-b")
        c = gen.write_inputs(gen.generate(family, n, 4), work / "gen-c")
        ha, hb, hc = gen.file_hashes(a), gen.file_hashes(b), gen.file_hashes(c)
        checks.expect(ha == hb, f"{family}: same seed gives byte-identical inputs")
        differ = ha["x0"] != hc["x0"] and ha["weights"] != hc["weights"]
        checks.expect(differ, f"{family}: seeds differ")

    probe = SpeedProbe()
    probe.bursts = [2 * REFERENCE_BURST_S, 2 * REFERENCE_BURST_S]
    checks.expect(probe.scaled(3.0) == 1.5, "a CPU at half the reference speed halves the time")

    check_problem(checks, root, work / "grid", "grid", 16)
    check_problem(checks, root, work / "ring", "ring-chords", 80)
    print(f"{checks.passed} passed, {checks.failed} failed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
