"""On-demand scaling report: the ROADMAP Baseline table from a committed script.

Usage, from the root of a checkout:

    python3 bench/scaling.py

For each n in SIZES it builds the ring-plus-chords family of bench/gen.py
(m = 4n, weights stratified over [0.1, 10.1), seed SEED) and times, in-process
through the library, the median of REPEATS calls of: null_vector on L_w^T,
predict, run for 2000 steps, and 2000 raw matrix-stepper calls.  It prints a
Markdown table and writes .bench_work/scaling.json with the environment stamp.
This report is not a gated workload; it takes about three minutes on 2 vCPUs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

SIZES = (100, 400, 1000, 2000)
SEED = 1
REPEATS = 3
STEPS = 2000


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from envstamp import BLAS_THREAD_VARS, checkout_root, environment_stamp, thread_cap

    root = checkout_root()

    # BLAS reads its thread count when numpy is first imported
    cap = thread_cap()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    sys.path.insert(0, str(root / "src"))
    import gen
    import numpy as np
    from consensim import (
        Digraph,
        build_system,
        default_epsilon,
        matrix_stepper,
        null_vector,
        predict,
        run,
    )

    rows = []
    for n in SIZES:
        inputs = gen.generate("ring-chords", n, SEED)
        system = build_system(Digraph(n, frozenset(inputs.edges)), inputs.w)
        x0 = inputs.x0
        stepper = matrix_stepper(system, default_epsilon(system))

        def raw_steps() -> None:
            x = np.array(x0)
            for _ in range(STEPS):
                x = stepper(x)

        row = {
            "n": n,
            "m": inputs.m,
            "null_vector_s": timed(lambda: null_vector(system.lap_w.T), REPEATS),
            "predict_s": timed(lambda: predict(system, x0), REPEATS),
            "run_2000_steps_s": timed(
                lambda: run(system, x0, tol=1e-300, max_steps=STEPS), REPEATS
            ),
            "raw_stepper_2000_steps_s": timed(raw_steps, REPEATS),
        }
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)

    stamp = environment_stamp(root, cap)
    out = root / ".bench_work" / "scaling.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    report = {"environment": stamp, "repeats": REPEATS, "seed": SEED, "rows": rows}
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"ring + chords, m = 4n, median of {REPEATS};"
          f" {stamp['cpu']}, nproc {stamp['nproc']}")
    print()
    print("| n | `null_vector` | `predict` | `run` 2000 steps | raw stepper 2000 steps |")
    print("|---|---|---|---|---|")
    for r in rows:
        keys = ("null_vector_s", "predict_s", "run_2000_steps_s", "raw_stepper_2000_steps_s")
        print(f"| {r['n']} | " + " | ".join(_fmt_s(r[k]) for k in keys) + " |")
    print(f"\nwrote {out}")
    return 0


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


if __name__ == "__main__":
    raise SystemExit(main())
