"""Independent reference for v and alpha, and the checks on CLI outputs.

The reference solves the bordered system with numpy.linalg: the transposed
weighted Laplacian with its last row replaced by ones, against e_n.  For a
strongly connected graph that system is nonsingular and its solution is the
stationary direction v, so it shares no code with consensim's own elimination.
Each check returns a list of problems; an empty list means the invocation
passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# |predicted alpha - reference alpha| allowed, relative to max|x0|
ALPHA_RTOL = 1e-9
# rounding allowance on top of tol when comparing final states with alpha
STATE_SLACK = 1e-12
DEFAULT_TOL = 1e-10


def reference_alpha(n: int, edges, w, x0) -> float:
    """alpha = v . x0, with v the positive unit-l1 stationary direction."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, j] -= 1.0
        lap[i, i] += 1.0
    a = (lap / np.asarray(w)[:, None]).T
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    v = np.linalg.solve(a, rhs)
    v /= v.sum()
    if float(v.min()) <= 0.0:
        raise ArithmeticError("reference v is not positive; is the graph strongly connected?")
    return float(v @ np.asarray(x0))


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key.strip(), value.strip())
    return out


def _alpha_problem(label: str, value, alpha: float, scale: float) -> list[str]:
    try:
        got = float(value)
    except (TypeError, ValueError):
        return [f"{label}: predicted_alpha missing or not a number ({value!r})"]
    if not abs(got - alpha) <= ALPHA_RTOL * scale:
        return [f"{label}: predicted_alpha {got!r} differs from reference {alpha!r}"]
    return []


def check_check(code: int, stdout: str, alpha: float, scale: float) -> list[str]:
    problems = [] if code == 0 else [f"check: exit code {code}, expected 0"]
    predicted = _fields(stdout).get("predicted_alpha")
    return problems + _alpha_problem("check stdout", predicted, alpha, scale)


def final_state_range(trace_csv: Path) -> tuple[float, float]:
    """min and max of the last recorded state, from x_min/x_max or x_i columns."""
    with open(trace_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, last = rows[0], rows[-1]
    if "x_min" in header:
        return float(last[header.index("x_min")]), float(last[header.index("x_max")])
    xs = [float(v) for name, v in zip(header, last) if name.startswith("x_")]
    return min(xs), max(xs)


def check_run(
    code: int, outdir: Path, alpha: float, scale: float, tol: float = DEFAULT_TOL
) -> tuple[list[str], int]:
    """Problems with a run's outputs, and the steps it reports (0 if unreadable)."""
    problems = [] if code == 0 else [f"run: exit code {code}, expected 0"]
    try:
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        lo, hi = final_state_range(outdir / "trace.csv")
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"run: unreadable outputs ({exc})"], 0
    problems += _alpha_problem("summary.json", summary.get("predicted_alpha"), alpha, scale)
    limit = tol + STATE_SLACK * scale
    for name, x in (("x_min", lo), ("x_max", hi)):
        if not (math.isfinite(x) and abs(x - alpha) <= limit):
            problems.append(f"run: final {name} {x!r} is not within {limit:g} of alpha {alpha!r}")
    steps = summary.get("steps_run")
    return problems, steps if isinstance(steps, int) else 0


def check_compare(code: int, stdout: str) -> list[str]:
    problems = [] if code == 0 else [f"compare: exit code {code}, expected 0"]
    if _fields(stdout).get("traces identical") != "true":
        problems.append("compare: stdout lacks 'traces identical: true'")
    return problems
