"""Golden replay: recorded CLI invocations give the same exit code and bytes.

Each entry in tests/golden/entries/ holds an argv, the exit code, stdout,
stderr, and the text of trace.csv and summary.json (null when the command
wrote none).  The replay runs cli.main in-process on the inputs in
tests/golden/inputs/ with a fresh output directory; the argv and the
messages name those two directories {in} and {out}.
tests/golden/regenerate.py writes the inputs and the entries.  A change that
alters an output on purpose regenerates the entries it alters.

Portability: v, and every number computed from it, comes through BLAS and
LAPACK (GMRES's basis products and least-squares solve, the dot v . x),
whose last bits and summation order can differ between builds and CPUs.
Those numbers are the v, v_min, v_max, predicted_alpha and rho_estimate
lines of stdout, trace.csv's conserved column, and summary.json's v,
predicted_alpha and conserved_drift.  Each must lie within ULPS units in
the last place of the largest of the two values and a floor.  v . x can
cancel, so the floor of a conserved value is the largest magnitude of its
row's state, and that of a run's predicted_alpha the largest magnitude of
x0 (trace.csv's first row); check prints no state, so its predicted_alpha
has no floor, and its golden cases start from nonnegative states, where
v . x0 does not cancel.  conserved_drift is divided by max|x0|, so its floor
is 1.  Every other byte, the trajectory columns and every message included,
must be equal.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from consensim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
ENTRIES = GOLDEN / "entries"
OUTPUTS = ("trace.csv", "summary.json")

ULPS = 64
NUMBER = re.compile(r"-?(?:inf|nan|\d[\d.e+-]*)")
# the spans whose numbers come from v, in each pattern's "value" group
FROM_V = {
    "stdout": re.compile(
        r"^(?P<key>v|v_min|v_max|predicted_alpha|rho_estimate): (?P<value>.*)", re.M
    ),
    "trace.csv": re.compile(r"^\d+,[^,\n]*,(?P<value>[^,\n]*)(?P<state>[^\n]*)", re.M),
    "summary.json": re.compile(
        r'^  "(?P<key>v|predicted_alpha|conserved_drift)": (?P<value>\[[^\]]*\]|[^,\n]*)', re.M
    ),
}


def capture(argv: list[str], out_dir: Path) -> dict:
    """Run cli.main in-process on argv and return what a golden entry holds."""
    real = [arg.replace("{in}", str(INPUTS)).replace("{out}", str(out_dir)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(real)

    def normalised(text: str) -> str:
        return text.replace(str(out_dir), "{out}").replace(str(INPUTS), "{in}")

    entry = {
        "argv": argv,
        "exit": code,
        "stdout": normalised(stdout.getvalue()),
        "stderr": normalised(stderr.getvalue()),
    }
    for name in OUTPUTS:
        path = out_dir / name
        entry[name] = path.read_bytes().decode("utf-8") if path.exists() else None
    return entry


def magnitude(fields: str) -> float:
    """The largest finite magnitude among comma-separated numbers."""
    values = (abs(float(field)) for field in fields.split(",") if field)
    return max((value for value in values if math.isfinite(value)), default=0.0)


def split_from_v(text: str, kind: str, x0_scale: float) -> tuple[str, list[tuple[str, float]]]:
    """text with each number from v replaced by "~", and those numbers with their floors."""
    numbers: list[tuple[str, float]] = []

    def hide(match: re.Match) -> str:
        if kind == "trace.csv":
            floor = magnitude(match["state"])
        else:
            floor = {"predicted_alpha": x0_scale, "conserved_drift": 1.0}.get(match["key"], 0.0)
        numbers.extend((token, floor) for token in NUMBER.findall(match["value"]))
        before = match.string[match.start() : match.start("value")]
        after = match.string[match.end("value") : match.end()]
        return before + NUMBER.sub("~", match["value"]) + after

    return FROM_V[kind].sub(hide, text), numbers


def within_ulps(got: str, want: str, floor: float) -> bool:
    if got == want:
        return True
    a, b = float(got), float(want)
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= ULPS * np.spacing(max(abs(a), abs(b), floor))


ENTRY_PATHS = sorted(ENTRIES.glob("*.json"))


def test_the_golden_set_is_present():
    # an empty glob would leave test_replay with no cases, passing silently
    assert ENTRY_PATHS


@pytest.mark.parametrize("path", ENTRY_PATHS, ids=[p.stem for p in ENTRY_PATHS])
def test_replay(path, tmp_path):
    want = json.loads(path.read_text(encoding="utf-8"))
    got = capture(want["argv"], tmp_path / "out")
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    trace = want["trace.csv"]
    x0_scale = magnitude(trace.split("\n")[1].split(",", 3)[3]) if trace else 0.0
    for kind in ("stdout", *OUTPUTS):
        if want[kind] is None or got[kind] is None:
            assert got[kind] == want[kind], kind
            continue
        got_text, got_numbers = split_from_v(got[kind], kind, x0_scale)
        want_text, want_numbers = split_from_v(want[kind], kind, x0_scale)
        assert got_text == want_text, kind
        for (g, floor), (w, _) in zip(got_numbers, want_numbers):
            assert within_ulps(g, w, floor), f"{kind}: {g} is not within {ULPS} ulps of {w}"
