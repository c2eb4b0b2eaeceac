"""Write the golden inputs and entries that tests/test_golden.py replays.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites every file in inputs/ and entries/ from the tables below, running
each case through cli.main in-process exactly as the replay does.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "bench"))

from gen import generate  # noqa: E402
from test_golden import ENTRIES, INPUTS, capture  # noqa: E402

T = "{in}/triangle.txt"

INPUT_FILES = {
    "triangle.txt": b"0 1\n1 2\n2 0\n",
    "nodes1.txt": b"nodes 1\n",
    # a header, a comment, a blank line, CRLF endings, no final newline
    "crlf.txt": b"nodes 3\r\n# a triangle\r\n\r\n0 1\r\n1 2\r\n2 0",
    "bad.txt": b"nodes 3\n0 1\n1 x\n",
    "ring100.txt": b"".join(b"%d %d\n" % (i, (i + 1) % 100) for i in range(100)),
    # no edge joins the extremes 0 and 2, so no update overflows
    "path.txt": b"0 1\n1 0\n1 2\n2 1\n",
    "path-x0.txt": b"1.7e308\n0\n-1.7e308\n",
    "pair.txt": b"0 1\n1 0\n",
    "pair-x0.txt": b"1.7e308\n-1.7e308\n",
    # weights and x0 files: a comment, a blank line, CRLF endings, no final newline
    "w-comment.txt": b"# weights\r\n\r\n1\r\n2\r\n3",
    "x0-comment.txt": b"# start\r\n6\r\n\r\n0\r\n0",
    "vec-crlf.txt": b"1\r\n2\r\n3\r\n",
    "vec-padded.txt": b"  1.5 \n\t2\n3  \n",
    "vec-blank.txt": b"1\n\n2\n\n3\n",
    "vec-underscore.txt": b"1\n1_0\n3\n",
    "vec-nonascii-digit.txt": "1\n٢\n3\n".encode("utf-8"),
    "vec-inf.txt": b"1\ninf\n3\n",
    "vec-too-few.txt": b"1\n2\n",
    "vec-bad-byte.txt": b"0.5\n\xff\n0.25\n",
    # past the line reader's first 8 KiB chunk: the offset counts from the file's start
    "vec-bad-byte-late.txt": b"# " + b"-" * 12000 + b"\n\xff\n",
    # the fault on line 2 is met before the undecodable byte
    "vec-fault-before-bad-byte.txt": b"1\nx\n" + b"1\n" * 5000 + b"\xff\n",
    "nodes3.txt": b"nodes 3\n",
    # floats stall it in an exact cycle with a disagreement of 1.86e-9
    "five-cycle.txt": b"0 1\n1 2\n2 3\n3 4\n4 0\n",
    "five-cycle-x0.txt": b"1e7\n0\n0\n0\n0\n",
    "ring100-x0-zeros.txt": b"-0.0\n0.0\n" * 50,
    "ring100-x0-huge.txt": b"1.7e308\n-1.7e308\n" * 50,
    # i -> i + 1, i -> i - 1 and i -> i - 2 without wraparound
    "chain100.txt": b"".join(
        [b"%d %d\n" % (i, i + 1) for i in range(99)]
        + [b"%d %d\n" % (i, i - 1) for i in range(1, 100)]
        + [b"%d %d\n" % (i, i - 2) for i in range(2, 100)]
    ),
}

# the malformed graphs of tests/test_parsing.py and tests/test_cli.py: each
# later line is faulty too, in a different way
MALFORMED_GRAPHS = {
    "duplicate": b"0 1\n1 2\n1 2\n3 3\n",
    "self-loop": b"0 1\n2 2\n0 1\n",
    "declared-self-loop": b"nodes 3\n0 1\n2 2\n0 9\n",
    "declared-out-of-range": b"nodes 3\n0 1\n0 9\n2 2\n",
    "declared-duplicate": b"nodes 3\n0 1\n0 1\n0 9\n",
    "duplicate-then-token": b"0 1\n1 0\n1 0\n0 x\n",
    "token-then-duplicate": b"0 1\n1 0\n0 x\n1 0\n",
    "declared-beyond-int64": b"nodes 3\n0 99999999999999999999\n",
    "inferred-beyond-int64": b"0 99999999999999999999\n",
}
for _stem, _data in MALFORMED_GRAPHS.items():
    INPUT_FILES[f"malformed-{_stem}.txt"] = _data

# the benchmark's generator on both sides of the 64-node inline-state cut,
# and iterate-long's slow cycle
GENERATED = {"ring-chords-64": ("ring-chords", 64), "ring-chords-65": ("ring-chords", 65),
             "cycle-85": ("cycle", 85)}
for _stem, (_family, _n) in GENERATED.items():
    _inputs = generate(_family, _n, seed=1)
    INPUT_FILES[f"gen-{_stem}.txt"] = (
        f"nodes {_n}\n" + "".join(f"{i} {j}\n" for i, j in _inputs.edges)
    ).encode("ascii")
    INPUT_FILES[f"gen-{_stem}-w.txt"] = "".join(f"{v!r}\n" for v in _inputs.w).encode("ascii")
    INPUT_FILES[f"gen-{_stem}-x0.txt"] = "".join(f"{v!r}\n" for v in _inputs.x0).encode("ascii")

VECTOR_FILES = [name for name in INPUT_FILES if name.startswith("vec-")]


def run(*args: str) -> list[str]:
    return ["run", *args, "--out", "{out}"]


def compare(*args: str) -> list[str]:
    return ["compare", *args, "--out", "{out}"]


CASES = {
    # the unit triangle
    "check-triangle": ["check", "--graph", T],
    "run-triangle": run("--graph", T),
    "run-triangle-agents": run("--graph", T, "--mode", "agents"),
    "compare-triangle": compare("--graph", T),
    "run-triangle-snapshots-7": run("--graph", T, "--snapshots", "7"),
    "check-triangle-uncertified": ["check", "--graph", T, "--epsilon", "1"],
    "run-triangle-uncertified": run("--graph", T, "--epsilon", "1"),
    "compare-triangle-uncertified": compare("--graph", T, "--epsilon", "1"),
    "run-triangle-allow-uncertified": run(
        "--graph", T, "--epsilon", "1", "--allow-uncertified", "--max-steps", "50"
    ),
    "run-triangle-diverged": run("--graph", T, "--epsilon", "5", "--allow-uncertified"),
    "run-triangle-diverged-agents": run(
        "--graph", T, "--epsilon", "5", "--allow-uncertified", "--mode", "agents"
    ),
    "run-triangle-budget": run("--graph", T, "--max-steps", "3"),
    "run-triangle-budget-agents": run("--graph", T, "--max-steps", "3", "--mode", "agents"),
    "compare-triangle-budget": compare("--graph", T, "--max-steps", "3"),
    "usage-no-command": [],
    "usage-max-steps-not-an-int": run("--graph", T, "--max-steps", "abc"),
    "config-max-steps-0": run("--graph", T, "--max-steps", "0"),
    "config-tol-nan": ["check", "--graph", T, "--tol", "nan"],
    "missing-graph-file": ["check", "--graph", "{in}/missing.txt"],
    # a finite state whose spread overflows: the path converges, the pair diverges
    "run-path-overflow": run(
        "--graph", "{in}/path.txt", "--x0", "{in}/path-x0.txt", "--snapshots", "50"
    ),
    "run-path-overflow-agents": run(
        "--graph", "{in}/path.txt", "--x0", "{in}/path-x0.txt", "--snapshots", "50",
        "--mode", "agents",
    ),
    "compare-path-overflow": compare("--graph", "{in}/path.txt", "--x0", "{in}/path-x0.txt"),
    "run-pair-overflow": run("--graph", "{in}/pair.txt", "--x0", "{in}/pair-x0.txt"),
    "run-pair-overflow-agents": run(
        "--graph", "{in}/pair.txt", "--x0", "{in}/pair-x0.txt", "--mode", "agents"
    ),
    "check-nodes1": ["check", "--graph", "{in}/nodes1.txt"],
    "run-nodes1": run("--graph", "{in}/nodes1.txt"),
    # one agent agrees with itself at step 0, so no round runs
    "run-nodes1-agents": run("--graph", "{in}/nodes1.txt", "--mode", "agents"),
    # what the CI console-script step used to assert in shell
    "check-crlf": ["check", "--graph", "{in}/crlf.txt"],
    "run-crlf": run("--graph", "{in}/crlf.txt"),
    "check-malformed": ["check", "--graph", "{in}/bad.txt"],
    "check-ring100": ["check", "--graph", "{in}/ring100.txt"],
    "run-ring100-capped": run("--graph", "{in}/ring100.txt", "--max-steps", "200"),
    "run-comment-vectors": run(
        "--graph", T, "--weights", "{in}/w-comment.txt", "--x0", "{in}/x0-comment.txt"
    ),
    "check-nodes3": ["check", "--graph", "{in}/nodes3.txt"],
    "run-nodes3": run("--graph", "{in}/nodes3.txt"),
    # rounds of agents without neighbours: every inbox stays empty
    "run-nodes3-agents": run(
        "--graph", "{in}/nodes3.txt", "--allow-uncertified", "--max-steps", "5", "--mode", "agents"
    ),
    # stalled runs spin out their step cap (ROADMAP item 1 will stop them)
    "run-five-cycle-stalled": run(
        "--graph", "{in}/five-cycle.txt", "--x0", "{in}/five-cycle-x0.txt", "--max-steps", "5000"
    ),
    "run-triangle-stalled-tol-1e-300": run("--graph", T, "--tol", "1e-300", "--max-steps", "5000"),
    "run-ring100-signed-zeros": run(
        "--graph", "{in}/ring100.txt", "--x0", "{in}/ring100-x0-zeros.txt"
    ),
    # signed zeros into the agents; their spread is 0, so no round runs
    "run-ring100-signed-zeros-agents": run(
        "--graph", "{in}/ring100.txt", "--x0", "{in}/ring100-x0-zeros.txt", "--mode", "agents"
    ),
    "run-ring100-huge": run(
        "--graph", "{in}/ring100.txt", "--x0", "{in}/ring100-x0-huge.txt", "--max-steps", "200"
    ),
    # ROADMAP item 12 will certify it
    "check-chain100": ["check", "--graph", "{in}/chain100.txt"],
    # every shared flag away from its default; the bound is 1
    "run-triangle-every-flag": run(
        "--graph", T, "--weights", "{in}/w-comment.txt", "--x0", "{in}/x0-comment.txt",
        "--epsilon", "1.2", "--allow-uncertified", "--tol", "1e-6", "--max-steps", "400",
        "--snapshots", "9", "--mode", "agents", "--seed", "5",
    ),
    # the default initial state from a seed other than 0
    "run-triangle-seed-7": run("--graph", T, "--seed", "7"),
    "compare-triangle-seed-7": compare("--graph", T, "--seed", "7"),
}
for _stem in MALFORMED_GRAPHS:
    CASES[f"check-malformed-{_stem}"] = ["check", "--graph", f"{{in}}/malformed-{_stem}.txt"]
for _stem in GENERATED:
    _files = [
        "--graph", f"{{in}}/gen-{_stem}.txt",
        "--weights", f"{{in}}/gen-{_stem}-w.txt",
        "--x0", f"{{in}}/gen-{_stem}-x0.txt",
    ]
    CASES[f"check-gen-{_stem}"] = ["check", *_files]
    CASES[f"run-gen-{_stem}"] = run(*_files, "--snapshots", "16", "--max-steps", "5000")
    # the agent paths at out-degree 4 (ring plus chords) and 1 (the cycle)
    CASES[f"run-gen-{_stem}-agents"] = run(
        *_files, "--snapshots", "16", "--max-steps", "2000", "--mode", "agents"
    )
    CASES[f"compare-gen-{_stem}"] = compare(*_files, "--snapshots", "16", "--max-steps", "2000")
for _name in VECTOR_FILES:
    _stem = _name[len("vec-") : -len(".txt")]
    CASES[f"weights-{_stem}"] = ["check", "--graph", T, "--weights", f"{{in}}/{_name}"]
    CASES[f"x0-{_stem}"] = ["check", "--graph", T, "--x0", f"{{in}}/{_name}"]


def main() -> None:
    shutil.rmtree(INPUTS, ignore_errors=True)
    shutil.rmtree(ENTRIES, ignore_errors=True)
    INPUTS.mkdir(parents=True)
    ENTRIES.mkdir(parents=True)
    for name, data in INPUT_FILES.items():
        (INPUTS / name).write_bytes(data)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            entry = capture(argv, Path(tmp) / "out")
        (ENTRIES / f"{name}.json").write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(INPUT_FILES)} inputs and {len(CASES)} entries")


if __name__ == "__main__":
    main()
