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

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

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
}

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
    # what the CI console-script step used to assert in shell
    "check-crlf": ["check", "--graph", "{in}/crlf.txt"],
    "run-crlf": run("--graph", "{in}/crlf.txt"),
    "check-malformed": ["check", "--graph", "{in}/bad.txt"],
    "check-ring100": ["check", "--graph", "{in}/ring100.txt"],
    "run-ring100-capped": run("--graph", "{in}/ring100.txt", "--max-steps", "200"),
    "run-comment-vectors": run(
        "--graph", T, "--weights", "{in}/w-comment.txt", "--x0", "{in}/x0-comment.txt"
    ),
}
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
