#!/usr/bin/env bash
# Smoke test of the consensim command line, run in the current directory,
# which it fills with small input and output files.  The command comes from
# $CONSENSIM (default: the installed console script `consensim`), e.g.
#
#     CONSENSIM="python -m consensim" PYTHONPATH=/path/to/src bash tests/console_script.sh
#
# CI runs it outside the checkout against the installed package;
# tests/test_cli.py runs it against the source tree.  tests/test_golden.py
# pins the CLI's output bytes.
set -eo pipefail
CONSENSIM=${CONSENSIM:-consensim}

printf '0 1\n1 2\n2 0\n' > triangle.txt
$CONSENSIM check --graph triangle.txt
# the agent paths: the lockstep comparison and an agent-mode run
$CONSENSIM compare --graph triangle.txt > compare.out
grep -qx "traces identical: true" compare.out
# every agent of the undirected triangle has two neighbours
printf '0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n' > undirected.txt
$CONSENSIM compare --graph undirected.txt > compare-undirected.out
grep -qx "traces identical: true" compare-undirected.out
$CONSENSIM run --graph triangle.txt --mode agents --out agents-out
test -s agents-out/trace.csv && test -s agents-out/summary.json
# every shared flag set: each must reach its ExperimentConfig field
printf '1\n2\n3\n' > w.txt
printf '6\n0\n0\n' > x0.txt
$CONSENSIM run --graph triangle.txt --weights w.txt --x0 x0.txt --epsilon 1.2 \
  --allow-uncertified --tol 1e-6 --max-steps 400 --snapshots 9 --mode agents \
  --seed 5 --out every-flag
grep -q '"mode": "agents"' every-flag/summary.json
grep -q '"epsilon": 1.2,' every-flag/summary.json
$CONSENSIM run -h | grep -q -- "--snapshots SNAPSHOTS"
