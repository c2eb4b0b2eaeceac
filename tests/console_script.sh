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
$CONSENSIM check --graph triangle.txt > check.out
grep -qx "strongly_connected: true" check.out
grep -qx "undirected: false" check.out
# one arc: node 0 reaches no node, so the graph is not certified, exit 2
printf '1 0\n' > arc.txt
status=0
$CONSENSIM check --graph arc.txt > check-arc.out || status=$?
test "$status" -eq 2
grep -qx "strongly_connected: false" check-arc.out
# the agent paths: the lockstep comparison and an agent-mode run
$CONSENSIM compare --graph triangle.txt > compare.out
grep -qx "traces identical: true" compare.out
# every agent of the undirected triangle has two neighbours
printf '0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n' > undirected.txt
$CONSENSIM check --graph undirected.txt > check-undirected.out
grep -qx "undirected: true" check-undirected.out
$CONSENSIM compare --graph undirected.txt > compare-undirected.out
grep -qx "traces identical: true" compare-undirected.out
# the path's out-degrees are 1, 2 and 1: the matrix step sums by np.bincount,
# where the two triangles above, every node at one out-degree, sum by columns
printf '0 1\n1 0\n1 2\n2 1\n' > path.txt
$CONSENSIM compare --graph path.txt > compare-path.out
grep -qx "traces identical: true" compare-path.out
# agents with 2, 1 and 0 sources: node 2 listens to nobody, so the graph is
# not strongly connected and runs only with --allow-uncertified
printf 'nodes 3\n0 1\n1 0\n1 2\n' > sources.txt
$CONSENSIM compare --graph sources.txt --allow-uncertified > compare-sources.out
grep -qx "traces identical: true" compare-sources.out
# node k listens to nodes 0 .. k-1, so the agents' degrees run 0 through 6:
# degrees 1-4 add their terms written out, 0, 5 and 6 sum in a loop
for k in $(seq 1 6); do for j in $(seq 0 $((k - 1))); do echo "$k $j"; done; done > degrees.txt
$CONSENSIM compare --graph degrees.txt --allow-uncertified > compare-degrees.out
grep -qx "traces identical: true" compare-degrees.out
# both modes write the same trace bytes, and the same summary but for its
# "mode" line; --allow-uncertified changes nothing on the certified graphs.
# The degrees graph runs every agent fold, written out or looped
for g in triangle undirected path sources degrees; do
  $CONSENSIM run --graph $g.txt --allow-uncertified --out $g-matrix > /dev/null
  $CONSENSIM run --graph $g.txt --allow-uncertified --mode agents --out $g-agents > /dev/null
  cmp $g-matrix/trace.csv $g-agents/trace.csv
  diff <(grep -v '"mode":' $g-matrix/summary.json) <(grep -v '"mode":' $g-agents/summary.json)
  grep -q '"mode": "agents"' $g-agents/summary.json
done
# every shared flag set: each must reach its ExperimentConfig field
printf '1\n2\n3\n' > w.txt
printf '6\n0\n0\n' > x0.txt
$CONSENSIM run --graph triangle.txt --weights w.txt --x0 x0.txt --epsilon 1.2 \
  --allow-uncertified --tol 1e-6 --max-steps 400 --snapshots 9 --mode agents \
  --seed 5 --out every-flag
grep -q '"mode": "agents"' every-flag/summary.json
grep -q '"epsilon": 1.2,' every-flag/summary.json
$CONSENSIM run -h | grep -q -- "--snapshots SNAPSHOTS"
# a tol below one ulp is never reached: the run stops on its exact cycle, exit 3
status=0
$CONSENSIM run --graph triangle.txt --tol 1e-300 --max-steps 5000 --out stalled \
  2> stalled.err || status=$?
test "$status" -eq 3
grep -q "^state at step [0-9]* repeats step [0-9]* exactly (period [0-9]*)" stalled.err
# the lockstep comparison stops on that cycle too; it exits 0 with both traces alike
$CONSENSIM compare --graph triangle.txt --tol 1e-300 --max-steps 5000 > compare-stalled.out
grep -qx "converged: false" compare-stalled.out
grep -qx "traces identical: true" compare-stalled.out
# compare checks the agents once per matrix block: a 257-step budget on the
# slow 85-cycle ends one step past the 256-row block edge
for i in $(seq 0 84); do echo "$i $(( (i + 1) % 85 ))"; done > cycle85.txt
$CONSENSIM compare --graph cycle85.txt --max-steps 257 > compare-cycle85.out
grep -qx "traces identical: true" compare-cycle85.out
# a diverged run: the overflowing and non-finite rows are compared bitwise too
$CONSENSIM compare --graph triangle.txt --epsilon 5 --allow-uncertified > compare-diverged.out
grep -qx "converged: false" compare-diverged.out
grep -qx "traces identical: true" compare-diverged.out
