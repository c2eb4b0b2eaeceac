import filecmp
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import consensim.agents
import consensim.cli as cli
import consensim.engine as engine
from consensim.cli import ExperimentConfig, default_initial_state, main
from consensim.engine import build_system, predict
from consensim.graph import parse_edge_list

from helpers import back_edge_cycle, default_initial_state_oracle, ring_with_chords, tap_inboxes

TRIANGLE = "0 1\n1 2\n2 0\n"
# a directed 24-cycle: the default run needs about 7000 steps
SLOW_CYCLE = "".join(f"{i} {(i + 1) % 24}\n" for i in range(24))
BIDIRECTED_TRIANGLE = "0 1\n1 0\n1 2\n2 1\n2 0\n0 2\n"
# an undirected 3 x 3 grid: nodes 3r + c, edges along rows and along columns
GRID = "".join(
    f"{i} {j}\n{j} {i}\n"
    for i, j in [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
    + [(k, k + 3) for k in range(6)]
)


def edge_text(g):
    return "".join(f"{i} {j}\n" for i, j in sorted(g.edges))


def ring_text(n):
    return edge_text(ring_with_chords(np.random.default_rng(7), n, 3))


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaultInitialState:
    def test_deterministic_and_in_unit_interval(self):
        a = default_initial_state(100, 0)
        b = default_initial_state(100, 0)
        assert a.tobytes() == b.tobytes()
        assert float(a.min()) >= 0.0 and float(a.max()) < 1.0

    def test_seed_changes_the_stream(self):
        assert default_initial_state(8, 0).tobytes() != default_initial_state(8, 1).tobytes()

    def test_prefix_stability(self):
        # the stream for n values is a prefix of the stream for more values
        short = default_initial_state(4, 9)
        long = default_initial_state(8, 9)
        assert long[:4].tobytes() == short.tobytes()

    def test_golden_values_for_seed_zero(self):
        # splitmix64's first output for seed 0 is 0xE220A8397B1DCDAF; its top
        # 53 bits scaled by 2**-53 give the first value
        first = (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        golden = [0.8833108082136426, 0.43152799704850997, 0.026433771592597743]
        assert golden[0] == first
        assert default_initial_state(3, 0).tolist() == golden

    def test_seed_is_taken_modulo_two_to_the_64(self):
        wrapped = default_initial_state(6, 2**64 + 5)
        assert wrapped.tobytes() == default_initial_state(6, 5).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 1000, 10**5])
    @pytest.mark.parametrize("seed", [0, 1, 3, 5, 2**63, 2**64 - 1, 2**64 + 5, 2**70 + 3])
    def test_bitwise_equal_to_the_per_node_loop(self, n, seed):
        expected = default_initial_state_oracle(n, seed).tobytes()
        assert default_initial_state(n, seed).tobytes() == expected

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("text", [TRIANGLE, ring_text(100)], ids=["n3", "n100"])
    def test_seed_gives_the_same_outputs_as_its_state_in_an_x0_file(
        self, command, text, tmp_path, monkeypatch, capsys
    ):
        # n = 3 prints and traces whole states, n = 100 only their extremes
        seed = 2**64 + 3
        g = write(tmp_path, "g.txt", text)
        state = default_initial_state(parse_edge_list(text).n, seed).tolist()
        x0 = write(tmp_path, "x0.txt", "".join(f"{x!r}\n" for x in state))
        results = []
        for name, flags in [("seeded", ["--seed", str(seed)]), ("x0", ["--x0", str(x0)])]:
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            rc = main([command, "--graph", str(g), *flags, "--out", "out"])
            outputs = ["trace.csv", "summary.json"] if command == "run" else []
            files = [Path("out", f).read_bytes() for f in outputs]
            results.append((rc, capsys.readouterr().out, files))
        assert results[0] == results[1]
        assert results[0][0] == 0


class TestCheck:
    def test_certified_triangle(self, tmp_path, triangle, capsys):
        w = write(tmp_path, "w.txt", "1\n2\n3\n")
        x0 = write(tmp_path, "x0.txt", "6\n0\n0\n")
        rc = main(["check", "--graph", str(triangle), "--weights", str(w), "--x0", str(x0)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nodes: 3" in out
        assert "edges: 3" in out
        assert "strongly_connected: true" in out
        assert "undirected: false" in out
        assert "epsilon_bound: 1.0" in out
        assert "certified: true" in out
        assert "predicted_alpha: 1.0" in out
        assert "hypotheses: ok" in out

    @pytest.mark.parametrize(
        "text, bound", [("0 1\n", "1.0"), ("nodes 3\n", "inf")], ids=["arc", "edgeless"]
    )
    def test_not_strongly_connected_exits_2(self, tmp_path, capsys, text, bound):
        g = write(tmp_path, "arc.txt", text)
        rc = main(["check", "--graph", str(g)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "strongly_connected: false" in out
        assert f"epsilon_bound: {bound}\n" in out
        assert "not strongly connected" in out

    def test_epsilon_at_bound_violates_hypotheses(self, triangle, capsys):
        rc = main(["check", "--graph", str(triangle), "--epsilon", "1.0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "not strictly below the bound" in out

    def test_malformed_graph_exits_1(self, tmp_path, capsys):
        g = write(tmp_path, "bad.txt", "0 1\n1 x\n")
        rc = main(["check", "--graph", str(g)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_node_count_too_large_to_allocate_exits_1(self, tmp_path, capsys):
        # 10**12 + 1 nodes: numpy refuses the 7.28 TiB of unit weights at once
        g = write(tmp_path, "huge.txt", "0 1000000000000\n1000000000000 0\n")
        assert main(["check", "--graph", str(g)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 99999999999999999999\n", "error: Maximum allowed dimension exceeded\n"),
            (
                "nodes 3\n0 99999999999999999999\n",
                "error: line 2: edge (0, 99999999999999999999) exceeds declared node count 3\n",
            ),
        ],
        ids=["inferred", "declared"],
    )
    def test_an_index_beyond_int64_exits_1(self, text, message, tmp_path, capsys):
        g = write(tmp_path, "g.txt", text)
        assert main(["check", "--graph", str(g)]) == 1
        assert capsys.readouterr() == ("", message)

    def test_missing_graph_file_exits_1(self, tmp_path, capsys):
        rc = main(["check", "--graph", str(tmp_path / "absent.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_certified_cycle_with_weight_spread_1e10(self, tmp_path, capsys):
        # a certified configuration must never be rejected by the numerics of v
        n = 50
        g = write(tmp_path, "cycle.txt", "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        w = write(tmp_path, "w.txt", "".join(f"{float(x)!r}\n" for x in np.logspace(0, 10, n)))
        rc = main(["check", "--graph", str(g), "--weights", str(w)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certified: true" in out
        assert "hypotheses: ok" in out

    def test_undirected_graph_reported(self, tmp_path, capsys):
        g = write(tmp_path, "pair.txt", "0 1\n1 0\n")
        rc = main(["check", "--graph", str(g)])
        assert rc == 0
        assert "undirected: true" in capsys.readouterr().out

    def test_one_node_graph(self, tmp_path, capsys):
        # no edges: P is the identity and the step sums an empty edge list
        g = write(tmp_path, "one.txt", "nodes 1\n")
        rc = main(["check", "--graph", str(g)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "v: [1.0]" in lines
        assert "rho_estimate: 1.0" in lines

    @staticmethod
    def check_weighted_ring(tmp_path, capsys, n):
        ring = "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
        g = write(tmp_path, "ring.txt", ring)
        w = write(tmp_path, "w.txt", "".join(f"{i + 1}\n" for i in range(n)))
        rc = main(["check", "--graph", str(g), "--weights", str(w)])
        assert rc == 0
        v = build_system(parse_edge_list(ring), np.arange(1.0, n + 1.0)).v
        return capsys.readouterr().out.splitlines(), v

    def test_v_printed_whole_at_64_nodes(self, tmp_path, capsys):
        lines, v = self.check_weighted_ring(tmp_path, capsys, 64)
        assert "v: [" + ", ".join(repr(float(x)) for x in v) + "]" in lines
        assert not any(line.startswith(("v_min:", "v_max:")) for line in lines)

    def test_v_extremes_only_above_64_nodes(self, tmp_path, capsys):
        lines, v = self.check_weighted_ring(tmp_path, capsys, 65)
        assert f"v_min: {float(v.min())!r}" in lines
        assert f"v_max: {float(v.max())!r}" in lines
        assert not any(line.startswith("v:") for line in lines)


    @pytest.mark.parametrize(
        "graph, route",
        [
            (TRIANGLE, "gmres"),
            (GRID, "weights"),
            (ring_text(400), "gmres"),
            (edge_text(back_edge_cycle(400)), "dense"),
        ],
        ids=["triangle", "grid", "ring-with-chords", "stalled-gmres"],
    )
    def test_v_route_reported(self, graph, route, tmp_path, capsys):
        g = write(tmp_path, "g.txt", graph)
        assert main(["check", "--graph", str(g)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index(f"v_route: {route}")
        assert lines[at - 1].startswith(("v: ", "v_max: "))
        assert lines[at + 1].startswith("predicted_alpha: ")
        main(["run", "--graph", str(g), "--max-steps", "1", "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["v_route"] == route

    def test_no_v_route_without_strong_connectivity(self, tmp_path, capsys):
        g = write(tmp_path, "arc.txt", "0 1\n")
        assert main(["check", "--graph", str(g)]) == 2
        assert "v_route" not in capsys.readouterr().out
        main(["run", "--graph", str(g), "--allow-uncertified", "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["v"] is None and summary["v_route"] is None


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path, triangle, capsys):
        w = write(tmp_path, "w.txt", "1\n2\n3\n")
        x0 = write(tmp_path, "x0.txt", "6\n0\n0\n")
        out = tmp_path / "out"
        rc = main(
            ["run", "--graph", str(triangle), "--weights", str(w), "--x0", str(x0),
             "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 3
        assert summary["m"] == 3
        assert summary["strongly_connected"] is True
        assert summary["undirected"] is False
        assert summary["certified"] is True
        assert summary["epsilon"] == 0.9
        assert summary["epsilon_bound"] == 1.0
        assert summary["mode"] == "matrix"
        assert summary["converged_at"] == summary["steps_run"]
        assert summary["final_disagreement"] < 1e-10
        assert summary["conserved_drift"] < 1e-10
        assert len(summary["final_state"]) == 3
        assert len(summary["v"]) == 3

        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,disagreement,conserved,x_0,x_1,x_2"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == 6.0
        last = lines[-1].split(",")
        assert int(last[0]) == summary["steps_run"]

    def test_weights_whose_sum_overflows(self, tmp_path, capsys):
        # both weights 1e308: certified, and sum(w) is inf
        g = write(tmp_path, "pair.txt", "0 1\n1 0\n")
        w = write(tmp_path, "w.txt", "1e308\n1e308\n")
        out = tmp_path / "out"
        assert main(["check", "--graph", str(g), "--weights", str(w)]) == 0
        assert main(["run", "--graph", str(g), "--weights", str(w), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["v"] == [0.5, 0.5]
        assert summary["predicted_alpha"] == pytest.approx(summary["final_state"][0], abs=1e-9)

    def test_edgeless_graph_summary_is_strict_json(self, tmp_path):
        g = write(tmp_path, "one.txt", "nodes 1\n")
        out = tmp_path / "out"
        assert main(["run", "--graph", str(g), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["epsilon_bound"] is None

    def test_predicted_alpha_round_trips_exactly(self, tmp_path, triangle):
        w = write(tmp_path, "w.txt", "1\n2\n3\n")
        x0 = write(tmp_path, "x0.txt", "0.1\n-2.75\n3.5\n")
        out = tmp_path / "out"
        rc = main(
            ["run", "--graph", str(triangle), "--weights", str(w), "--x0", str(x0),
             "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        system = build_system(parse_edge_list(TRIANGLE), [1.0, 2.0, 3.0])
        pred = predict(system, [0.1, -2.75, 3.5])
        assert summary["predicted_alpha"] == pred.alpha
        assert summary["v"] == [float(x) for x in pred.v]

    def test_uncertified_epsilon_refused_without_override(self, triangle, tmp_path, capsys):
        rc = main(
            ["run", "--graph", str(triangle), "--epsilon", "1.5", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "not certified" in err
        assert "--allow-uncertified" in err

    @pytest.mark.parametrize(
        "graph, flags, failed",
        [
            ("0 1\n", [], "graph is not strongly connected"),
            (TRIANGLE, ["--epsilon", "1.5"], "epsilon 1.5 is not strictly below the bound 1.0"),
        ],
        ids=["arc", "epsilon"],
    )
    def test_refusal_names_the_failed_hypotheses(self, tmp_path, capsys, graph, flags, failed):
        g = write(tmp_path, "g.txt", graph)
        rc = main(["run", "--graph", str(g), *flags, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"not certified: {failed}; pass --allow-uncertified to run anyway\n" in err

    def test_override_runs_convergent_uncertified_system(self, tmp_path):
        # bidirected triangle: the degree bound is 0.5 but the iteration
        # still contracts for this epsilon
        g = write(tmp_path, "bi.txt", BIDIRECTED_TRIANGLE)
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(g), "--epsilon", "0.55", "--allow-uncertified",
             "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certified"] is False
        assert summary["converged_at"] is not None

    def test_non_convergence_exits_3_with_partial_outputs(self, tmp_path, triangle, capsys):
        x0 = write(tmp_path, "x0.txt", "9\n0\n0\n")
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(triangle), "--x0", str(x0), "--max-steps", "3",
             "--out", str(out)]
        )
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged_at"] is None
        assert summary["steps_run"] == 3
        assert (out / "trace.csv").exists()

    def test_nan_tolerance_exits_1(self, tmp_path, triangle, capsys):
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(triangle), "--tol", "nan", "--max-steps", "200000",
             "--out", str(out)]
        )
        assert rc == 1
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_run_stops_and_writes_strict_json(self, tmp_path, triangle, capsys):
        # epsilon 5 is far above the bound 1: the state overflows to inf and
        # then nan well before the budget, where disagreement can never
        # fall below tol
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(triangle), "--epsilon", "5", "--allow-uncertified",
             "--max-steps", "2000", "--out", str(out)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "diverged at step" in err

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["converged_at"] is None
        assert summary["steps_run"] < 2000
        assert f"diverged at step {summary['steps_run']}" in err
        assert summary["final_disagreement"] is None
        assert summary["conserved_drift"] is None
        assert None in summary["final_state"]
        last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
        assert int(last[0]) == summary["steps_run"]

    def test_diverged_run_raises_no_numpy_warning(self, tmp_path, triangle, capsys):
        # the run loop detects divergence itself, so numpy's overflow and
        # invalid-value warnings on the way there are noise ahead of its message
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["run", "--graph", str(triangle), "--epsilon", "5", "--allow-uncertified",
                 "--out", str(out)]
            )
        assert rc == 3
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert "diverged at step" in err

    @pytest.mark.parametrize("mode", ["matrix", "agents"])
    def test_diverged_triangle_stops_at_step_346_in_both_modes(
        self, mode, tmp_path, triangle, capsys
    ):
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(triangle), "--epsilon", "5", "--allow-uncertified",
             "--mode", mode, "--out", str(out)]
        )
        assert rc == 3
        assert "state diverged at step 346:" in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["steps_run"] == 346

    def test_a_finite_state_whose_spread_overflows_is_not_diverged(self, tmp_path, capsys):
        # step 0's spread max - min overflows to inf, its entries do not; the
        # update first overflows at step 1
        g = write(tmp_path, "pair.txt", "0 1\n1 0\n")
        x0 = write(tmp_path, "x0.txt", "1.7e308\n-1.7e308\n")
        rc = main(["run", "--graph", str(g), "--x0", str(x0), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "state diverged at step 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_path_whose_spread_overflows_converges(self, command, tmp_path, capsys):
        # no edge joins the extremes 0 and 2, so no update overflows
        g = write(tmp_path, "path.txt", "0 1\n1 0\n1 2\n2 1\n")
        x0 = write(tmp_path, "x0.txt", "1.7e308\n0\n-1.7e308\n")
        rc = main([command, "--graph", str(g), "--x0", str(x0), "--out", str(tmp_path / "o")])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "converged_at: none" not in out and "converged: false" not in out

    @pytest.mark.parametrize("mode", ["matrix", "agents"])
    @pytest.mark.parametrize("max_steps", [1, 255, 256, 257, 511])
    def test_budget_at_block_edges_exits_3(self, max_steps, mode, tmp_path, capsys):
        g = write(tmp_path, "cycle.txt", SLOW_CYCLE)
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(g), "--max-steps", str(max_steps), "--mode", mode,
             "--out", str(out)]
        )
        assert rc == 3
        assert f"did not converge within {max_steps} steps" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps_run"] == max_steps
        assert summary["converged_at"] is None
        last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
        assert int(last[0]) == max_steps

    def test_modes_produce_identical_trace_bytes(self, tmp_path, triangle):
        w = write(tmp_path, "w.txt", "0.7\n2.5\n9.25\n")
        out_m = tmp_path / "m"
        out_a = tmp_path / "a"
        for mode, out in (("matrix", out_m), ("agents", out_a)):
            rc = main(
                ["run", "--graph", str(triangle), "--weights", str(w), "--seed", "5",
                 "--mode", mode, "--out", str(out)]
            )
            assert rc == 0
        assert filecmp.cmp(out_m / "trace.csv", out_a / "trace.csv", shallow=False)
        sm = json.loads((out_m / "summary.json").read_text())
        sa = json.loads((out_a / "summary.json").read_text())
        assert sm.pop("mode") == "matrix"
        assert sa.pop("mode") == "agents"
        assert sm == sa

    def test_same_configuration_is_byte_reproducible(self, tmp_path, triangle):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            rc = main(["run", "--graph", str(triangle), "--seed", "42", "--out", str(out)])
            assert rc == 0
        assert filecmp.cmp(out1 / "trace.csv", out2 / "trace.csv", shallow=False)
        assert filecmp.cmp(out1 / "summary.json", out2 / "summary.json", shallow=False)

    def test_constant_initial_state_converges_at_step_zero(self, tmp_path, triangle):
        x0 = write(tmp_path, "x0.txt", "2.5\n2.5\n2.5\n")
        out = tmp_path / "o"
        rc = main(["run", "--graph", str(triangle), "--x0", str(x0), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged_at"] == 0
        assert summary["steps_run"] == 0

    def test_large_graph_trace_keeps_extremes_only(self, tmp_path):
        n = 70
        ring = "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
        g = write(tmp_path, "ring.txt", ring)
        out = tmp_path / "o"
        rc = main(["run", "--graph", str(g), "--max-steps", "50", "--out", str(out)])
        assert rc == 3
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,disagreement,conserved,x_min,x_max"
        summary = json.loads((out / "summary.json").read_text())
        assert "final_state" not in summary
        assert len(summary["v"]) == n

    def test_snapshot_budget_respected(self, tmp_path, triangle):
        out = tmp_path / "o"
        rc = main(
            ["run", "--graph", str(triangle), "--epsilon", "0.999", "--tol", "1e-15",
             "--max-steps", "2000", "--snapshots", "20", "--out", str(out)]
        )
        assert rc == 3
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) - 1 <= 20
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[0] == "2000"

    def test_nonpositive_weight_exits_1(self, tmp_path, triangle, capsys):
        w = write(tmp_path, "w.txt", "1\n-1\n1\n")
        rc = main(["run", "--graph", str(triangle), "--weights", str(w), "--out", str(tmp_path)])
        assert rc == 1
        assert "strictly positive" in capsys.readouterr().err

    def test_wrong_weight_count_exits_1(self, tmp_path, triangle, capsys):
        w = write(tmp_path, "w.txt", "1\n2\n")
        rc = main(["run", "--graph", str(triangle), "--weights", str(w), "--out", str(tmp_path)])
        assert rc == 1
        assert "expected 3" in capsys.readouterr().err

    def test_bad_x0_value_exits_1(self, tmp_path, triangle, capsys):
        x0 = write(tmp_path, "x0.txt", "1\nzzz\n3\n")
        rc = main(["run", "--graph", str(triangle), "--x0", str(x0), "--out", str(tmp_path)])
        assert rc == 1
        assert "not a number" in capsys.readouterr().err

    def test_bad_epsilon_exits_1(self, triangle, tmp_path):
        assert main(["run", "--graph", str(triangle), "--epsilon", "0", "--out", str(tmp_path)]) == 1
        assert main(["run", "--graph", str(triangle), "--epsilon", "-2", "--out", str(tmp_path)]) == 1

    def test_bad_flag_values_exit_1(self, triangle, tmp_path, capsys):
        assert main(["run", "--graph", str(triangle), "--epsilon", "abc"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["run", "--graph", str(triangle), "--max-steps", "0"]) == 1
        assert main(["run", "--graph", str(triangle), "--snapshots", "1"]) == 1
        assert main(["run", "--graph", str(triangle), "--seed", "-4"]) == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err


class TestParser:
    HELP_FLAGS = [
        "--graph GRAPH",
        "--weights WEIGHTS",
        "--x0 X0",
        "--epsilon EPSILON",
        "--tol TOL",
        "--max-steps MAX_STEPS",
        "--mode {matrix,agents}",
        "--allow-uncertified",
        "--out OUT",
        "--snapshots SNAPSHOTS",
        "--seed SEED",
    ]

    @pytest.mark.parametrize("command", ["check", "run", "compare"])
    def test_help_lists_every_flag_with_its_metavar(self, command, monkeypatch, capsys):
        # argparse wraps its help text to the terminal's width
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        usage = f"usage: consensim {command} [-h] --graph GRAPH [--weights WEIGHTS] [--x0 X0]"
        assert out.startswith(usage)
        for flag in self.HELP_FLAGS:
            assert f"\n  {flag} " in out or f"\n  {flag}\n" in out, flag

    @staticmethod
    def loaded_configs(monkeypatch) -> list:
        seen = []
        load_problem = cli._load_problem

        def spy(config):
            seen.append(config)
            return load_problem(config)

        monkeypatch.setattr(cli, "_load_problem", spy)
        return seen

    def test_flags_not_given_leave_the_config_defaults(self, triangle, monkeypatch, capsys):
        seen = self.loaded_configs(monkeypatch)
        assert main(["check", "--graph", str(triangle)]) == 0
        assert seen == [ExperimentConfig(graph_path=str(triangle))]

    def test_every_flag_lands_on_its_config_field(self, triangle, tmp_path, monkeypatch, capsys):
        seen = self.loaded_configs(monkeypatch)
        w = write(tmp_path, "w.txt", "1\n2\n3\n")
        x0 = write(tmp_path, "x0.txt", "6\n0\n0\n")
        argv = ["run", "--graph", str(triangle), "--weights", str(w), "--x0", str(x0)]
        argv += ["--epsilon", "1.2", "--tol", "1e-6", "--max-steps", "400", "--mode", "agents"]
        argv += ["--allow-uncertified", "--out", str(tmp_path / "out"), "--snapshots", "9"]
        argv += ["--seed", "5"]
        assert main(argv) == 0
        assert seen == [
            ExperimentConfig(
                graph_path=str(triangle),
                weights_path=str(w),
                x0_path=str(x0),
                epsilon=1.2,
                tol=1e-6,
                max_steps=400,
                mode="agents",
                allow_uncertified=True,
                out_dir=str(tmp_path / "out"),
                snapshot_limit=9,
                seed=5,
            )
        ]


def perturb_inbox(monkeypatch, node: int, update: int) -> None:
    """Raise every message in agent node's update-th inbox by 1e-9 before the agent reads it."""
    updates = 0

    def perturbed(agent, inbox):
        nonlocal updates
        if agent.id == node:
            updates += 1
            if updates == update:
                return tuple(x + 1e-9 for x in inbox)
        return inbox

    tap_inboxes(monkeypatch, perturbed)


class TestCompare:
    def test_matching_modes_exit_0(self, tmp_path, triangle, capsys):
        rc = main(["compare", "--graph", str(triangle), "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traces identical: true" in out

    def test_comparison_covers_forced_full_horizon(self, tmp_path, triangle, capsys):
        rc = main(
            ["compare", "--graph", str(triangle), "--tol", "1e-300", "--max-steps", "120",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recorded_steps: 121" in out
        assert "converged: false" in out

    @pytest.mark.parametrize("extra", [[], ["--snapshots", "3"]], ids=["every-row", "thinned"])
    def test_perturbed_agent_detected_with_step_and_node(
        self, extra, tmp_path, triangle, capsys, monkeypatch
    ):
        # with 3 snapshots step 5 is never recorded; the divergence is still
        # reported where it happens, not at the next recorded row
        perturb_inbox(monkeypatch, node=1, update=5)
        rc = main(["compare", "--graph", str(triangle), "--out", str(tmp_path)] + extra)
        captured = capsys.readouterr()
        assert rc == 4
        assert "traces identical: false" in captured.out
        assert "step 5," in captured.err
        assert "node 1 " in captured.err

    def test_perturbed_agent_detected_inside_a_full_block(
        self, tmp_path, capsys, monkeypatch
    ):
        # step 300 lies in the first 256-row block; agent mode still stops
        # on the same step as matrix mode, so every row is compared
        perturb_inbox(monkeypatch, node=1, update=300)
        g = write(tmp_path, "cycle.txt", SLOW_CYCLE)
        rc = main(["compare", "--graph", str(g), "--max-steps", "600", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 4
        assert "first divergence: step 300, node 1 " in captured.err

    def test_thinned_compare_reports_what_run_records(self, tmp_path, capsys):
        g = write(tmp_path, "cycle.txt", SLOW_CYCLE)
        common = ["--graph", str(g), "--snapshots", "7"]
        assert main(["compare"] + common) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert main(["run", "--out", str(tmp_path / "out")] + common) == 0
        run_fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        assert int(fields["recorded_steps"]) == len(rows)
        assert run_fields["converged_at"] != "none"
        assert fields["converged"] == "true"

    def test_uncertified_compare_refused(self, triangle, tmp_path, capsys):
        rc = main(
            ["compare", "--graph", str(triangle), "--epsilon", "2.0", "--out", str(tmp_path)]
        )
        assert rc == 2


def count_agent_steps(monkeypatch) -> list:
    """Count the rounds of every agent network: each round sends agent 0 one inbox."""
    counted = []

    def counting(agent, inbox):
        if agent.id == 0:
            counted.append(1)
        return inbox

    tap_inboxes(monkeypatch, counting)
    return counted


class TestCompareContract:
    """compare steps the agent network once per step the run takes, and no further."""

    @pytest.mark.parametrize(
        "graph, flags, stop",
        [
            (TRIANGLE, [], "converged"),
            (TRIANGLE, ["--tol", "1e-300", "--max-steps", "5000"], "repeats step"),
            (TRIANGLE, ["--epsilon", "5", "--allow-uncertified"], "diverged at step 346:"),
            (SLOW_CYCLE, ["--max-steps", "255"], "within 255 steps"),
            (SLOW_CYCLE, ["--max-steps", "256"], "within 256 steps"),
            (SLOW_CYCLE, ["--max-steps", "257"], "within 257 steps"),
        ],
        ids=["converged", "cycled", "diverged", "budget-255", "budget-256", "budget-257"],
    )
    def test_the_agents_take_exactly_the_steps_the_run_takes(
        self, graph, flags, stop, tmp_path, capsys, monkeypatch
    ):
        g = write(tmp_path, "g.txt", graph)
        out = tmp_path / "o"
        main(["run", "--graph", str(g), "--out", str(out)] + flags)
        assert stop in capsys.readouterr().err or stop == "converged"
        steps_run = json.loads((out / "summary.json").read_text())["steps_run"]
        counted = count_agent_steps(monkeypatch)
        assert main(["compare", "--graph", str(g)] + flags) == 0
        printed = capsys.readouterr().out
        assert "traces identical: true" in printed
        assert f"converged: {'true' if stop == 'converged' else 'false'}" in printed
        assert len(counted) == steps_run

    @pytest.mark.parametrize(
        "step, node", [(1, 3), (128, 1), (129, 7), (256, 23), (257, 0)],
        ids=["first-round", "last-of-block", "first-of-next", "last-of-256-block",
             "first-of-next-256"],
    )
    def test_a_fault_at_a_block_edge_is_named_at_its_step_and_node(
        self, step, node, tmp_path, capsys, monkeypatch
    ):
        # step 1 is a block of one row; the blocks end at steps 128 and 256,
        # the cycle test's save steps
        perturb_inbox(monkeypatch, node=node, update=step)
        g = write(tmp_path, "cycle.txt", SLOW_CYCLE)
        assert main(["compare", "--graph", str(g), "--max-steps", "600"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "traces identical: false\n"
        assert f"first divergence: step {step}, node {node} " in captured.err

    @pytest.mark.parametrize("step", [1, 6])
    def test_a_zero_of_the_other_sign_is_a_divergence(self, step, tmp_path, capsys, monkeypatch):
        # from a unit pulse at node 0, node 12 of the 24-cycle holds exactly 0.0
        # until step 12; agent 12 commits -0.0 in its place at the given step,
        # which equals the matrix's state under == but not bitwise
        real = consensim.agents._actor

        def flipping(agent, epsilon):
            actor = real(agent, epsilon)
            next(actor)
            inbox = yield
            for update in itertools.count(1):
                state = actor.send(inbox)
                inbox = yield -state if agent.id == 12 and update == step else state

        monkeypatch.setattr(consensim.agents, "_actor", flipping)
        g = write(tmp_path, "cycle.txt", SLOW_CYCLE)
        x0 = write(tmp_path, "x0.txt", "1\n" + "0\n" * 23)
        assert main(["compare", "--graph", str(g), "--x0", str(x0)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "traces identical: false\n"
        assert captured.err == (
            f"first divergence: step {step}, node 12 (matrix 0.0, agents -0.0)\n"
        )


class TestBlockLoop:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_one_block_loop_call_per_block_and_no_single_steps(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # the 85-cycle's 2000-step budget: blocks up to each save step 1, 2,
        # 4, ..., 256, then 256 rows each, the last one cut by the budget
        sizes, steps = [], []
        real_advance, real_stepper = engine._advance, engine.matrix_stepper

        def spied_advance(*args):
            advance = real_advance(*args)

            def counted(x, rows):
                sizes.append(len(rows))
                return advance(x, rows)

            return counted

        def spied_stepper(*args):
            step = real_stepper(*args)

            def counted(*xs):
                steps.append(1)
                return step(*xs)

            return counted

        monkeypatch.setattr(engine, "_advance", spied_advance)
        monkeypatch.setattr(engine, "matrix_stepper", spied_stepper)
        monkeypatch.setattr(cli, "matrix_stepper", spied_stepper, raising=False)
        counted = count_agent_steps(monkeypatch)
        g = write(tmp_path, "cycle.txt", "".join(f"{i} {(i + 1) % 85}\n" for i in range(85)))
        argv = [command, "--graph", str(g), "--max-steps", "2000", "--out", str(tmp_path / "o")]
        assert main(argv) == (3 if command == "run" else 0)
        assert sizes == [1, 1, 2, 4, 8, 16, 32, 64, 128] + [256] * 6 + [208]
        assert steps == []
        assert len(counted) == (2000 if command == "compare" else 0)


class TestOneCertificationPerCommand:
    @pytest.mark.parametrize("command", ["check", "run", "compare"])
    def test_graph_facts_computed_once(self, command, tmp_path, triangle, monkeypatch, capsys):
        # v and strong connectivity depend on the graph and weights only, so a
        # command computes each once; v takes one solve, by either route
        calls = {"is_strongly_connected": 0, "gmres_null_vector": 0, "null_vector": 0}
        for name in calls:
            real = getattr(engine, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        assert main([command, "--graph", str(triangle), "--out", str(tmp_path)]) == 0
        assert calls["is_strongly_connected"] == 1
        assert calls["gmres_null_vector"] + calls["null_vector"] == 1

    @pytest.mark.parametrize("command", ["check", "run", "compare"])
    def test_certify_called_once(self, command, tmp_path, triangle, monkeypatch, capsys):
        # the summary reads the run's own verdict instead of certifying again
        calls = []
        real = engine.certify

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "certify", counted)
        monkeypatch.setattr(cli, "certify", counted)
        assert main([command, "--graph", str(triangle), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command", [["check"], ["run", "--max-steps", "50"]], ids=["check", "run"]
    )
    def test_no_dense_matrix_on_a_large_graph(self, command, tmp_path, capsys):
        # one dense n x n float64 matrix at n = 2000 is 32 MB; the edge arrays,
        # the GMRES basis and the run's step buffer together stay far below 8 MB
        g = write(tmp_path, "ring.txt", ring_text(2000))
        argv = command + ["--graph", str(g), "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 8_000_000


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig(graph_path="g.txt")
        assert cfg.tol == 1e-10
        assert cfg.max_steps == 1_000_000
        assert cfg.snapshot_limit == 1000
        assert cfg.mode == "matrix"
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 0},
            {"seed": -1},
            {"mode": "hybrid"},
            {"epsilon": 0.0},
            {"epsilon": float("inf")},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(graph_path="g.txt", **kwargs)

    @pytest.mark.parametrize("field", ["max_steps", "snapshot_limit", "seed"])
    def test_rejects_a_count_that_is_not_an_integer(self, field):
        # run would raise the same TypeError, out of cmd_run; a seed of 2.5
        # would draw seed 2's stream
        with pytest.raises(TypeError):
            ExperimentConfig(graph_path="g", **{field: 2.5})

    def test_rejects_a_seed_of_nan(self):
        # nan passes "seed < 0" and would fail only once x0 is drawn
        with pytest.raises(TypeError):
            ExperimentConfig(graph_path="g", seed=float("nan"))

    def test_accepts_a_numpy_integer_seed(self):
        assert ExperimentConfig(graph_path="g", seed=np.int64(3)).seed == 3


class TestRunLimits:
    """ExperimentConfig and engine.run reject a bad run limit alike: one check, one message."""

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"tol": 0.0}, ValueError, "tol must be positive and finite"),
            ({"tol": -1.0}, ValueError, "tol must be positive and finite"),
            # every comparison with nan is false, so "tol <= 0" would let it
            # through and the run could only end on its budget
            ({"tol": float("nan")}, ValueError, "tol must be positive and finite"),
            ({"tol": float("inf")}, ValueError, "tol must be positive and finite"),
            ({"tol": float("-inf")}, ValueError, "tol must be positive and finite"),
            # a trace always holds the first and the final step
            ({"snapshot_limit": 1}, ValueError, "snapshots must be at least 2"),
            ({"snapshot_limit": 0}, ValueError, "snapshots must be at least 2"),
            ({"snapshot_limit": -5}, ValueError, "snapshots must be at least 2"),
            # "not snapshot_limit >= 2" fails nan
            ({"snapshot_limit": float("nan")}, ValueError, "snapshots must be at least 2"),
            # 2.5 fails at once, neither inside the loop nor truncated
            ({"max_steps": 2.5}, TypeError, "cannot be interpreted as an integer"),
            ({"snapshot_limit": 2.9}, TypeError, "cannot be interpreted as an integer"),
        ],
    )
    def test_the_config_and_run_raise_the_same_error(self, kwargs, error, message):
        with pytest.raises(error, match=message) as from_config:
            ExperimentConfig(graph_path="g", **kwargs)
        system = build_system(parse_edge_list(TRIANGLE), np.ones(3))
        with pytest.raises(error, match=message) as from_run:
            engine.run(system, [1.0, 2.0, 3.0], **{"max_steps": 10, **kwargs})
        assert type(from_config.value) is type(from_run.value)
        assert str(from_config.value) == str(from_run.value)


def module_env():
    # the child imports the same consensim source tree as this process
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntrypoint:
    def test_module_invocation_round_trip(self, tmp_path, triangle):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "consensim", "run", "--graph", str(triangle),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert "wrote:" in proc.stdout
        assert json.loads((out / "summary.json").read_text())["n"] == 3

    def test_module_invocation_propagates_exit_codes(self, tmp_path):
        g = tmp_path / "arc.txt"
        g.write_text("0 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "consensim", "check", "--graph", str(g)],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 2

    def test_the_console_script_smoke_test_passes(self, tmp_path):
        # the script CI runs against the installed console script, here
        # against this source tree
        script = Path(__file__).resolve().parent / "console_script.sh"
        env = {**module_env(), "CONSENSIM": f"{sys.executable} -m consensim"}
        proc = subprocess.run(
            ["bash", str(script)], cwd=tmp_path, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_the_benchmark_set_up_probe_loads_this_checkout(self):
        # bench/setup_probe.py imports ExperimentConfig and _load_problem by
        # name; a rename would otherwise surface only as a failed benchmark run
        root = Path(__file__).resolve().parents[1]
        inputs = root / "tests" / "golden" / "inputs"
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "setup_probe.py"),
             *(str(inputs / f"gen-ring-chords-64{suffix}.txt") for suffix in ("", "-w", "-x0"))],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert Path(proc.stdout.strip()).resolve() == root / "src" / "consensim" / "__init__.py"


class TestVectorFileParsing:
    def test_comments_and_blanks_allowed(self, tmp_path, triangle):
        w = write(tmp_path, "w.txt", "# weights\n1\n\n2\n3\n")
        out = tmp_path / "o"
        rc = main(["run", "--graph", str(triangle), "--weights", str(w), "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("flag", ["--weights", "--x0"])
    @pytest.mark.parametrize("entry", ["1_0", "\u0661", "\uff11"])
    def test_only_ascii_decimals_accepted(self, tmp_path, triangle, capsys, flag, entry):
        # float() would read a digit separator, an Arabic-Indic one and a
        # fullwidth one as numbers
        path = tmp_path / "vec.txt"
        path.write_text(f"1\n{entry}\n3\n", encoding="utf-8")
        rc = main(["run", "--graph", str(triangle), flag, str(path), "--out", str(tmp_path)])
        assert rc == 1
        label = flag.removeprefix("--")
        assert f"{label} file line 2: not a number: {entry!r}" in capsys.readouterr().err

    def test_undecodable_x0_file_exits_1(self, tmp_path, triangle, capsys):
        x0 = tmp_path / "bad.txt"
        x0.write_bytes(b"0.5\n\xff\n0.25\n")
        assert main(["check", "--graph", str(triangle), "--x0", str(x0)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: 'utf-8' codec can't decode ")

    def test_undecodable_byte_past_8_kib_is_reported_at_its_offset_in_the_file(
        self, tmp_path, triangle, capsys
    ):
        # the line reader decodes 8 KiB chunks; the offset counts from the file's start
        x0 = tmp_path / "bad.txt"
        x0.write_bytes(b"0.5\n" * 3003 + b"0.2\xff\n")
        assert main(["check", "--graph", str(triangle), "--x0", str(x0)]) == 1
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 12015: "
            f"invalid start byte in {x0}\n"
        )

    def test_non_finite_rejected(self, tmp_path, triangle, capsys):
        x0 = write(tmp_path, "x0.txt", "1\ninf\n3\n")
        rc = main(["run", "--graph", str(triangle), "--x0", str(x0), "--out", str(tmp_path)])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err


class TestKnownDefects:
    """Defects ROADMAP lists as open; the change that mends one turns its xfail into a test."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 12, defect 1: the dense route rejects the certified n = 100 chain",
    )
    def test_the_n_100_chain_is_certified_with_its_true_v_min(self, tmp_path, capsys):
        # edges i -> i + 1, i -> i - 1 and i -> i - 2 without wraparound
        edges = [(i, i + 1) for i in range(99)] + [(i, i - 1) for i in range(1, 100)]
        edges += [(i, i - 2) for i in range(2, 100)]
        g = write(tmp_path, "chain.txt", "".join(f"{i} {j}\n" for i, j in edges))
        rc = main(["check", "--graph", str(g)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        # GTH elimination gives 1.15455e-38; a positive but wrong result cannot pass
        v_min = next(line for line in lines if line.startswith("v_min: "))
        assert float(v_min.split()[1]) == pytest.approx(1.155e-38, rel=0.01)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 12, defect 2: a graph GMRES rejects takes the O(n^2) dense route",
    )
    def test_check_on_the_back_edge_cycle_builds_no_dense_matrix(self, tmp_path, capsys):
        # one dense 2000 x 2000 float64 matrix is 32 MB
        g = write(tmp_path, "cycle.txt", edge_text(back_edge_cycle(2000)))
        tracemalloc.start()
        try:
            rc = main(["check", "--graph", str(g)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 8_000_000
