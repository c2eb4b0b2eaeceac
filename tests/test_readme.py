"""The README's library examples run as written, and the public names are the documented ones."""

import re
from pathlib import Path

import consensim

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # types
    "Agent", "Digraph", "RunTrace", "SpectralPrediction", "WeightedSystem",
    # errors
    "GraphFormatError", "HypothesisViolation", "MessageProtocolError", "NullSpaceError",
    # functions
    "agent_stepper", "build_agents", "build_system", "certify", "default_epsilon",
    "epsilon_bound", "load_edge_list", "matrix_stepper", "null_vector", "parse_edge_list",
    "predict", "run", "run_rounds",
    # constants
    "DEFAULT_MAX_STEPS", "DEFAULT_SNAPSHOT_LIMIT", "DEFAULT_TOL",
}


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "[]"
    assert namespace["trace"].converged_at == 28
    # the agents' states after 28 rounds are the run's final state, bit for bit
    final = namespace["reports"][-1].states
    assert list(final) == list(namespace["trace"].final_state)


def test_public_names_are_the_documented_ones():
    assert set(consensim.__all__) == PUBLIC
    assert len(consensim.__all__) == len(PUBLIC)
    for name in consensim.__all__:
        assert getattr(consensim, name) is not None
