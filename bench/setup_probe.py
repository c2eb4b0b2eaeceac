"""Set-up probe: a fresh interpreter imports consensim and loads one problem.

Usage: python3 bench/setup_probe.py GRAPH WEIGHTS X0

Runs what every CLI process does before its real work: import the package and
call the CLI's own loader (parse the edge list, read and check weights and x0,
build the weighted system, pick the default step size).  The benchmark times
the whole process from outside.  Prints the path of the imported package so
the caller can check it loaded the checkout's source.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    graph_path, weights_path, x0_path = argv
    import consensim
    from consensim.cli import ExperimentConfig, _load_problem

    _load_problem(ExperimentConfig(graph_path, weights_path=weights_path, x0_path=x0_path))
    print(consensim.__file__)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
