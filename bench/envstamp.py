"""Process environment for benchmark children, and the stamp recorded with every result.

Imports nothing heavy at module level: BLAS reads its thread count when
numpy is first imported, so callers set the cap before that.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def checkout_root() -> Path:
    """The current directory, which must hold the consensim source tree."""
    root = Path.cwd().resolve()
    if not (root / "src" / "consensim" / "__init__.py").is_file():
        raise SystemExit(f"error: no consensim source under {root / 'src'}; run from a checkout")
    return root


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and child it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def thread_cap() -> int:
    """BLAS threads per process: nproc, or a lower cap already in the environment."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            cap = min(cap, int(value))
    return cap


def child_env(root: Path, cap: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in BLAS_THREAD_VARS:
        env[var] = str(cap)
    return env


def environment_stamp(root: Path, cap: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    git_sha = None
    if (root / ".git").exists() and shutil.which("git"):
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        git_sha = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src_hash.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_cap": cap,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
    }
