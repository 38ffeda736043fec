"""Thread pinning and the environment block stamped on every result.

:func:`pin_environment` must run before numpy is first imported: BLAS reads
its thread count once, at load time.  The benchmark process and the server
child it launches both call it, and the child also inherits the pinned
variables through its environment.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict

#: One BLAS/OpenMP thread per process: the load generator and the server
#: under test each get a core of their own on a two-core machine, and decode
#: speed no longer swings with the library's default thread count.
#: ``REPRO_BACKEND`` selects the gather-GEMM compute backend, whose plan
#: cache and dense fallback the per-layer metrics report.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_BACKEND": "gather",
}


#: The CPU the server child pins itself to (set by :func:`pin_cpus`).
SERVER_CPU_ENV = "PERFBENCH_SERVER_CPU"


def pin_environment() -> None:
    os.environ.update(PINNED)


def pin_cpus() -> None:
    """Pin this process to the first usable CPU and reserve the last for the server.

    The load generator and the server under test then never migrate or share
    a core (on a one-CPU machine they share it).
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    os.environ[SERVER_CPU_ENV] = str(cpus[-1])
    os.sched_setaffinity(0, {cpus[0]})


def pin_server_cpu() -> None:
    """In the server child: move to the CPU the benchmark process reserved."""
    cpu = os.environ.get(SERVER_CPU_ENV)
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {int(cpu)})


def env_block(root: Path) -> Dict[str, Any]:
    """Provenance of a result: CPUs, BLAS build and threads, versions, git sha."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "pinned_env": {key: os.environ.get(key) for key in PINNED},
        "cpus": {"benchmark": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
                 "server": os.environ.get(SERVER_CPU_ENV)},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }
