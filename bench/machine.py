"""Thread pinning, machine speed and a description of the machine a
measurement ran on.

``pin_threads`` must run before numpy is first imported: BLAS reads its
thread count once, at load time.

``speed_chunk`` times a fixed chunk of one kind of work the package does
without calling the package, so a change to the package leaves it
unchanged: ``"small"``, numpy calls on 3 x 3 matrices with interpreter
arithmetic, as in the searches at N <= 5, or ``"decode"``, FISTA-like
steps with a 128 x 1024 map and 32 x 32 SVDs, as in the N = 32 decodes.
On a shared virtual machine the speed of one core moves by up to 1.9x
over seconds to minutes while other tenants load the host, and the kinds
of work speed up by different shares.  A time divided by the time of a
chunk of its kind measured around it, times that kind's
``SPEED_REFERENCE_S``, is the time at the reference speed, and moves much
less with the host.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

# Each chunk's median wall time on a shared 2-core Xeon (2.1 GHz) KVM
# guest with python 3.11 and numpy 2.4, in that host's usual loaded state.
SPEED_REFERENCE_S = {"small": 0.0028, "decode": 0.0023}


def pin_threads() -> None:
    """Single-threaded BLAS for this process and every child it starts.

    It takes effect in this process only if numpy is not imported yet.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def speed_chunk(kind: str) -> float:
    """Wall time of the fixed calibration chunk of ``kind``."""
    import numpy as np

    acc = 0.0
    if kind == "small":  # numpy calls on 3 x 3 matrices and interpreter arithmetic
        a = np.array([[2.0, 1.0, 0.5], [0.3, 1.5, 0.2], [0.1, 0.4, 1.1]])
        start = time.perf_counter()
        for _ in range(100):
            s = np.linalg.svd(a, compute_uv=False)
            acc += float(s[0]) + float(np.sum(np.abs(a @ a.T)))
            for k in range(40):
                acc += (k * 0.5) ** 0.5
    elif kind == "decode":  # FISTA steps: a 128 x 1024 map and 32 x 32 SVDs
        g = np.cos(np.arange(128 * 1024, dtype=float).reshape(128, 1024))
        m = np.sin(np.arange(32 * 32, dtype=float).reshape(32, 32))
        y, z = g[:, 0].copy(), np.zeros(1024)
        start = time.perf_counter()
        for _ in range(10):
            grad = (g.T @ (g @ z - y)).reshape(32, 32)
            u, s, vt = np.linalg.svd(m + 1e-3 * grad)
            z = ((u * np.maximum(s - 0.1, 0.0)) @ vt).ravel() * 1e-3
            acc += float(s[0])
    else:
        raise ValueError(f"unknown calibration chunk {kind!r}")
    elapsed = time.perf_counter() - start
    if not acc > 0:  # keeps the work observable
        raise AssertionError(acc)
    return elapsed


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def describe() -> dict:
    """Versions, core count, thread settings and commit of this run."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(),
    }


def add_package_path() -> None:
    """Import ``schatten_widths`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "schatten_widths" / "__init__.py").is_file():
        raise ImportError(f"no schatten_widths package under {src}")
    sys.path.insert(0, str(src))
