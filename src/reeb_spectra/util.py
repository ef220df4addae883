"""Small shared helpers."""

from __future__ import annotations

import os


def max_workers() -> int:
    """Thread cap from REEB_SPECTRA_THREADS (default: up to 4).

    The solvers run single-threaded; this value only feeds the environment
    record of the benchmark in `perfbench/`.
    """
    env = os.environ.get("REEB_SPECTRA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)
