"""The header every committed ``BENCH_*.json`` starts with.

A budget's numbers mean little without the machine and the code that
produced them, so each bench records the core count, the Python
version and the checkout's commit beside its measurements.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def run_header() -> dict:
    """``cpu_count``, ``python`` and ``git_sha`` of this run."""
    return {"cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "git_sha": git_sha()}
