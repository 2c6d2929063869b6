"""The host and tree that a measurement script ran on, as the "env" dict
each script writes beside its results."""

import os
import platform
import subprocess
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def _commit():
    """HEAD, suffixed -dirty when the measured tree has uncommitted edits."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def env() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _commit(),
    }
