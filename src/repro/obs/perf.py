"""Build identity for the perf telemetry plane.

:func:`build_info` is the git revision / package version / python
triple stamped into ``/healthz`` and ``/perfz``, so a scraped metric
can be correlated with the exact serving revision (and with the
``BENCH_<rev>.json`` artifact committed for it).
"""

from __future__ import annotations

import pathlib
import platform
import subprocess

_build_info_cache: dict | None = None


def git_rev(cwd: str | None = None) -> str:
    """The short git revision of *cwd* (the package checkout by
    default), or ``"unknown"`` outside a git checkout — an installed
    package must still answer ``/healthz``."""
    if cwd is None:
        cwd = str(pathlib.Path(__file__).resolve().parent)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0, cwd=cwd,
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_info() -> dict:
    """Revision / version / runtime identity, computed once per process."""
    global _build_info_cache
    if _build_info_cache is None:
        from repro import __version__

        _build_info_cache = {
            "git_rev": git_rev(),
            "version": __version__,
            "python": platform.python_version(),
        }
    return dict(_build_info_cache)


__all__ = [
    "build_info",
    "git_rev",
]
