"""The record kept beside the numbers: machine, library versions and
the program's source size."""

from __future__ import annotations

import platform
from importlib import metadata
from pathlib import Path

import common


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> list[str]:
    """Cache levels as the VM reports them, e.g. "L3 Unified 307200K"."""
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        out.append(f"L{level} {kind} {size}")
    return out


def versions() -> dict:
    out = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "sympy"):
        try:
            out[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            out[package] = None
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(common.SRC.rglob("*.py")))


def machine_record() -> dict:
    return {
        "nproc": common.nproc(),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "versions": versions(),
        "src_lines": src_lines(),
        "note": "byte figures (optimal.engine_build.bytes_computed) are computed "
                "from array sizes, not measured; the reported last-level cache "
                "size makes cache-residency claims unverifiable here",
    }
