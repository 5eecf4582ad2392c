"""Facts about the machine a result was measured on, read from /proc and /sys only."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cgroup_cpu() -> str | None:
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return v2
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    return None if quota is None else f"{quota} {period}"


def _cgroup_memory() -> str | None:
    v2 = _read("/sys/fs/cgroup/memory.max")
    return v2 if v2 is not None else _read("/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _meminfo_kb(key: str) -> int | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return None


def _llc() -> str | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        level = int(_read(index / "level") or 0)
        if best is None or level > best[0]:
            best = (level, _read(index / "size"))
    return None if best is None else f"L{best[0]} {best[1]}"


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cgroup_cpu_max": _cgroup_cpu(),
        "cgroup_memory_max": _cgroup_memory(),
        "mem_total_kb": _meminfo_kb("MemTotal"),
        "llc": _llc(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }
