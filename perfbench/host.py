"""Host fingerprint: which machine and interpreter produced a result.

Two results are comparable only when their fingerprints match
(``compare.py`` refuses the rest instead of calling them regressions).
``calibration_s`` times a fixed pure-Python kernel, so a busy or slower
host shows even when the CPU model string is the same.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibrate(reps: int = 3) -> float:
    """Best-of-``reps`` seconds of a fixed integer/dict/list kernel."""
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 1023] = table.get(acc & 1023, 0) + 1
        sorted(table.values())
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


def fingerprint() -> Dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_model": cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()} "
                  f"({' '.join(platform.python_build())}; "
                  f"{platform.python_compiler()})",
        "machine": platform.machine(),
        "calibration_s": calibrate(),
    }
