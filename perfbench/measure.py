"""Statistics, the result line, and the environment record."""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(percentile, value, sample count)`` for the highest of
    :data:`TAIL_PERCENTILES` that leaves at least ten samples strictly
    above its rank, or ``None`` when even the median does not.
    """
    count = len(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= 10:
            return pct, percentile(values, pct), count
    return None


def _status_kb(pid: object, field: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MB.

    Reads ``VmHWM`` (the kernel's high-water mark) for the process and
    every live child process; falls back to ``getrusage`` where
    ``/proc`` is unavailable.
    """
    import multiprocessing

    own = _status_kb("self", "VmHWM")
    if own == 0:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(
        _status_kb(child.pid, "VmHWM") for child in multiprocessing.active_children()
    )
    return (own + children) / 1024.0


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> Dict[str, object]:
    import numpy

    from repro.parallel.pool import worker_count

    usable = worker_count()
    return {
        "usable_cores": usable,
        "nproc": os.cpu_count(),
        "session_workers": usable,
        "service_workers": usable if usable > 1 else 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
        "seed": seed,
    }


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    """The one-line JSON result: ``correct``, counts and named metrics."""
    for name, (value, unit) in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def windows(samples: List[Tuple[float, int]], width: float) -> List[float]:
    """Completions per second in consecutive windows of ``width`` s.

    ``samples`` are ``(completion offset in s, completions)``; the last,
    partial window is dropped unless it is the only one.
    """
    if not samples:
        return []
    end = max(t for t, _ in samples)
    count = max(1, int(end // width))
    totals = [0] * count
    for t, n in samples:
        slot = int(t // width)
        if slot < count:
            totals[slot] += n
    return [total / width for total in totals]
