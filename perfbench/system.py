"""What the benchmark observes about the machine and its process tree.

Linux only: CPU time and peak resident set come from ``/proc``, which
also covers process-pool workers and the ``repro serve`` child that
``resource.getrusage`` would only report once they are reaped.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

#: Thread-count variables of BLAS and OpenMP runtimes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.  The first field after it is the state.
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User plus system CPU seconds of each live pid."""
    result = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            result[pid] = (int(fields[11]) + int(fields[12])) / _TICKS
    return result


def tree_cpu_seconds(root: int) -> dict[int, float]:
    return cpu_seconds(process_tree(root))


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two snapshots (new pids count fully)."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def peak_rss_mb(root: int) -> float:
    """Largest peak resident set (``VmHWM``) in ``root``'s tree, in MiB."""
    peak = 0
    for pid in process_tree(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]))
    return peak / 1024.0


def group_members(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[2]) == pgid:
                if fields[0] != "Z":
                    members.append(int(entry))
    return members


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read through its own API.

    Looks for the library bundled with numpy; ``None`` when there is
    none (a numpy built against another BLAS).
    """
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_commit(root: Path) -> str | None:
    """The checkout's commit, when it is a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict[str, Any]:
    """The environment block recorded with every result."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
    }
