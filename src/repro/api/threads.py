"""The process's thread budget: usable cores and OpenBLAS thread counts.

numpy and scipy wheels each bundle their own OpenBLAS —
``libscipy_openblas64_`` and ``libscipy_openblas``.  Importing
:mod:`repro` maps numpy's only; scipy's is mapped by the scipy modules
that link it, such as :mod:`scipy.sparse.csgraph`, which
:meth:`repro.graphs.Graph.connected_components` loads on first use.
Each starts one thread per core, and OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only when it loads, so a running process can
change its count only through the library's own
``*_set_num_threads`` entry point.  This module calls it through
:mod:`ctypes` on every OpenBLAS mapped into the process, as listed in
``/proc/self/maps``.  Where there is no such file, or no OpenBLAS,
:func:`blas_threads` returns ``None`` and :func:`set_blas_threads`
does nothing.

:func:`set_blas_threads` never raises a library above the count it
started with, so a cap set through ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` holds.  :class:`repro.api.Session` is the one
caller that sets the count: when a session first runs work
concurrently it gives each of its ``max_workers`` executor workers
``max(1, available_cores() // max_workers)`` BLAS threads, so executor
width × BLAS threads never exceeds the cores.

Examples
--------
>>> from repro.api.threads import available_cores, blas_threads
>>> available_cores() >= 1
True
>>> count = blas_threads()
>>> count is None or count >= 1
True
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import Callable

#: ``(getter, setter)`` symbol pairs, tried in order on each library:
#: the numpy>=2 / scipy>=1.13 wheels' prefixed builds (64-bit-integer,
#: then 32-bit), then unprefixed OpenBLAS (older wheels, system and
#: conda builds), again 64-bit-integer first.
_SYMBOLS = (
    (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
    ),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

#: A library's getter, its setter, and the count it started with.
_Control = tuple[Callable[[], int], Callable[[int], None], int]


def available_cores() -> int:
    """CPUs this process may run on.

    The affinity mask where the platform has one, so ``taskset`` and
    cpuset limits count; otherwise ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mapped_openblas() -> list[str]:
    """Paths of every OpenBLAS library mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths: set[str] = set()
    for line in maps.splitlines():
        if "openblas" not in line:
            continue
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            paths.add(fields[5])
    return sorted(paths)


# One entry per OpenBLAS ever mapped into the process.  Every read and
# write goes through here first, so the starting count is read before
# this module has changed it.
@functools.lru_cache(maxsize=None)
def _control(path: str) -> _Control | None:
    """One library's thread-count getter, setter and starting count."""
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(library, get_name, None)
        setter = getattr(library, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter, int(getter())
    return None


def _controls() -> list[_Control]:
    found = (_control(path) for path in _mapped_openblas())
    return [control for control in found if control is not None]


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS libraries will use, read from them.

    The largest count among them (they agree once
    :func:`set_blas_threads` has run, unless their starting counts
    differ); ``None`` when no OpenBLAS is loaded.
    """
    counts = [int(getter()) for getter, _, _ in _controls()]
    return max(counts) if counts else None


def set_blas_threads(count: int) -> None:
    """Set every loaded OpenBLAS to ``count`` threads, process-wide.

    Each library is capped at the count it started with, which is one
    per core unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
    lowered it.
    """
    for _, setter, start in _controls():
        setter(max(1, min(int(count), start)))
