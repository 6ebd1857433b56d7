"""The ordered pool of forked workers, and the one BLAS thread.

The pooled steps
----------------
Cohort ingest (the fill of :mod:`connectoml.dataio`), the matrix writer of
``synth``, the feature writer and reader, and cross-validation run their
work units through one ordered pool, :func:`ordered_map`: the calling
process runs the first unit while forked workers, one per core available
to the process (up to one per remaining unit), run the others, and the
results come back in unit order. The caller is one process more than
there are cores, so no core idles while the first unit runs. With one
core, one unit or no ``fork`` the same per-unit function runs in this
process alone, and the results are the same. Every unit is submitted at
once, and a failure cancels those not yet started. The first unit to
fail, in order, raises its own exception.

One BLAS thread
---------------
:func:`ordered_map` holds :func:`one_blas_thread`, which runs every loaded
OpenBLAS on one thread, for its whole run on either path: every unit, in
this process or in a worker (forked inside the pin), and the caller's code
between two results run on one thread, and the caller gets its previous
counts back when the map ends or raises. Sums split over threads round
differently; no other module pins. One worker per core with several BLAS
threads each also made the ingest 4-10x slower (2 cores, OpenBLAS 0.3.31).
Other BLAS builds are not pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

#: Thread-count (setter, getter) symbols of the OpenBLAS builds numpy ships
#: (2.x, 1.x) or links from the system.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> list:
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS this process
    has loaded; none without procfs or OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {
                line.split(maxsplit=5)[5].strip()
                for line in maps
                if "openblas" in line
            }
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            # ctypes' defaults (int arguments, an int result) fit both.
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the loaded OpenBLAS on one thread inside the block, and restore
    its previous thread count on leaving it, also on an exception."""
    previous = [(setter, getter()) for setter, getter in _loaded_openblas()]
    for setter, _ in previous:
        setter(1)
    try:
        yield
    finally:
        for setter, count in previous:
            setter(count)


def available_cores() -> int:
    """Cores this process may run on: its affinity mask, where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: The per-unit function and state of a forked worker, set once by its
#: initializer.
_worker_task = None


def _start_worker(work, state) -> None:
    global _worker_task
    _worker_task = (work, state)


def _work_in_worker(unit):
    work, state = _worker_task
    return work(state, unit)


def ordered_map(work, state, units):
    """Yield ``work(state, unit)`` for each of ``units``, in their order,
    each on one BLAS thread: the first from this process, the others from
    ``min(cores, len(units) - 1)`` forked workers (module docstring)."""
    with one_blas_thread():
        cores = available_cores()
        if (
            cores <= 1
            or len(units) <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            for unit in units:
                yield work(state, unit)
            return
        workers = min(cores, len(units) - 1)
        # Fork, not spawn: under fork the initializer's ``state`` (the
        # shared feature buffer among it) is inherited, not pickled; only
        # units, results and a failing unit's exception cross processes.
        # Unlike ``multiprocessing.Pool``, the executor raises if a worker
        # dies instead of waiting for it forever.
        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(work, state),
        ) as pool:
            futures = [
                pool.submit(_work_in_worker, unit) for unit in units[1:]
            ]
            try:
                yield work(state, units[0])
                for future in futures:
                    yield future.result()
            finally:
                for future in futures:
                    future.cancel()
