"""The ordered pool of forked workers, and the one BLAS thread.

Ingest, feature writing and cross-validation
--------------------------------------------
All three run their work units through one ordered pool, :func:`ordered_map`:
the units go to forked workers, one per core available to the process (up
to one per unit), and their results come back in unit order. With one core
or no ``fork`` the same per-unit function runs in this process, and the
results are the same. At most two results per worker are in flight, so the
results held at once do not grow with the cohort. The first unit to fail,
in order, raises its own exception. Ingest and
:func:`~connectoml.evaluation.run_experiment` run their first unit (subject
0, fold unit 0) in the calling process before the pool starts.

One BLAS thread
---------------
:func:`one_blas_thread` runs every loaded OpenBLAS on one thread inside its
block and restores the previous counts after it. Sums split over threads
round differently, so :func:`~connectoml.evaluation.run_experiment` and the
cohort fill of :mod:`connectoml.dataio` run inside it. The pool's workers
fork inside it and keep one thread each, so a unit gives the same bytes in
a worker as in the calling process. One worker per core with several BLAS
threads each also made the ingest 4-10x slower (2 cores, OpenBLAS 0.3.31).
Other BLAS builds are not pinned.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import itertools
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
    from ``min(cores, len(units))`` forked workers (module docstring)."""
    workers = min(available_cores(), len(units))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        for unit in units:
            yield work(state, unit)
        return
    # Fork, not spawn: under fork the initializer's ``state`` (the shared
    # feature buffer among it) is inherited, not pickled; only units,
    # results and a failing unit's exception cross processes. Unlike
    # ``multiprocessing.Pool``, the executor raises if a worker dies
    # instead of waiting for it forever. The workers fork at the first
    # submit, inside the pin, and keep one BLAS thread each.
    with one_blas_thread(), ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(work, state),
    ) as pool:
        remaining = iter(units)
        in_flight = collections.deque(
            pool.submit(_work_in_worker, unit)
            for unit in itertools.islice(remaining, 2 * workers)
        )
        try:
            while in_flight:
                result = in_flight.popleft().result()
                for unit in itertools.islice(remaining, 1):
                    in_flight.append(pool.submit(_work_in_worker, unit))
                yield result
        finally:
            for future in in_flight:
                future.cancel()
