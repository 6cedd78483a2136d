"""Distribution regression over bags of feature vectors.

Regression where each training example is a *bag* of instance vectors with a
single scalar target. Bags are embedded as kernel mean maps and ridge
regression runs on those embeddings, either exactly (dual form over the bag
Gram matrix), over several sources at once (summed per-source kernels), or
approximately at scale (explicit random Fourier features). Summary-mean
baselines, an evaluation protocol, and a CLI are included.
"""

from __future__ import annotations

import concurrent.futures as _futures
import logging as _logging
import os as _os
import threading as _threading
from collections.abc import Callable as _Callable, Sequence as _Sequence
from itertools import accumulate as _accumulate


def _configure_threads() -> int:
    """Workers of ``_run_parts``: DISTREG_THREADS, never more than the usable
    CPUs; 0, empty or unset gives every usable CPU, and so does any other
    value that is not a count, with a warning. BLAS is not sized by it: it
    runs on one thread at every setting (``_one_blas_thread``). Called once,
    by ``_workers``."""
    if hasattr(_os, "sched_getaffinity"):
        cpus = len(_os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cpus = _os.cpu_count() or 1
    raw = _os.environ.get("DISTREG_THREADS", "").strip()
    if raw.isascii() and raw.isdigit():
        return min(int(raw), cpus) or cpus
    if raw:
        _logging.getLogger(__name__).warning(
            "DISTREG_THREADS=%r is not a thread count; using %d worker threads", raw, cpus
        )
    return cpus


def _extension(package: str, module: str):
    """The compiled module ``module`` of ``package`` (its path under the
    package's directory, without the suffix), opened with ``ctypes``, and its
    path; found through the import machinery's spec, so neither is imported.
    The handle is None where no such file opens. A handle to an extension
    module also finds the symbols of the libraries it links."""
    import ctypes
    import importlib.machinery
    import importlib.util

    spec = importlib.util.find_spec(package)
    root = spec.submodule_search_locations[0] if spec and spec.submodule_search_locations else package
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = _os.path.join(root, module + suffix)
        if _os.path.isfile(path):
            try:
                return ctypes.CDLL(path), path
            except OSError:
                return None, path
    return None, _os.path.join(root, module)


def _blas_symbols(library, *names: str):
    """The functions ``names`` behind a ``ctypes`` handle (or None), under the
    first spelling an OpenBLAS build exports all of them in: prefix
    ``scipy_`` or none, then suffix ``64_`` or none. Returns them and whether
    the suffix is ``64_``, whose routines take 64-bit integers; (None, False)
    where no spelling has them all."""
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            found = [getattr(library, f"{prefix}{name}{suffix}", None) for name in names]
            if None not in found:
                return found, suffix == "64_"
    return None, False


def _one_blas_thread(library, path: str) -> None:
    """Put the OpenBLAS behind ``library``, the handle ``_extension`` opened
    from ``path``, on one thread for the whole process, through its thread
    setter.

    A BLAS product or factorization split across threads rounds differently,
    so this is what gives every output the same bytes at every
    DISTREG_THREADS and import order. Where no setter is found, the
    ``*_NUM_THREADS`` variables are set to 1 where unset, which reaches only a
    BLAS loaded later; that is logged at INFO.
    """
    setter, _ = _blas_symbols(library, "openblas_set_num_threads")
    if setter is not None:
        import ctypes

        setter[0].argtypes, setter[0].restype = [ctypes.c_int], None
        setter[0](1)
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(var, "1")
    _logging.getLogger(__name__).info(
        "no OpenBLAS thread setter behind %s: BLAS threads left to *_NUM_THREADS (1 where unset)", path
    )


# Threads of the one worker pool, and the most shares of ``_run_parts``; set by
# ``_workers`` on first use, so that the CLI has configured logging before a
# warning of ``_configure_threads`` is logged.
_WORKERS: int | None = None


def _workers() -> int:
    global _WORKERS
    if _WORKERS is None:
        _WORKERS = _configure_threads()
    return _WORKERS


_pool: _futures.ThreadPoolExecutor | None = None
_pool_lock = _threading.Lock()


def _executor() -> _futures.ThreadPoolExecutor:
    """The process's worker pool, created on first use with ``_workers()``
    threads (``concurrent.futures`` imports its thread module only then)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _futures.ThreadPoolExecutor(max_workers=_workers(), thread_name_prefix="distreg")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of the parent's threads: it starts its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, _threading.Lock()


if hasattr(_os, "register_at_fork"):
    _os.register_at_fork(after_in_child=_forget_pool)


def _run_parts(item: _Callable[..., None], sizes: _Sequence[int], scratch: _Callable | None = None) -> None:
    """Call ``item(i)``, or ``item(i, buffers)`` with one ``scratch()`` per
    share, for the items i of the given sizes, in at most ``_workers()``
    contiguous shares of about equal size (an item goes where its middle
    falls): the calling thread works the first, the worker pool the others.
    ``scratch`` runs on the calling thread, as a worker's allocations stay in
    its malloc arena (4.4 MB more peak RSS on variance-rff). After an item
    raises, or the calling thread gets an exception (KeyboardInterrupt too),
    each share stops before its next item. Once all have stopped, the calling
    thread's exception, else the first failing share's, is re-raised.

    An item may call numpy but no public function of distreg: the benchmark's
    tracer wraps those and keeps one span stack for all threads. Nor may an
    item call ``_run_parts``: shares waiting on shares that no free worker can
    take would deadlock a full pool.
    """
    total, workers = sum(sizes), _workers()
    owners = [int(workers * (done + size / 2) / total) for done, size in zip(_accumulate(sizes, initial=0), sizes)]
    cuts = [i for i in range(1, len(sizes)) if owners[i] != owners[i - 1]]
    stop = _threading.Event()

    def share(lo: int, hi: int, *buffers) -> None:
        try:
            for i in range(lo, hi):
                if stop.is_set():
                    return
                item(i, *buffers)
        except BaseException:
            stop.set()
            raise

    shares = [(lo, hi, *(() if scratch is None else (scratch(),))) for lo, hi in zip([0, *cuts], [*cuts, len(sizes)])]
    running: list[_futures.Future] = []
    try:  # an interrupt during the submissions stops the shares submitted so far
        running.extend(_executor().submit(share, *part) for part in shares[1:])
        share(*shares[0])
        _futures.wait(running)
    finally:  # stops the pool's shares where this thread did not end its own
        stop.set()
        _futures.wait(running)
    for future in running:
        future.result()


# numpy's BLAS; the first ridge solve pins scipy's, whose LAPACK it calls
_one_blas_thread(*_extension("numpy", "linalg/_umath_linalg"))

# The public API: each module's ``__all__`` is the one list of its names.
from .data import *  # noqa: E402,F401,F403
from .kernels import *  # noqa: E402,F401,F403
from .rff import *  # noqa: E402,F401,F403
from .models import *  # noqa: E402,F401,F403
from .evaluate import *  # noqa: E402,F401,F403
from .synth import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
