"""Distribution regression over bags of feature vectors.

Regression where each training example is a *bag* of instance vectors with a
single scalar target. Bags are embedded as kernel mean maps and ridge
regression runs on those embeddings, either exactly (dual form over the bag
Gram matrix), over several sources at once (summed per-source kernels), or
approximately at scale (explicit random Fourier features). Summary-mean
baselines, an evaluation protocol, and a CLI are included.
"""

from __future__ import annotations

import functools as _functools
import logging as _logging
import os as _os
import threading as _threading
from collections.abc import Callable as _Callable, Sequence as _Sequence


def _configure_threads() -> int:
    """Workers of ``_run_parts``: DISTREG_THREADS, never more than the usable
    CPUs; 0, empty or unset gives every usable CPU, and so does any other
    value that is not a count, with a warning. BLAS is not sized by it: it
    runs on one thread at every setting (``_one_blas_thread``). Read once,
    through ``_workers``."""
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


# The most threads of a ``_run_parts``, read on first use, so that the CLI has
# configured logging before a warning of ``_configure_threads`` is logged.
_workers = _functools.cache(_configure_threads)


def _run_parts(item: _Callable[..., None], sizes: _Sequence[int], scratch: _Callable | None = None) -> None:
    """Call ``item(i)``, or ``item(i, buffers)`` with its thread's
    ``scratch()``, once for each item i of the given sizes. The calling
    thread and at most ``_workers() - 1`` threads that this call starts, one
    per item at most, pull the items from one queue, largest first and equal
    sizes in index order (Graham's longest-processing-time rule), so no
    thread idles while another has items left. After an item raises, or the
    calling thread gets an exception (KeyboardInterrupt too), no thread
    starts another item. The started threads are joined before the call
    returns or raises; the calling thread's exception, else the first
    failing thread's, is raised.

    ``scratch`` runs once per thread on the calling thread, which also frees
    the buffers before returning: a worker's allocations stay in its malloc
    arena (4.4 MB more peak RSS on variance-rff).

    An item may call numpy but no public function of distreg: the benchmark's
    tracer wraps those and keeps one span stack for all threads.
    """
    queue = iter(sorted(range(len(sizes)), key=lambda i: -sizes[i]))
    pulling, stop = _threading.Lock(), _threading.Event()
    failures: list[BaseException] = []

    def pull(buffers: tuple, failed: list | None = None) -> None:
        try:
            while not stop.is_set():
                with pulling:
                    i = next(queue, None)
                if i is None:
                    return
                item(i, *buffers)
        except BaseException as error:
            stop.set()
            if failed is None:
                raise
            failed.append(error)  # raised by the calling thread, so never printed by a thread

    scratches = [() if scratch is None else (scratch(),) for _ in range(min(_workers(), len(sizes)))]
    started: list[_threading.Thread] = []
    try:  # an interrupt while threads start stops the ones started so far
        for n in range(1, len(scratches)):
            thread = _threading.Thread(target=pull, args=(scratches[n], failures), name=f"distreg_{n}")
            thread.start()
            started.append(thread)
        pull(scratches[0])
    finally:
        stop.set()
        for thread in started:
            thread.join()
        scratches.clear()
    if failures:
        raise failures[0]


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
