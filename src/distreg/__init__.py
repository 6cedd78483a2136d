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
import os as _os
import threading as _threading
from collections.abc import Callable as _Callable, Sequence as _Sequence


def _configure_threads() -> int:
    """Thread count from DISTREG_THREADS: BLAS/OpenMP threads and the
    workers of ``_run_parts``, which never outnumber the usable CPUs. 0 or
    unset leaves BLAS at its default and gives the pool every usable CPU."""
    if hasattr(_os, "sched_getaffinity"):
        cpus = len(_os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cpus = _os.cpu_count() or 1
    raw = _os.environ.get("DISTREG_THREADS", "").strip()
    if raw.isdigit() and raw != "0":
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            _os.environ.setdefault(var, raw)
        return min(int(raw), cpus)
    return cpus


# Threads of the one worker pool, and the most parts ``_parts`` makes; read
# at call time.
_WORKERS = _configure_threads()

_pool: _futures.ThreadPoolExecutor | None = None
_pool_lock = _threading.Lock()


def _executor() -> _futures.ThreadPoolExecutor:
    """The process's worker pool, created on first use with ``_WORKERS``
    threads (``concurrent.futures`` imports its thread module only then)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _futures.ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="distreg")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of the parent's threads: it starts its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, _threading.Lock()


if hasattr(_os, "register_at_fork"):
    _os.register_at_fork(after_in_child=_forget_pool)


def _parts(sizes: _Sequence[int]) -> list[tuple[int, int]]:
    """At most ``_WORKERS`` contiguous, non-empty runs [lo, hi) of items of
    the given sizes, each of about an equal share of their total: an item
    belongs to the share its middle falls in."""
    total, done, owners = sum(sizes), 0, []
    for size in sizes:
        owners.append(int(_WORKERS * (done + size / 2) / total))
        done += size
    cuts = [i for i in range(1, len(sizes)) if owners[i] != owners[i - 1]]
    return list(zip([0, *cuts], [*cuts, len(sizes)]))


def _run_parts(task: _Callable[..., None], parts: _Sequence[tuple]) -> None:
    """Call ``task(*part)`` for every part: inline when there is one, else on
    the worker pool; once all have ended, the first failing part's exception
    is re-raised as it was raised.

    A task may call numpy but no public function of distreg: the benchmark's
    tracer wraps those and keeps one span stack for all threads.
    """
    if len(parts) == 1:
        task(*parts[0])
        return
    running = [_executor().submit(task, *part) for part in parts]
    _futures.wait(running)
    for future in running:
        future.result()


from .data import (  # noqa: E402
    Bag,
    BagDataset,
    DataFormatError,
    MultiSourceDataset,
    Normalizer,
    align_sources,
    apply_normalizer,
    canonical_rows,
    fit_normalizer,
    load_bags,
    pooled_instances,
    save_bags,
)
from .kernels import (  # noqa: E402
    BagGram,
    MmdTestResult,
    RbfParams,
    bag_gram,
    bag_mean_kernel_entry,
    cross_bag_gram,
    cross_gram,
    median_heuristic,
    median_heuristic_bags,
    mmd_permutation_test,
    mmd_squared,
    multisource_bag_gram,
    rbf_kernel,
)
from .rff import (  # noqa: E402
    FourierBasis,
    bag_feature_matrix,
    bag_feature_sweep,
    bag_mean_features,
    feature_map,
    feature_matrix,
    sample_basis,
)
from .models import (  # noqa: E402
    FittedModel,
    HYPER_AXES,
    IllConditionedError,
    MODEL_KINDS,
    MULTISOURCE_KINDS,
    RidgeSolution,
    SINGLE_SOURCE_KINDS,
    STACK_MODES,
    default_sigmas,
    fit_model,
    load_model,
    predict_model,
    save_model,
    solve_ridge_dual,
    stack_multisource,
)
from .evaluate import (  # noqa: E402
    EvalReport,
    GridSearchResult,
    Metrics,
    TrialResult,
    compute_metrics,
    default_grid,
    grid_search_cv,
    kfold_split,
    render_table,
    report_to_dict,
    reports_to_csv,
    run_protocol,
    split_train_test,
)
from .synth import (  # noqa: E402
    GALLERY_SCENARIOS,
    make_mean_task,
    make_multisource_task,
    make_two_sample_pair,
    make_variance_task,
)

__version__ = "0.1.0"
