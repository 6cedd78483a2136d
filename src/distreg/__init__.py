"""Distribution regression over bags of feature vectors.

Regression where each training example is a *bag* of instance vectors with a
single scalar target. Bags are embedded as kernel mean maps and ridge
regression runs on those embeddings, either exactly (dual form over the bag
Gram matrix), over several sources at once (summed per-source kernels), or
approximately at scale (explicit random Fourier features). Summary-mean
baselines, an evaluation protocol, and a CLI are included.
"""

import os as _os


def _configure_threads() -> int:
    """Thread count from DISTREG_THREADS: BLAS/OpenMP threads and the
    random-feature sweep workers (``rff``), which never outnumber the usable
    CPUs. 0 or unset leaves BLAS at its default and gives the sweeps every
    usable CPU."""
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


_THREADS = _configure_threads()

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
