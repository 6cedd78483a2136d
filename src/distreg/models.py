"""Ridge regressors over bags and their persistence.

Every model kind is a bag transform (``_transform``), a representation and a
ridge solve; the spec table ``_SPECS`` declares each base kind's saved fields
and representation once, and the axis table ``_AXES`` each hyperparameter:

lr / kr        singleton bags holding each bag's instance mean; ``lr`` is
               ridge on the centred means (explicit features), ``kr`` RBF
               kernel ridge on them (the summary-vector baselines)
kdr            kernel distribution regression: dual ridge on the bag
               mean-embedding Gram matrix
rdr            randomized variant: ridge on explicit per-bag mean random
               Fourier features
mdr            multisource composite: dual ridge on the sum over sources of
               the bag Gram matrices
stacked-*      multisource baseline: ``stack_multisource`` concatenates the
               sources into a single feature space, then the base kind runs

A representation (``_Representation``) holds the lambda-independent part of
one fit: the training Gram K (dual ridge) or feature matrix Z (primal ridge on
Z'Z, or the identical dual route on ZZ' when features outnumber bags). Each
spec's ``matrices`` hook builds, for a batch of model states fitted on the
same training sources, each state's representation and the test matrix its
coefficients multiply. ``fit_model`` and ``predict_model`` call it with one
state, ``evaluate.grid_search_cv`` once per fold with every grid point, so
the batch shares work between sigmas: one distance pass per tile for the
Gram kinds, one cos/sin pass per ratio-2 sigma chain for ``rdr``.

All fits center the targets and add the mean back at prediction time, so the
dual/primal algebra is unchanged but predictions are unbiased under target
shifts. ``fit_model`` / ``predict_model`` normalize each source with
statistics fitted on the training bags only, then call the low-level
``_fit`` / ``_predict``, which take already-normalized data.
"""

from __future__ import annotations

import base64
import ctypes
import functools
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import _blas_symbols, _extension, _one_blas_thread
from .data import (
    Bag,
    BagDataset,
    MultiSourceDataset,
    Normalizer,
    _LISTS,
    _atomic_write,
    _check,
    _read_json,
    apply_normalizer,
    canonical_rows,
    fit_normalizer,
    pooled_instances,
)
from .kernels import (
    BagGram,
    RbfParams,
    _grams,
    _length_scale,
    cross_gram,
    median_heuristic_bags,
)
from .rff import FourierBasis, bag_feature_sweep, sample_basis

__all__ = [
    "FittedModel",
    "HYPER_AXES",
    "IllConditionedError",
    "MODEL_KINDS",
    "MULTISOURCE_KINDS",
    "RidgeSolution",
    "SINGLE_SOURCE_KINDS",
    "STACK_MODES",
    "default_sigmas",
    "fit_model",
    "load_model",
    "predict_model",
    "save_model",
    "solve_ridge_dual",
    "stack_multisource",
]

SINGLE_SOURCE_KINDS = ("lr", "kr", "kdr", "rdr")
MULTISOURCE_KINDS = ("mdr", "stacked-lr", "stacked-kr", "stacked-kdr", "stacked-rdr")
MODEL_KINDS = SINGLE_SOURCE_KINDS + MULTISOURCE_KINDS
STACK_MODES = {"lr": "means", "kr": "means", "kdr": "instances", "rdr": "instances"}

logger = logging.getLogger("distreg.models")

# Escalating diagonal jitter, as multiples of trace/n, tried after the plain solve.
_JITTERS = (1e-10, 1e-8, 1e-6)

# Least-squares on bag means is numerically fragile near collinearity.
_LR_LAMBDA_FLOOR = 1e-8


class IllConditionedError(RuntimeError):
    """A ridge system stayed non-factorizable after the maximum diagonal jitter."""


@functools.cache
def _lapack():
    """``dpotrf`` and ``dpotrs`` of the LAPACK that scipy's ``linalg._flapack``
    links, with their integer type, ready to call through ``ctypes``; that
    OpenBLAS is put on one thread first. Nothing of scipy is imported. Raises
    OSError naming the file where the routines cannot be found."""
    library, path = _extension("scipy", "linalg/_flapack")
    _one_blas_thread(library, path)
    routines, wide = _blas_symbols(library, "dpotrf_", "dpotrs_")
    if routines is None:
        raise OSError(f"{path}: no LAPACK dpotrf_ and dpotrs_ to call (prefix scipy_ or none, suffix 64_ or none)")
    potrf, potrs = routines
    integer = ctypes.c_int64 if wide else ctypes.c_int
    # the arguments scipy's own wrapper passes: no hidden string lengths
    ref = ctypes.POINTER(integer)
    potrf.argtypes = [ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref]
    potrs.argtypes = [ctypes.c_char_p, ref, ref, ctypes.c_void_p, ref, ctypes.c_void_p, ref, ref]
    potrf.restype = potrs.restype = None
    return potrf, potrs, integer


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (matrix + lam*I) x = rhs by Cholesky, with escalating jitter.

    ``matrix`` must be symmetric PSD. On factorization failure the diagonal is
    bumped by eps * trace/n for eps in 1e-10, 1e-8, 1e-6 before giving up;
    anything larger would silently distort cross-validated comparisons. A
    solve that needed jitter is logged at INFO.

    The factorization and solve are LAPACK's ``dpotrf``/``dpotrs`` on the
    lower triangle of a Fortran-ordered copy, called (``_lapack``) exactly as
    ``scipy.linalg.cho_factor``/``cho_solve`` call them, so the bits are
    theirs without the cost of importing ``scipy.linalg``.
    """
    potrf, potrs, integer = _lapack()
    n = matrix.shape[0]
    if matrix.shape != (n, n) or np.shape(rhs)[:1] != (n,):  # LAPACK would read past them
        raise ValueError(f"need a square matrix and a right-hand side of its rows, got {matrix.shape}, {np.shape(rhs)}")
    size, info = integer(n), integer()
    diag_unit = float(np.trace(matrix)) / n
    for eps in (0.0,) + _JITTERS:
        shifted = np.array(matrix, dtype=np.float64, order="F")
        shifted.reshape(-1, order="F")[:: n + 1] += lam + eps * diag_unit  # its diagonal, in place
        factor = shifted.ctypes.data
        potrf(b"L", size, factor, size, info)
        if info.value > 0:  # a leading minor is not positive definite
            continue
        solution = np.array(rhs, dtype=np.float64, order="F")
        if info.value == 0:
            potrs(b"L", size, integer(solution.size // n), factor, size, solution.ctypes.data, size, info)
        if info.value < 0:
            raise ValueError(f"LAPACK reported an illegal value in argument {-info.value} of a Cholesky routine")
        if eps:
            logger.info(
                "Cholesky needed diagonal jitter %g = %g x trace/n (n=%d, trace/n=%g, lambda=%g)",
                eps * diag_unit, eps, n, diag_unit, lam,
            )
        return solution
    raise IllConditionedError(
        f"Cholesky factorization failed after diagonal jitters {list(_JITTERS)} "
        f"(scaled by trace/n = {diag_unit:g})"
    )


@dataclass(frozen=True)
class RidgeSolution:
    """Coefficients of a solved ridge system: dual alpha or primal weights."""

    coefficients: np.ndarray
    intercept: float
    lam: float

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float).ravel()
        if not np.all(np.isfinite(coef)):
            raise ValueError("ridge coefficients are not finite")
        object.__setattr__(self, "coefficients", coef)

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Predictions for the rows of a test matrix (cross Gram or features)."""
        return matrix @ self.coefficients + self.intercept


def solve_ridge_dual(gram: BagGram | np.ndarray, y: np.ndarray, lam: float) -> RidgeSolution:
    """Solve (K + lam*I) alpha = y for the dual coefficients.

    No centering happens here; callers that want an intercept center ``y``
    themselves and record the offset.
    """
    lam = _check("real>0", lam, "lambda")
    k = gram.values if isinstance(gram, BagGram) else np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"gram must be square, got shape {k.shape}")
    if y.shape[0] != k.shape[0]:
        raise ValueError(f"target length {y.shape[0]} does not match gram size {k.shape[0]}")
    alpha = _solve_spd(k, y, lam)
    return RidgeSolution(coefficients=alpha, intercept=0.0, lam=lam)


@dataclass(frozen=True)
class FittedModel:
    """A fitted regressor plus everything needed to predict on new bags.

    Which of the optional fields a kind fills is given by its spec: dual
    models keep their (normalized) training data or bag means, the
    randomized model keeps only the Fourier basis, ``lr`` keeps the feature
    means it centres with. ``normalizers`` holds the per-source transforms
    fitted by ``fit_model`` (None when the model was fitted directly on
    pre-normalized data).
    """

    kind: str
    solution: RidgeSolution
    normalizers: tuple[Normalizer, ...] | None = None
    kernel_params: tuple[RbfParams, ...] | None = None
    basis: FourierBasis | None = None
    train_bag_data: BagDataset | None = None
    train_multisource: MultiSourceDataset | None = None
    train_means: np.ndarray | None = None
    feature_means: np.ndarray | None = None
    source_dims: tuple[int, ...] | None = None

    @property
    def n_sources(self) -> int:
        """How many sources the model predicts from."""
        return len(self.source_dims or _spec(self.kind).dims(self))


def _centred(y: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean of the targets ``y`` and ``y`` minus it; ValueError where either overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        ybar = float(y.mean())
        yc = y - ybar
    if not np.isfinite(yc).all():
        cause = "centred values overflow" if np.isfinite(ybar) else "mean overflows"
        raise ValueError(f"targets too large: their {cause}")
    return ybar, yc


class _Representation:
    """The lambda-independent part of a ridge fit on the training sources
    ``train`` at one hyperparameter point (everything but ``lam``), built
    from their training matrix: the bag Gram K or, when ``explicit``, the
    features Z."""

    def __init__(self, matrix, train, *, explicit=False, lam_floor=0.0):
        self.lam_floor = lam_floor
        self.ybar, yc = _centred(train[0].targets)
        # the matrix every solve factorizes: K, or the smaller of Z'Z and ZZ'
        self.back = None
        if explicit and matrix.shape[1] <= matrix.shape[0]:
            self.normal, self.rhs = matrix.T @ matrix, matrix.T @ yc
        elif explicit:
            self.normal, self.rhs, self.back = matrix @ matrix.T, yc, matrix.T
        else:
            self.normal, self.rhs = matrix, yc

    def solve(self, lam: float) -> RidgeSolution:
        if lam < self.lam_floor:
            logger.info("lambda %g is below this kind's floor; solved at lambda %g", lam, self.lam_floor)
        coef = _solve_spd(self.normal, self.rhs, max(lam, self.lam_floor))
        if self.back is not None:
            coef = self.back @ coef
        return RidgeSolution(coef, self.ybar, lam)


# ``matrices`` hooks: given model states fitted on the same transformed
# training sources, those sources (or None) and transformed test sources (or
# None), a hook returns (representation, test matrix) per state, with None
# for the side it was not asked for.


def _each(train_matrix, test_matrix, **how):
    """The hook of a kind that shares nothing across states: a plain loop
    over ``train_matrix(state, train)`` and ``test_matrix(state, test)``."""

    def matrices(states, train, test):
        return [
            (
                None if train is None else _Representation(train_matrix(m, train), train, **how),
                None if test is None else test_matrix(m, test),
            )
            for m in states
        ]

    return matrices


def _centred_means(m: FittedModel, sources) -> np.ndarray:
    return pooled_instances(sources[0]) - m.feature_means


def _summed_grams(sources: Callable[[FittedModel], tuple[BagDataset, ...]]):
    """The hook of dual ridge on the sum over sources of the bag
    mean-embedding Grams against the training sources ``sources(state)``.
    Each source's Grams and cross Grams at every sigma of the batch come
    from one squared-distance pass per tile; the per-source matrices are
    summed in source order."""

    def matrices(states, train, test):
        fitted_on = sources(states[0])
        gammas = [list(dict.fromkeys(m.kernel_params[f].gamma for m in states)) for f in range(len(fitted_on))]
        grams = None if train is None else [_grams(s, None, g) for s, g in zip(fitted_on, gammas)]
        crosses = None if test is None else [_grams(t, s, g) for t, s, g in zip(test, fitted_on, gammas)]
        out = []
        for m in states:
            at = [g.index(p.gamma) for g, p in zip(gammas, m.kernel_params)]
            out.append((
                None if grams is None else _Representation(sum(g[a] for g, a in zip(grams, at)), train),
                None if crosses is None else sum(c[a] for c, a in zip(crosses, at)),
            ))
        return out

    return matrices


def _sigma_chains(states: list[FittedModel]) -> list[list[int]]:
    """Split rdr states into chains whose sigmas halve exactly.

    Among states whose bases agree on the component count and seed, taken by
    descending sigma, a state extends the chain that ends at exactly twice
    its sigma; every other state starts a chain of its own.
    """
    by_rest: dict[tuple, list[int]] = {}
    for j, m in enumerate(states):
        by_rest.setdefault((m.basis.n_components, m.basis.seed), []).append(j)
    chains = []
    for members in by_rest.values():
        tails: dict[float, list[int]] = {}
        for j in sorted(members, key=lambda j: -states[j].basis.sigma):
            sigma = states[j].basis.sigma
            chain = tails.pop(2 * sigma, None)
            if chain is None:
                chain = []
                chains.append(chain)
            chain.append(j)
            tails[sigma] = chain
    return chains


def _fourier_features(states, train, test):
    """The hook of ``rdr``: ridge on explicit per-bag mean random Fourier
    features. Each ``_sigma_chains`` chain uses the basis of its largest
    sigma and gets the features at every sigma of the chain from one cos/sin
    pass per bag (``bag_feature_sweep``)."""
    out = [None] * len(states)
    for chain in _sigma_chains(states):
        basis, n_halvings = states[chain[0]].basis, len(chain) - 1
        z_train = None if train is None else bag_feature_sweep(train[0], basis, n_halvings)
        z_test = None if test is None else bag_feature_sweep(test[0], basis, n_halvings)
        for level, j in enumerate(chain):
            out[j] = (
                None if train is None else _Representation(z_train[level], train, explicit=True),
                None if test is None else z_test[level],
            )
    return out


@dataclass(frozen=True)
class _Spec:
    """One base kind: its saved fields and matrices."""

    fields: tuple[str, ...]  # FittedModel fields it predicts with; the first indexes the coefficients
    n_coef: Callable[[FittedModel], int]  # coefficient count the first field implies
    state: Callable[[tuple, dict], dict]  # (transformed training sources, point) -> field values
    dims: Callable[[FittedModel], tuple[int, ...]]  # feature dimensions of the sources it reads
    matrices: Callable[..., list]  # (states, train or None, test or None) -> (rep, test matrix) each


_SPECS = {
    "lr": _Spec(
        fields=("feature_means",),
        n_coef=lambda m: m.feature_means.shape[0],
        state=lambda train, p: {"feature_means": pooled_instances(train[0]).mean(axis=0)},
        dims=lambda m: (m.feature_means.shape[0],),
        matrices=_each(_centred_means, _centred_means, explicit=True, lam_floor=_LR_LAMBDA_FLOOR),
    ),
    "kr": _Spec(
        fields=("train_means", "kernel_params"),
        n_coef=lambda m: m.train_means.shape[0],
        state=lambda train, p: {
            "train_means": pooled_instances(train[0]),
            "kernel_params": (RbfParams(p["sigma"]),),
        },
        dims=lambda m: (m.train_means.shape[1],),
        # the RBF kernel between single-row bags is their bag Gram; ``cross_gram``
        # of one array with itself is exactly symmetric and matches the bag Gram
        # only up to the last bit
        matrices=_each(
            lambda m, train: cross_gram(m.train_means, m.train_means, m.kernel_params[0]),
            lambda m, test: cross_gram(pooled_instances(test[0]), m.train_means, m.kernel_params[0]),
        ),
    ),
    "kdr": _Spec(
        fields=("train_bag_data", "kernel_params"),
        n_coef=lambda m: m.train_bag_data.n_bags,
        state=lambda train, p: {"train_bag_data": train[0], "kernel_params": (RbfParams(p["sigma"]),)},
        dims=lambda m: (m.train_bag_data.dim,),
        matrices=_summed_grams(lambda m: (m.train_bag_data,)),
    ),
    "rdr": _Spec(
        fields=("basis",),
        n_coef=lambda m: m.basis.feature_dim,
        state=lambda train, p: {
            "basis": sample_basis(train[0].dim, p["n_features"], p["sigma"], p["rff_seed"])
        },
        dims=lambda m: (m.basis.dim,),
        matrices=_fourier_features,
    ),
    "mdr": _Spec(
        fields=("train_multisource", "kernel_params"),
        n_coef=lambda m: m.train_multisource.n_bags,
        state=lambda train, p: {
            "train_multisource": MultiSourceDataset(train),
            "kernel_params": tuple(RbfParams(s) for s in p["sigmas"]),
        },
        dims=lambda m: m.train_multisource.dims,
        matrices=_summed_grams(lambda m: m.train_multisource.sources),
    ),
}


def _base(kind: str) -> str:
    return kind.removeprefix("stacked-")


def _spec(kind: str) -> _Spec:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return _SPECS[_base(kind)]


# ---------------------------------------------------------------------------
# Hyperparameters: ``_AXES`` declares each once. Fit and CV check every point
# against it (``_check_point``); ``default_sigmas``, ``evaluate.default_grid``
# and the CLI read their defaults, grid keys and ``distreg fit`` flags from it.


@dataclass(frozen=True)
class _Axis:
    """One hyperparameter (see ``_AXES``)."""

    kinds: tuple[str, ...]  # base kinds that have it
    domain: str  # a key of data._DOMAINS
    flag: str  # its ``distreg fit`` flag
    default: float | int | None  # the flag's default; None: the median heuristic on the data
    grid_key: str | None  # its ``default_grid`` and config grid key; None: the grid holds the seed
    grid: tuple = ()  # default grid values; scales of the median when ``default`` is None
    prefer: int = 0  # on equal CV RMSE, +1 prefers the larger value (or sum), -1 the smaller
    optional: bool = False  # a point may omit it and then holds ``default``

    def check(self, value, name: str, n_sources: int = 1):
        """``value`` in the axis' domain (``_check``), converted; one value
        per source, each a sigma that ``RbfParams`` takes on the sigma axes.
        ValueError naming ``name`` otherwise."""
        value = _check(self.domain, value, name)
        if self.domain == "reals>0" and len(value) != n_sources:
            raise ValueError(f"{name} needs one RbfParams per source: got {len(value)} for {n_sources} sources")
        if self.grid_key == "sigma_scales":  # its values are length-scales, or scales of one
            for sigma in value if isinstance(value, tuple) else (value,):
                _length_scale(sigma, name)
        return value


_SCALES = tuple(float(v) for v in 2.0 ** np.arange(-3, 4))
# lam: every kind; sigma(s): RBF length-scale(s), one per source for mdr;
# n_features and rff_seed: the random Fourier basis of rdr
_AXES = {
    "lam": _Axis(tuple(_SPECS), "real>0", "--lam", 1e-3, "lams", tuple(float(v) for v in np.logspace(-6, 2, 9)),
                 prefer=1),
    "sigma": _Axis(("kr", "kdr", "rdr"), "real>0", "--sigma", None, "sigma_scales", _SCALES, prefer=1),
    "sigmas": _Axis(("mdr",), "reals>0", "--sigmas", None, "sigma_scales", _SCALES, prefer=1),
    "n_features": _Axis(("rdr",), "int>=1", "--n-features", 512, "n_features", (128, 512, 2048), prefer=-1),
    "rff_seed": _Axis(("rdr",), "int>=0", "--seed", 0, None, optional=True),
}


def _axes(kind: str) -> tuple[str, ...]:
    """The hyperparameters of ``kind`` in table order, ``lam`` first."""
    _spec(kind)  # rejects unknown kinds
    return tuple(key for key, axis in _AXES.items() if _base(kind) in axis.kinds)


# Hyperparameters of each kind besides lam (the first axis of every kind).
HYPER_AXES = {kind: _axes(kind)[1:] for kind in MODEL_KINDS}


def _grid_values(key: str, values) -> list:
    """The values of the grid key ``key``, each checked against the first
    axis with that key and converted."""
    axes = [a for a in _AXES.values() if a.grid_key == key]
    if not axes:
        allowed = sorted({a.grid_key for a in _AXES.values() if a.grid_key})
        raise ValueError(f"unknown grid key {key!r} (allowed: {allowed})")
    if not isinstance(values, _LISTS) or len(values) == 0:
        raise ValueError(f"grid key {key!r} must be a non-empty list, got {values!r}")
    return [axes[0].check(v, f"each value of grid key {key!r}") for v in values]


def _check_point(kind: str, hyper: dict, data) -> dict:
    """The hyperparameters of ``kind`` at the point ``hyper`` on ``data``,
    checked and converted, an omitted optional one at its default; ``hyper``
    is left as given. The kind and ``data``'s type are checked first
    (``_check_data``); ValueError names a missing, unknown or invalid key."""
    _check_data(kind, data)
    keys = _axes(kind)
    for key in keys:
        if key not in hyper and not _AXES[key].optional:
            raise ValueError(f"model kind {kind!r} needs hyperparameter {key!r}")
    for key in hyper:
        if key not in keys:
            raise ValueError(f"model kind {kind!r} has no hyperparameter {key!r}")
    n_sources = data.n_sources if isinstance(data, MultiSourceDataset) else 1
    # lam is named lambda, as in the paper
    return {
        k: _AXES[k].check(hyper[k], "lambda" if k == "lam" else k, n_sources) if k in hyper else _AXES[k].default
        for k in keys
    }


def _bag_means(data: BagDataset) -> np.ndarray:
    # canonical row order -> exactly permutation-invariant means
    return np.array([canonical_rows(b.instances).mean(axis=0) for b in data.bags])


def stack_multisource(data: MultiSourceDataset, mode: str) -> BagDataset:
    """Concatenate aligned sources into one single-source dataset.

    mode "means": each bag becomes a single instance holding the concatenated
    per-source bag means (the summary-stacking used by lr/kr).

    mode "instances": each bag is the union, over sources, of that source's
    instances completed with the *other* sources' bag means, so every instance
    becomes a (d_1 + ... + d_F)-vector and within-source spread is preserved.
    With one source this is the identity.
    """
    if mode not in ("means", "instances"):
        raise ValueError(f"mode must be 'means' or 'instances', got {mode!r}")
    dims = data.dims
    offsets = np.concatenate([[0], np.cumsum(dims)])
    per_source_means = [_bag_means(src) for src in data.sources]
    bags = []
    for b, bag_id in enumerate(data.bag_ids):
        full_mean = np.concatenate([m[b] for m in per_source_means])
        if mode == "means":
            bags.append(Bag(bag_id, full_mean[None, :]))
            continue
        parts = []
        for f, src in enumerate(data.sources):
            inst = src.bags[b].instances
            block = np.tile(full_mean, (inst.shape[0], 1))
            block[:, offsets[f] : offsets[f + 1]] = inst
            parts.append(block)
        bags.append(Bag(bag_id, np.concatenate(parts, axis=0)))
    return BagDataset(tuple(bags), data.targets)


class _SourceError(ValueError):
    """A ValueError raised for one source of a dataset: ``source`` is its
    index, so a caller that knows where each source came from can name it."""

    def __init__(self, source: int, message: str) -> None:
        super().__init__(message)
        self.source = source


def _fit_normalizer(source: int, data: BagDataset) -> Normalizer:
    try:
        return fit_normalizer(data)
    except ValueError as exc:
        raise _SourceError(source, str(exc)) from None


def _normalize(data, normalizers=None):
    """Normalize each source of ``data`` (a BagDataset or MultiSourceDataset),
    fitting the normalizers on it when none are given; returns the normalized
    data, of the same type, and the normalizers. A source whose normalizer
    cannot be fitted raises ``_SourceError``."""
    multi = isinstance(data, MultiSourceDataset)
    sources = data.sources if multi else (data,)
    if normalizers is None:
        normalizers = tuple(_fit_normalizer(s, src) for s, src in enumerate(sources))
    elif len(normalizers) != len(sources):
        raise ValueError(
            f"source count mismatch: model expects {len(normalizers)}, got {len(sources)}"
        )
    out = tuple(apply_normalizer(src, n) for src, n in zip(sources, normalizers))
    return (MultiSourceDataset(out) if multi else out[0]), normalizers


def _check_data(kind: str, data) -> None:
    """Reject an unknown kind, then data that is not the kind's dataset type."""
    _spec(kind)  # rejects unknown kinds
    multi = kind in MULTISOURCE_KINDS
    if not isinstance(data, MultiSourceDataset if multi else BagDataset):
        need = "a MultiSourceDataset" if multi else "a single-source BagDataset"
        raise TypeError(f"model kind {kind!r} needs {need}")


def _stack(kind: str, data) -> tuple[BagDataset, ...]:
    """The sources the base kind reads from ``data``: checked by
    ``_check_data``, and concatenated into one for ``stacked-*``."""
    _check_data(kind, data)
    base = _base(kind)
    if base != kind:
        return (stack_multisource(data, STACK_MODES[base]),)
    return data.sources if kind in MULTISOURCE_KINDS else (data,)


def _transform(kind: str, data) -> tuple[BagDataset, ...]:
    """``_stack`` followed by the bag transform of ``lr``/``kr``: each bag
    becomes the single instance of its mean (``stack_multisource`` in mode
    "means" on one source; stacked kinds in that mode are reduced already)."""
    sources = _stack(kind, data)
    if STACK_MODES.get(kind) == "means":
        sources = (stack_multisource(MultiSourceDataset(sources), "means"),)
    return sources


def _state(kind: str, train: tuple[BagDataset, ...], point: dict) -> FittedModel:
    """The model fields ``kind`` fixes on transformed training sources at a
    point checked by ``_check_point`` (solution still None)."""
    return FittedModel(kind, None, **_spec(kind).state(train, point))


def default_sigmas(kind: str, data) -> dict:
    """Median-heuristic value of each sigma axis of ``kind`` on raw ``data``:
    ``{"sigma": m}``, ``{"sigmas": [m_1, ..., m_F]}`` (one per source) or
    ``{}`` for kinds without one.

    The medians are taken over the normalized instances that the bag
    transform receives, which are stacked for ``stacked-*``: ``kr`` uses the
    instances themselves, ``stacked-kr`` the stacked bag means.
    """
    return _median_sigmas(kind, _normalize(data)[0])


def _median_sigmas(kind: str, normalized) -> dict:
    """``default_sigmas`` on data that ``_normalize`` has normalized already."""
    axes = [a for a in _axes(kind) if _AXES[a].default is None]
    if not axes:
        return {}
    meds = [median_heuristic_bags(src) for src in _stack(kind, normalized)]
    return {a: meds if _AXES[a].domain == "reals>0" else meds[0] for a in axes}


def _fit(kind: str, data, hyper: dict) -> FittedModel:
    """Fit ``kind`` on already-normalized data; ``fit_model`` calls this
    after normalizing."""
    point = _check_point(kind, hyper, data)
    train = _transform(kind, data)
    state = _state(kind, train, point)
    [(rep, _)] = _spec(kind).matrices([state], train, None)
    stacked = _base(kind) != kind
    return replace(
        state,
        solution=rep.solve(point["lam"]),
        source_dims=tuple(data.dims) if stacked else None,
    )


def _predict(model: FittedModel, data) -> np.ndarray:
    """Predict on already-normalized data; ``predict_model`` calls this
    after normalizing."""
    spec = _spec(model.kind)
    dims = tuple(data.dims) if isinstance(data, MultiSourceDataset) else (data.dim,)
    expected = model.source_dims or spec.dims(model)
    if dims != expected:
        raise ValueError(
            f"feature dimension mismatch: model expects d={','.join(map(str, expected))}, "
            f"got d={','.join(map(str, dims))}"
        )
    [(_, matrix)] = spec.matrices([model], None, _transform(model.kind, data))
    return model.solution.predict(matrix)


def fit_model(kind: str, data: BagDataset | MultiSourceDataset, hyper: dict) -> FittedModel:
    """Fit any model kind on raw data: normalize, then fit.

    Normalization statistics come from the given (training) bags only and are
    stored on the model, so ``predict_model`` can apply the identical
    transform to new bags. Hyperparameters (``HYPER_AXES``): ``lam`` always;
    ``sigma`` for kr/kdr/rdr and the stacked variants; ``sigmas`` (one per
    source) for mdr; ``n_features`` and optional ``rff_seed`` for rdr variants.
    Before any work, the kind is checked, then the dataset type, then
    ``hyper`` against the axis table: a missing, unknown or out-of-domain key
    raises ValueError naming it.
    """
    _check_point(kind, hyper, data)
    normalized, norms = _normalize(data)
    return replace(_fit(kind, normalized, hyper), normalizers=norms)


def predict_model(model: FittedModel, data: BagDataset | MultiSourceDataset) -> np.ndarray:
    """Predict on raw bags, applying the model's stored normalization first."""
    if model.normalizers is not None:
        data = _normalize(data, model.normalizers)[0]
    return _predict(model, data)


# ---------------------------------------------------------------------------
# Persistence: a self-describing JSON container with base64-packed arrays.
# Byte-deterministic for a given model, and arrays round-trip bit-exactly.

_FORMAT = "distreg-model"
_VERSION = 1


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=float)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _dec_array(obj: dict, ndim: int | None = None) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(obj["data"]), dtype=float)
    a = flat.reshape(obj["shape"]).copy()
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got shape {list(a.shape)}")
    return a


def _enc_dataset(data: BagDataset) -> dict:
    return {
        "ids": list(data.bag_ids),
        "instances": [_enc_array(b.instances) for b in data.bags],
        "targets": _enc_array(data.targets),
    }


def _dec_dataset(obj: dict) -> BagDataset:
    bags = tuple(
        Bag(bid, _dec_array(inst)) for bid, inst in zip(obj["ids"], obj["instances"])
    )
    return BagDataset(bags, _dec_array(obj["targets"]))


# Every top-level field of a model file: FittedModel attribute -> (encode, decode).
# The Fourier basis is stored as (seed, dim, components, sigma) and resampled
# on load, which reproduces the weights bit-exactly.
_CODECS = {
    "kind": (str, str),
    "solution": (
        lambda s: {"coefficients": _enc_array(s.coefficients), "intercept": s.intercept, "lam": s.lam},
        lambda v: RidgeSolution(_dec_array(v["coefficients"]), float(v["intercept"]), float(v["lam"])),
    ),
    "normalizers": (
        lambda v: [{"mean": _enc_array(n.mean), "scale": _enc_array(n.scale)} for n in v],
        lambda v: tuple(Normalizer(_dec_array(n["mean"]), _dec_array(n["scale"])) for n in v),
    ),
    "kernel_params": (lambda v: [p.sigma for p in v], lambda v: tuple(RbfParams(s) for s in v)),
    "basis": (
        lambda b: {"dim": b.dim, "n_components": b.n_components, "sigma": b.sigma, "seed": b.seed},
        lambda v: sample_basis(int(v["dim"]), int(v["n_components"]), float(v["sigma"]), int(v["seed"])),
    ),
    "train_bag_data": (_enc_dataset, _dec_dataset),
    "train_multisource": (
        lambda v: [_enc_dataset(src) for src in v.sources],
        lambda v: MultiSourceDataset(tuple(_dec_dataset(s) for s in v)),
    ),
    "train_means": (_enc_array, lambda v: _dec_array(v, ndim=2)),
    "feature_means": (_enc_array, lambda v: _dec_array(v, ndim=1)),
    "source_dims": (list, lambda v: tuple(int(d) for d in v)),
}


def save_model(model: FittedModel, path: str | Path) -> None:
    """Write a fitted model to a self-describing JSON file, which replaces
    an old one only once it is whole."""
    doc = {"format": _FORMAT, "version": _VERSION}
    for name, (encode, _) in _CODECS.items():
        value = getattr(model, name)
        doc[name] = None if value is None else encode(value)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with _atomic_write(path) as fh:
        fh.write(text + "\n")


def _decode_field(path, doc: dict, name: str, decode):
    """Decode one top-level field (null stays None), naming the file and the
    field when its content is malformed."""
    value = doc[name]
    if value is None:
        return None
    try:
        return decode(value)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"model file {path}: malformed field {name!r}: {detail}") from exc


def _check_fields(model: FittedModel, path) -> None:
    """Check that a loaded model has every field its kind predicts with and
    that their sizes agree with the coefficients."""
    spec = _spec(model.kind)
    stacked = _base(model.kind) != model.kind
    for name in spec.fields + (("source_dims",) if stacked else ()):
        if getattr(model, name) is None:
            raise ValueError(
                f"model file {path}: field {name!r} is null but a {model.kind} model needs it"
            )
    n_coef, n_expected = model.solution.coefficients.shape[0], spec.n_coef(model)
    if n_coef != n_expected:
        raise ValueError(
            f"model file {path}: field 'solution' holds {n_coef} coefficients, "
            f"but field {spec.fields[0]!r} implies {n_expected}"
        )
    counts = {"normalizers": model.n_sources}
    if "kernel_params" in spec.fields:
        counts["kernel_params"] = 1 if stacked else model.n_sources
    for name, count in counts.items():
        value = getattr(model, name)
        if value is not None and len(value) != count:
            raise ValueError(
                f"model file {path}: field {name!r} holds {len(value)} entries, expected {count}"
            )


def load_model(path: str | Path) -> FittedModel:
    """Read a model written by ``save_model``.

    A file with a missing or malformed field, an unknown kind, or fields whose
    sizes disagree with the coefficients raises ``ValueError`` naming the
    file and the field.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"{path} is not a {_FORMAT} file")
    if doc.get("version") != _VERSION:
        raise ValueError(f"model file {path}: unsupported version {doc.get('version')!r}")
    for name in _CODECS:
        if name not in doc:
            raise ValueError(f"model file {path}: missing field {name!r}")
    if doc["kind"] not in MODEL_KINDS:
        raise ValueError(
            f"model file {path}: field 'kind' is {doc['kind']!r}, expected one of {MODEL_KINDS}"
        )
    values = {name: _decode_field(path, doc, name, dec) for name, (_, dec) in _CODECS.items()}
    if values["solution"] is None:
        raise ValueError(f"model file {path}: field 'solution' is null")
    model = FittedModel(**values)
    _check_fields(model, path)
    return model
