"""Ridge regressors over bags and their persistence.

Model kinds
-----------
lr / kr        ridge and RBF kernel ridge on the per-bag instance means
               (the summary-vector baselines)
kdr            kernel distribution regression: dual ridge on the bag
               mean-embedding Gram matrix
rdr            randomized variant: primal ridge on explicit per-bag mean
               random Fourier features
mdr            multisource composite: dual ridge on the summed per-source
               bag Gram matrices
stacked-*      multisource baseline that concatenates sources into a single
               feature space and runs the corresponding single-source model

All fits center the targets and add the mean back at prediction time, so the
dual/primal algebra is unchanged but predictions are unbiased under target
shifts. The low-level ``fit_*`` functions expect already-normalized data;
``fit_model`` / ``predict_model`` wrap them with per-source normalization
fitted on the training bags only.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg

from .data import (
    Bag,
    BagDataset,
    MultiSourceDataset,
    Normalizer,
    apply_normalizer,
    canonical_rows,
    fit_normalizer,
)
from .kernels import (
    BagGram,
    RbfParams,
    bag_gram,
    cross_bag_gram,
    cross_gram,
    multisource_bag_gram,
)
from .rff import FourierBasis, bag_feature_matrix, sample_basis

__all__ = [
    "FittedModel",
    "IllConditionedError",
    "MODEL_KINDS",
    "MULTISOURCE_KINDS",
    "RidgeSolution",
    "SINGLE_SOURCE_KINDS",
    "STACK_MODES",
    "fit_baseline",
    "fit_kdr",
    "fit_mdr",
    "fit_model",
    "fit_rdr",
    "fit_stacked",
    "load_model",
    "predict_baseline",
    "predict_kdr",
    "predict_mdr",
    "predict_model",
    "predict_rdr",
    "save_model",
    "solve_ridge_dual",
    "stack_multisource",
]

SINGLE_SOURCE_KINDS = ("lr", "kr", "kdr", "rdr")
MULTISOURCE_KINDS = ("mdr", "stacked-lr", "stacked-kr", "stacked-kdr", "stacked-rdr")
MODEL_KINDS = SINGLE_SOURCE_KINDS + MULTISOURCE_KINDS

# Escalating diagonal jitter, as multiples of trace/n, tried after the plain solve.
_JITTERS = (1e-10, 1e-8, 1e-6)

# Least-squares on bag means is numerically fragile near collinearity.
_LR_LAMBDA_FLOOR = 1e-8


class IllConditionedError(RuntimeError):
    """A ridge system stayed non-factorizable after the maximum diagonal jitter."""


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    return lam


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (matrix + lam*I) x = rhs by Cholesky, with escalating jitter.

    ``matrix`` must be symmetric PSD. On factorization failure the diagonal is
    bumped by eps * trace/n for eps in 1e-10, 1e-8, 1e-6 before giving up;
    anything larger would silently distort cross-validated comparisons.
    """
    n = matrix.shape[0]
    diag_unit = float(np.trace(matrix)) / n
    for eps in (0.0,) + _JITTERS:
        shifted = matrix.copy()
        shifted[np.diag_indices(n)] += lam + eps * diag_unit
        try:
            factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
            return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
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


def solve_ridge_dual(gram: BagGram | np.ndarray, y: np.ndarray, lam: float) -> RidgeSolution:
    """Solve (K + lam*I) alpha = y for the dual coefficients.

    No centering happens here; callers that want an intercept center ``y``
    themselves and record the offset.
    """
    lam = _check_lambda(lam)
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

    Dual models keep their (normalized) training data; the randomized model
    keeps only the Fourier basis; baselines keep the training bag means.
    ``normalizers`` holds the per-source transforms fitted by ``fit_model``
    (None when the model was fitted directly on pre-normalized data).
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


def _centered_targets(data: BagDataset | MultiSourceDataset) -> tuple[np.ndarray, float]:
    y = data.targets
    ybar = float(y.mean())
    return y - ybar, ybar


def fit_kdr(
    train: BagDataset,
    params: RbfParams,
    lam: float,
    *,
    _gram: BagGram | None = None,
) -> FittedModel:
    """Kernel distribution regression: dual ridge on the bag mean-embedding Gram."""
    lam = _check_lambda(lam)
    gram = bag_gram(train, params) if _gram is None else _gram
    yc, ybar = _centered_targets(train)
    alpha = _solve_spd(gram.values, yc, lam)
    return FittedModel(
        kind="kdr",
        solution=RidgeSolution(alpha, ybar, lam),
        kernel_params=(params,),
        train_bag_data=train,
    )


def predict_kdr(
    model: FittedModel,
    test: BagDataset,
    *,
    _cross: np.ndarray | None = None,
) -> np.ndarray:
    """One prediction per test bag from the dual expansion over training bags."""
    if model.kind != "kdr":
        raise ValueError(f"predict_kdr needs a kdr model, got {model.kind!r}")
    train = model.train_bag_data
    if test.dim != train.dim:
        raise ValueError(
            f"feature dimension mismatch: model expects d={train.dim}, got d={test.dim}"
        )
    cross = cross_bag_gram(test, train, model.kernel_params[0]) if _cross is None else _cross
    return cross @ model.solution.coefficients + model.solution.intercept


def _rdr_gram(z: np.ndarray) -> np.ndarray:
    """The lambda-independent matrix ``fit_rdr`` factorizes for features ``z``:
    Z'Z on the primal route, ZZ' on the dual one (the smaller of the two)."""
    return z.T @ z if z.shape[1] <= z.shape[0] else z @ z.T


def fit_rdr(
    train: BagDataset,
    basis: FourierBasis,
    lam: float,
    *,
    _features: np.ndarray | None = None,
    _gram: np.ndarray | None = None,
) -> FittedModel:
    """Randomized distribution regression: ridge on per-bag mean Fourier features.

    Solves the primal normal equations (Z'Z + lam*I) w = Z'y; when the feature
    dimension exceeds the number of bags the algebraically identical dual
    route w = Z'(ZZ' + lam*I)^-1 y is used, which factorizes the smaller
    matrix.
    """
    lam = _check_lambda(lam)
    if basis.dim != train.dim:
        raise ValueError(
            f"feature dimension mismatch: basis has d={basis.dim}, data has d={train.dim}"
        )
    z = bag_feature_matrix(train, basis) if _features is None else _features
    gram = _rdr_gram(z) if _gram is None else _gram
    yc, ybar = _centered_targets(train)
    n_bags, n_feat = z.shape
    if n_feat <= n_bags:
        w = _solve_spd(gram, z.T @ yc, lam)
    else:
        w = z.T @ _solve_spd(gram, yc, lam)
    return FittedModel(
        kind="rdr",
        solution=RidgeSolution(w, ybar, lam),
        basis=basis,
    )


def predict_rdr(
    model: FittedModel,
    test: BagDataset,
    *,
    _features: np.ndarray | None = None,
) -> np.ndarray:
    """Linear prediction on the explicit mean feature vector of each test bag."""
    if model.kind != "rdr":
        raise ValueError(f"predict_rdr needs an rdr model, got {model.kind!r}")
    if test.dim != model.basis.dim:
        raise ValueError(
            f"feature dimension mismatch: model expects d={model.basis.dim}, "
            f"got d={test.dim}"
        )
    z = bag_feature_matrix(test, model.basis) if _features is None else _features
    return z @ model.solution.coefficients + model.solution.intercept


def fit_mdr(
    train: MultiSourceDataset,
    params: Sequence[RbfParams],
    lam: float,
    *,
    _gram: BagGram | None = None,
) -> FittedModel:
    """Multisource distribution regression: dual ridge on the summed source Grams."""
    lam = _check_lambda(lam)
    if len(params) != train.n_sources:
        raise ValueError(
            f"need one RbfParams per source: got {len(params)} for "
            f"{train.n_sources} sources"
        )
    gram = multisource_bag_gram(train, params) if _gram is None else _gram
    yc, ybar = _centered_targets(train)
    alpha = _solve_spd(gram.values, yc, lam)
    return FittedModel(
        kind="mdr",
        solution=RidgeSolution(alpha, ybar, lam),
        kernel_params=tuple(params),
        train_multisource=train,
    )


def predict_mdr(
    model: FittedModel,
    test: MultiSourceDataset,
    *,
    _cross: np.ndarray | None = None,
) -> np.ndarray:
    """Predictions from the composite kernel: per-source cross Grams are summed."""
    if model.kind != "mdr":
        raise ValueError(f"predict_mdr needs an mdr model, got {model.kind!r}")
    train = model.train_multisource
    if test.n_sources != train.n_sources:
        raise ValueError(
            f"source count mismatch: model expects {train.n_sources}, got {test.n_sources}"
        )
    if _cross is None:
        cross = np.zeros((test.n_bags, train.n_bags))
        for te, tr, p in zip(test.sources, train.sources, model.kernel_params):
            cross += cross_bag_gram(te, tr, p)
    else:
        cross = _cross
    return cross @ model.solution.coefficients + model.solution.intercept


def _bag_means(data: BagDataset) -> np.ndarray:
    # canonical row order -> exactly permutation-invariant means
    return np.array([canonical_rows(b.instances).mean(axis=0) for b in data.bags])


def fit_baseline(
    train: BagDataset,
    kind: str,
    lam: float,
    params: RbfParams | None = None,
    *,
    _means: np.ndarray | None = None,
) -> FittedModel:
    """Summary-vector baselines working on the per-bag instance means.

    ``lr`` is ridge on the (centered) means with a lambda floor of 1e-8 for
    conditioning; ``kr`` is RBF kernel ridge treating each bag mean as a
    single instance.
    """
    if kind not in ("lr", "kr"):
        raise ValueError(f"baseline kind must be 'lr' or 'kr', got {kind!r}")
    lam = _check_lambda(lam)
    means = _bag_means(train) if _means is None else _means
    yc, ybar = _centered_targets(train)
    if kind == "lr":
        feature_means = means.mean(axis=0)
        centered = means - feature_means
        w = _solve_spd(centered.T @ centered, centered.T @ yc, max(lam, _LR_LAMBDA_FLOOR))
        return FittedModel(
            kind="lr",
            solution=RidgeSolution(w, ybar, lam),
            feature_means=feature_means,
        )
    if params is None:
        raise ValueError("kr needs RbfParams")
    gram = cross_gram(means, means, params)
    alpha = _solve_spd(gram, yc, lam)
    return FittedModel(
        kind="kr",
        solution=RidgeSolution(alpha, ybar, lam),
        kernel_params=(params,),
        train_means=means,
    )


def predict_baseline(
    model: FittedModel,
    test: BagDataset,
    *,
    _means: np.ndarray | None = None,
) -> np.ndarray:
    if model.kind not in ("lr", "kr"):
        raise ValueError(f"predict_baseline needs lr/kr, got {model.kind!r}")
    means = _bag_means(test) if _means is None else _means
    if model.kind == "lr":
        if means.shape[1] != model.feature_means.shape[0]:
            raise ValueError(
                f"feature dimension mismatch: model expects d={model.feature_means.shape[0]}, "
                f"got d={means.shape[1]}"
            )
        centered = means - model.feature_means
        return centered @ model.solution.coefficients + model.solution.intercept
    if means.shape[1] != model.train_means.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: model expects d={model.train_means.shape[1]}, "
            f"got d={means.shape[1]}"
        )
    cross = cross_gram(means, model.train_means, model.kernel_params[0])
    return cross @ model.solution.coefficients + model.solution.intercept


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


STACK_MODES = {"lr": "means", "kr": "means", "kdr": "instances", "rdr": "instances"}


def fit_stacked(
    train: MultiSourceDataset,
    base_kind: str,
    lam: float,
    params: RbfParams | None = None,
    basis: FourierBasis | None = None,
    *,
    _stacked: BagDataset | None = None,
) -> FittedModel:
    """Feature-stacking multisource baseline: run a single-source model on the
    concatenated space built by ``stack_multisource``."""
    if base_kind not in STACK_MODES:
        raise ValueError(f"stacked base kind must be one of {sorted(STACK_MODES)}, got {base_kind!r}")
    stacked = stack_multisource(train, STACK_MODES[base_kind]) if _stacked is None else _stacked
    if base_kind in ("lr", "kr"):
        inner = fit_baseline(stacked, base_kind, lam, params)
    elif base_kind == "kdr":
        inner = fit_kdr(stacked, params, lam)
    else:
        if basis is None:
            raise ValueError("stacked-rdr needs a FourierBasis over the stacked dimension")
        inner = fit_rdr(stacked, basis, lam)
    return replace(inner, kind=f"stacked-{base_kind}", source_dims=tuple(train.dims))


def _predict_stacked(model: FittedModel, test: MultiSourceDataset) -> np.ndarray:
    base_kind = model.kind.split("-", 1)[1]
    if tuple(test.dims) != model.source_dims:
        raise ValueError(
            f"source dimensions mismatch: model expects {model.source_dims}, "
            f"got {tuple(test.dims)}"
        )
    stacked = stack_multisource(test, STACK_MODES[base_kind])
    inner = replace(model, kind=base_kind)
    if base_kind in ("lr", "kr"):
        return predict_baseline(inner, stacked)
    if base_kind == "kdr":
        return predict_kdr(inner, stacked)
    return predict_rdr(inner, stacked)


def _require_hyper(hyper: dict, key: str, kind: str):
    if key not in hyper:
        raise ValueError(f"model kind {kind!r} needs hyperparameter {key!r}")
    return hyper[key]


def _fit_single(kind: str, data: BagDataset, hyper: dict) -> FittedModel:
    lam = _require_hyper(hyper, "lam", kind)
    if kind == "lr":
        return fit_baseline(data, "lr", lam)
    if kind == "kr":
        return fit_baseline(data, "kr", lam, RbfParams(_require_hyper(hyper, "sigma", kind)))
    if kind == "kdr":
        return fit_kdr(data, RbfParams(_require_hyper(hyper, "sigma", kind)), lam)
    basis = sample_basis(
        data.dim,
        int(_require_hyper(hyper, "n_features", kind)),
        float(_require_hyper(hyper, "sigma", kind)),
        int(hyper.get("rff_seed", 0)),
    )
    return fit_rdr(data, basis, lam)


def _predict_single(model: FittedModel, data: BagDataset) -> np.ndarray:
    if model.kind in ("lr", "kr"):
        return predict_baseline(model, data)
    if model.kind == "kdr":
        return predict_kdr(model, data)
    return predict_rdr(model, data)


def fit_model(kind: str, data: BagDataset | MultiSourceDataset, hyper: dict) -> FittedModel:
    """Fit any model kind on raw data: normalize, then dispatch.

    Normalization statistics come from the given (training) bags only and are
    stored on the model, so ``predict_model`` can apply the identical
    transform to new bags. Hyperparameters: ``lam`` always; ``sigma`` for
    kr/kdr/rdr and the stacked variants; ``sigmas`` (one per source) for mdr;
    ``n_features`` and optional ``rff_seed`` for rdr variants.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind in SINGLE_SOURCE_KINDS:
        if not isinstance(data, BagDataset):
            raise TypeError(f"model kind {kind!r} needs a single-source BagDataset")
        norm = fit_normalizer(data)
        model = _fit_single(kind, apply_normalizer(data, norm), hyper)
        return replace(model, normalizers=(norm,))
    if not isinstance(data, MultiSourceDataset):
        raise TypeError(f"model kind {kind!r} needs a MultiSourceDataset")
    norms = tuple(fit_normalizer(src) for src in data.sources)
    normalized = MultiSourceDataset(
        tuple(apply_normalizer(src, n) for src, n in zip(data.sources, norms))
    )
    lam = _require_hyper(hyper, "lam", kind)
    if kind == "mdr":
        sigmas = _require_hyper(hyper, "sigmas", kind)
        model = fit_mdr(normalized, [RbfParams(s) for s in sigmas], lam)
    else:
        base_kind = kind.split("-", 1)[1]
        params = None
        basis = None
        if base_kind in ("kr", "kdr"):
            params = RbfParams(_require_hyper(hyper, "sigma", kind))
        elif base_kind == "rdr":
            basis = sample_basis(
                sum(normalized.dims),
                int(_require_hyper(hyper, "n_features", kind)),
                float(_require_hyper(hyper, "sigma", kind)),
                int(hyper.get("rff_seed", 0)),
            )
        model = fit_stacked(normalized, base_kind, lam, params, basis)
    return replace(model, normalizers=norms)


def predict_model(model: FittedModel, data: BagDataset | MultiSourceDataset) -> np.ndarray:
    """Predict on raw bags, applying the model's stored normalization first."""
    if model.kind in SINGLE_SOURCE_KINDS:
        if not isinstance(data, BagDataset):
            raise TypeError(f"model kind {model.kind!r} predicts on a BagDataset")
        if model.normalizers is not None:
            data = apply_normalizer(data, model.normalizers[0])
        return _predict_single(model, data)
    if not isinstance(data, MultiSourceDataset):
        raise TypeError(f"model kind {model.kind!r} predicts on a MultiSourceDataset")
    if model.normalizers is not None:
        if len(model.normalizers) != data.n_sources:
            raise ValueError(
                f"source count mismatch: model expects {len(model.normalizers)}, "
                f"got {data.n_sources}"
            )
        data = MultiSourceDataset(
            tuple(apply_normalizer(src, n) for src, n in zip(data.sources, model.normalizers))
        )
    if model.kind == "mdr":
        return predict_mdr(model, data)
    return _predict_stacked(model, data)


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


def save_model(model: FittedModel, path: str | Path) -> None:
    """Write a fitted model to a self-describing JSON file.

    The Fourier basis is stored as (seed, dim, components, sigma) and
    resampled on load, which reproduces the weights bit-exactly.
    """
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": model.kind,
        "solution": {
            "coefficients": _enc_array(model.solution.coefficients),
            "intercept": model.solution.intercept,
            "lam": model.solution.lam,
        },
        "normalizers": None
        if model.normalizers is None
        else [{"mean": _enc_array(n.mean), "scale": _enc_array(n.scale)} for n in model.normalizers],
        "kernel_params": None
        if model.kernel_params is None
        else [p.sigma for p in model.kernel_params],
        "basis": None
        if model.basis is None
        else {
            "dim": model.basis.dim,
            "n_components": model.basis.n_components,
            "sigma": model.basis.sigma,
            "seed": model.basis.seed,
        },
        "train_bag_data": None
        if model.train_bag_data is None
        else _enc_dataset(model.train_bag_data),
        "train_multisource": None
        if model.train_multisource is None
        else [_enc_dataset(src) for src in model.train_multisource.sources],
        "train_means": None if model.train_means is None else _enc_array(model.train_means),
        "feature_means": None if model.feature_means is None else _enc_array(model.feature_means),
        "source_dims": None if model.source_dims is None else list(model.source_dims),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


# Top-level fields of a model file; save_model writes every one of them.
_FIELDS = (
    "kind",
    "solution",
    "normalizers",
    "kernel_params",
    "basis",
    "train_bag_data",
    "train_multisource",
    "train_means",
    "feature_means",
    "source_dims",
)

# Per base kind: the field the coefficients index, and how many it implies.
_COEF_ANCHORS = {
    "lr": ("feature_means", lambda m: m.feature_means.shape[0]),
    "kr": ("train_means", lambda m: m.train_means.shape[0]),
    "kdr": ("train_bag_data", lambda m: m.train_bag_data.n_bags),
    "rdr": ("basis", lambda m: m.basis.feature_dim),
    "mdr": ("train_multisource", lambda m: m.train_multisource.n_bags),
}


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
    base = model.kind.removeprefix("stacked-")
    stacked = base != model.kind
    anchor, n_expected = _COEF_ANCHORS[base]
    needed = [anchor]
    if base in ("kr", "kdr", "mdr"):
        needed.append("kernel_params")
    if stacked:
        needed.append("source_dims")
    for name in needed:
        if getattr(model, name) is None:
            raise ValueError(
                f"model file {path}: field {name!r} is null but a {model.kind} model needs it"
            )
    n_coef = model.solution.coefficients.shape[0]
    if n_coef != n_expected(model):
        raise ValueError(
            f"model file {path}: field 'solution' holds {n_coef} coefficients, "
            f"but field {anchor!r} implies {n_expected(model)}"
        )
    if base == "mdr":
        n_sources = model.train_multisource.n_sources
    else:
        n_sources = len(model.source_dims) if stacked else 1
    counts = {"normalizers": n_sources}
    if "kernel_params" in needed:
        counts["kernel_params"] = n_sources if base == "mdr" else 1
    for name, count in counts.items():
        value = getattr(model, name)
        if value is not None and len(value) != count:
            raise ValueError(
                f"model file {path}: field {name!r} holds {len(value)} entries, expected {count}"
            )


def _dec_solution(obj: dict) -> RidgeSolution:
    return RidgeSolution(
        _dec_array(obj["coefficients"]), float(obj["intercept"]), float(obj["lam"])
    )


def _dec_basis(obj: dict) -> FourierBasis:
    return sample_basis(
        int(obj["dim"]), int(obj["n_components"]), float(obj["sigma"]), int(obj["seed"])
    )


def load_model(path: str | Path) -> FittedModel:
    """Read a model written by ``save_model``.

    A file with a missing or malformed field, an unknown kind, or fields whose
    sizes disagree with the coefficients raises ``ValueError`` naming the
    file and the field.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"{path} is not a {_FORMAT} file")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported model file version {doc.get('version')!r}")
    for name in _FIELDS:
        if name not in doc:
            raise ValueError(f"model file {path}: missing field {name!r}")
    if doc["kind"] not in MODEL_KINDS:
        raise ValueError(
            f"model file {path}: field 'kind' is {doc['kind']!r}, expected one of {MODEL_KINDS}"
        )
    solution = _decode_field(path, doc, "solution", _dec_solution)
    if solution is None:
        raise ValueError(f"model file {path}: field 'solution' is null")
    model = FittedModel(
        kind=doc["kind"],
        solution=solution,
        normalizers=_decode_field(
            path, doc, "normalizers",
            lambda v: tuple(Normalizer(_dec_array(n["mean"]), _dec_array(n["scale"])) for n in v),
        ),
        kernel_params=_decode_field(
            path, doc, "kernel_params", lambda v: tuple(RbfParams(s) for s in v)
        ),
        basis=_decode_field(path, doc, "basis", _dec_basis),
        train_bag_data=_decode_field(path, doc, "train_bag_data", _dec_dataset),
        train_multisource=_decode_field(
            path, doc, "train_multisource",
            lambda v: MultiSourceDataset(tuple(_dec_dataset(s) for s in v)),
        ),
        train_means=_decode_field(path, doc, "train_means", lambda v: _dec_array(v, ndim=2)),
        feature_means=_decode_field(path, doc, "feature_means", lambda v: _dec_array(v, ndim=1)),
        source_dims=_decode_field(path, doc, "source_dims", lambda v: tuple(int(d) for d in v)),
    )
    _check_fields(model, path)
    return model
