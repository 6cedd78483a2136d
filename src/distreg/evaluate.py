"""Evaluation protocol: metrics, bag-level k-fold CV, grid search, repeated trials.

The protocol splits at the bag level throughout: a percentage of bags is held
out for testing, the remainder is grid-searched with k-fold cross-validation
(normalizer refit on each fold's training bags, so no statistics leak out of
a fold), the best point is refit on the full training split and scored on the
held-out bags, and the whole procedure repeats over independent trials whose
seeds are derived as ``seed + trial``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import BagDataset, MultiSourceDataset
from .models import (
    HYPER_AXES,
    IllConditionedError,
    MODEL_KINDS,
    _normalize,
    _spec,
    _state,
    _transform,
    default_sigmas,
    fit_model,
    predict_model,
)

__all__ = [
    "CvCell",
    "EvalReport",
    "GridSearchResult",
    "Metrics",
    "TrialResult",
    "compute_metrics",
    "default_grid",
    "grid_search_cv",
    "kfold_split",
    "render_table",
    "report_to_dict",
    "reports_to_csv",
    "run_protocol",
    "split_train_test",
]

logger = logging.getLogger("distreg.evaluate")

_DEFAULT_LAMBDAS = tuple(float(v) for v in np.logspace(-6, 2, 9))
_DEFAULT_SIGMA_SCALES = tuple(float(v) for v in 2.0 ** np.arange(-3, 4))
_DEFAULT_N_FEATURES = (128, 512, 2048)

# Failures that exclude a grid point from the search instead of aborting it.
_CV_ERRORS = (IllConditionedError, ValueError, ArithmeticError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Metrics:
    """Mean error (bias), root-mean-square error, coefficient of determination."""

    me: float
    rmse: float
    r2: float


def compute_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    """Score predictions against targets.

    R^2 is 1 - SS_res/SS_tot about the mean of ``y_true`` and is undefined
    (raises) when ``y_true`` is constant.
    """
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"length mismatch: {y_true.shape[0]} targets vs {y_pred.shape[0]} predictions"
        )
    if y_true.shape[0] == 0:
        raise ValueError("metrics need at least one sample")
    err = y_pred - y_true
    me = float(err.mean())
    rmse = float(np.sqrt(np.mean(err**2)))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("R^2 is undefined: y_true is constant")
    r2 = 1.0 - float(np.sum(err**2)) / ss_tot
    return Metrics(me=me, rmse=rmse, r2=r2)


def kfold_split(n_bags: int, k: int, seed: int) -> list[np.ndarray]:
    """Random partition of ``range(n_bags)`` into k folds of near-equal size."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n_bags:
        raise ValueError(f"cannot split {n_bags} bags into {k} folds")
    perm = np.random.default_rng(seed).permutation(n_bags)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def split_train_test(
    n_bags: int, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random bag-level train/test split; both index arrays come back sorted."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n_bags < 2:
        raise ValueError("need at least two bags to split")
    n_test = int(round(n_bags * test_fraction))
    n_test = min(max(n_test, 1), n_bags - 1)
    perm = np.random.default_rng(seed).permutation(n_bags)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


@dataclass(frozen=True)
class CvCell:
    """One grid point's cross-validation outcome."""

    params: dict
    mean_rmse: float
    fold_rmse: tuple[float, ...] | None
    error: str | None


@dataclass(frozen=True)
class GridSearchResult:
    best: dict
    table: tuple[CvCell, ...]


def _sigma_tiebreak(point: dict) -> float:
    if "sigma" in point:
        return float(point["sigma"])
    if "sigmas" in point:
        return float(sum(point["sigmas"]))
    return 0.0


def _group_key(point: dict):
    """A grid point without its ``lam``, hashable: the points sharing one
    representation."""
    items = []
    for key in sorted(point):
        if key == "lam":
            continue
        value = point[key]
        items.append((key, tuple(value) if isinstance(value, (list, tuple)) else value))
    return tuple(items)


def grid_search_cv(
    data: BagDataset | MultiSourceDataset,
    kind: str,
    grid: Sequence[dict],
    k: int,
    seed: int,
) -> GridSearchResult:
    """Mean validation RMSE per grid point over k bag-level folds.

    Points sharing everything but ``lam`` form a group with one model state
    per fold. A point that fails on any fold (its state, matrices or solve)
    is excluded, with the reason logged and recorded in its table cell; it
    is an error only if every point fails. Ties in mean RMSE prefer larger
    lambda, then larger sigma, then fewer random features.

    Each fold passes the states of all groups to the kind's ``matrices``
    hook in one call, the hook that ``fit_model`` and ``predict_model`` call
    with one state. For ``kdr``, ``mdr`` and ``stacked-kdr`` the Grams of
    every sigma come from one squared-distance pass per tile, so a fold holds
    one Gram per sigma (S B^2 floats for S sigmas and B bags per source:
    under 1 MB at the acceptance sizes), bitwise those of ``fit_model``. For
    ``rdr``/``stacked-rdr`` the sigmas of each feature count and seed split
    into chains that halve exactly, and one cos/sin pass per bag at a
    chain's largest sigma gives all of its sigmas by double-angle steps
    (``bag_feature_sweep``). Those table RMSEs can differ from direct
    evaluation by about 1e-9 relative at ill-conditioned cells; a sigma
    without a ratio-2 neighbour uses direct trig, as the refit does.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    grid = [dict(p) for p in grid]
    if not grid:
        raise ValueError("grid must contain at least one point")
    if k < 2:
        raise ValueError("cross-validation needs k >= 2")
    folds = kfold_split(data.n_bags, k, seed)
    all_idx = np.arange(data.n_bags)
    rmse = np.full((len(grid), len(folds)), np.nan)
    errors: dict[int, str] = {}

    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(grid):
        groups.setdefault(_group_key(point), []).append(i)
    members = list(groups.values())

    def fail(indices, fi, exc):
        for i in indices:
            if i not in errors:
                errors[i] = f"fold {fi}: {exc}"
                logger.warning("grid point %r failed on fold %d: %s", grid[i], fi, exc)

    for fi, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        # normalizer statistics come from the fold's training bags only
        tr, norms = _normalize(data.subset(train_idx))
        va, _ = _normalize(data.subset(val_idx), norms)
        tr, va = _transform(kind, tr), _transform(kind, va)
        y_val = va[0].targets
        fitted, states = [], []
        for indices in members:
            try:
                states.append(_state(kind, tr, grid[indices[0]]))
                fitted.append(indices)
            except _CV_ERRORS as exc:
                fail(indices, fi, exc)
        if not states:
            continue
        try:
            built = _spec(kind).matrices(states, tr, va)
        except _CV_ERRORS as exc:
            for indices in fitted:
                fail(indices, fi, exc)
            continue
        for indices, (rep, m_va) in zip(fitted, built):
            for i in indices:
                if i in errors:
                    continue
                try:
                    pred = rep.solve(float(grid[i]["lam"])).predict(m_va)
                except _CV_ERRORS as exc:
                    fail([i], fi, exc)
                    continue
                rmse[i, fi] = float(np.sqrt(np.mean((pred - y_val) ** 2)))

    cells = []
    candidates = []
    for i, point in enumerate(grid):
        if i in errors:
            cells.append(CvCell(point, float("nan"), None, errors[i]))
            continue
        mean_rmse = float(rmse[i].mean())
        cells.append(CvCell(point, mean_rmse, tuple(float(v) for v in rmse[i]), None))
        candidates.append((i, mean_rmse))
    if not candidates:
        raise RuntimeError(
            f"all {len(grid)} grid points failed cross-validation; "
            f"first failure: {errors[min(errors)]}"
        )
    best_i = min(
        candidates,
        key=lambda item: (
            item[1],
            -float(grid[item[0]].get("lam", 0.0)),
            -_sigma_tiebreak(grid[item[0]]),
            int(grid[item[0]].get("n_features", 0)),
        ),
    )[0]
    return GridSearchResult(best=grid[best_i], table=tuple(cells))


def default_grid(
    kind: str,
    data: BagDataset | MultiSourceDataset,
    seed: int = 0,
    lams: Sequence[float] | None = None,
    sigma_scales: Sequence[float] | None = None,
    n_features: Sequence[int] | None = None,
) -> list[dict]:
    """Hyperparameter grid centered on the median heuristic of the given data.

    Lambdas default to 9 log-spaced values in [1e-6, 1e2]; sigmas to the
    median pairwise distance of the normalized instances (``default_sigmas``)
    times 2^-3 ... 2^3; feature counts for the randomized kinds to
    (128, 512, 2048). Multisource sigmas apply one shared scale to each
    source's own median.
    """
    lams = [float(v) for v in (lams if lams is not None else _DEFAULT_LAMBDAS)]
    scales = [float(v) for v in (sigma_scales if sigma_scales is not None else _DEFAULT_SIGMA_SCALES)]
    feature_counts = [int(v) for v in (n_features if n_features is not None else _DEFAULT_N_FEATURES)]
    center = default_sigmas(kind, data)
    extras = (
        [{"n_features": d, "rff_seed": int(seed)} for d in feature_counts]
        if "n_features" in HYPER_AXES[kind]
        else [{}]
    )
    return [
        {
            "lam": lam,
            **{a: [m * s for m in med] if isinstance(med, list) else med * s for a, med in center.items()},
            **extra,
        }
        for extra in extras
        for s in (scales if center else [1.0])
        for lam in lams
    ]


def _protocol_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    """Metrics for a held-out split, tolerating the degenerate case.

    A test split can legitimately hold a single bag (or bags with identical
    targets); R^2 is undefined there and reported as NaN instead of failing
    the trial.
    """
    y_true = np.asarray(y_true, dtype=float).ravel()
    if np.all(y_true == y_true[0]):
        err = np.asarray(y_pred, dtype=float).ravel() - y_true
        return Metrics(
            me=float(err.mean()),
            rmse=float(np.sqrt(np.mean(err**2))),
            r2=float("nan"),
        )
    return compute_metrics(y_true, y_pred)


@dataclass(frozen=True)
class TrialResult:
    """One protocol trial: held-out metrics plus the chosen grid point."""

    index: int
    seed: int
    metrics: Metrics
    chosen: dict
    timings: dict


@dataclass(frozen=True)
class EvalReport:
    """Per-trial metrics and their aggregates for one model kind."""

    kind: str
    test_fraction: float
    n_folds: int
    base_seed: int
    trials: tuple[TrialResult, ...]

    def aggregates(self) -> dict[str, tuple[float, float]]:
        """Mean and sample standard deviation (n-1) of each metric over trials."""
        out = {}
        for name in ("me", "rmse", "r2"):
            values = np.array([getattr(t.metrics, name) for t in self.trials])
            std = 0.0 if values.size == 1 else float(values.std(ddof=1))
            out[name] = (float(values.mean()), std)
        return out


def run_protocol(
    data: BagDataset | MultiSourceDataset,
    kind: str,
    grid: Sequence[dict] | None = None,
    test_fraction: float = 0.33,
    trials: int = 10,
    k: int = 5,
    seed: int = 0,
    grid_options: dict | None = None,
) -> EvalReport:
    """Repeated-trial evaluation of one model kind.

    Each trial: split bags into train/test, grid-search on the training bags
    with k-fold CV, refit the winner on the full training split, score on the
    held-out bags. When ``grid`` is None a fresh default grid is built from
    each trial's training split (``grid_options`` forwards axis overrides to
    ``default_grid``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_train = data.n_bags - max(1, int(round(data.n_bags * test_fraction)))
    if n_train < k:
        raise ValueError(
            f"insufficient bags: {data.n_bags} bags with test_fraction={test_fraction} "
            f"leave {n_train} training bags for {k}-fold CV"
        )
    results = []
    for t in range(trials):
        trial_seed = seed + t
        train_idx, test_idx = split_train_test(data.n_bags, test_fraction, trial_seed)
        train, test = data.subset(train_idx), data.subset(test_idx)
        trial_grid = (
            grid
            if grid is not None
            else default_grid(kind, train, seed=trial_seed, **(grid_options or {}))
        )
        t0 = time.perf_counter()
        search = grid_search_cv(train, kind, trial_grid, k=k, seed=trial_seed)
        t1 = time.perf_counter()
        model = fit_model(kind, train, search.best)
        t2 = time.perf_counter()
        predictions = predict_model(model, test)
        t3 = time.perf_counter()
        results.append(
            TrialResult(
                index=t,
                seed=trial_seed,
                metrics=_protocol_metrics(test.targets, predictions),
                chosen=search.best,
                timings={"grid_search": t1 - t0, "fit": t2 - t1, "predict": t3 - t2},
            )
        )
        logger.info(
            "%s trial %d: rmse=%.6g r2=%.6g chosen=%r grid_search=%.3fs fit=%.3fs predict=%.3fs",
            kind, t, results[-1].metrics.rmse, results[-1].metrics.r2, search.best,
            t1 - t0, t2 - t1, t3 - t2,
        )
    return EvalReport(
        kind=kind,
        test_fraction=float(test_fraction),
        n_folds=int(k),
        base_seed=int(seed),
        trials=tuple(results),
    )


def _json_float(value: float):
    # NaN from a degenerate split serializes as null, keeping the JSON strict
    return value if np.isfinite(value) else None


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report. Wall-clock timings are deliberately left
    out so the serialized form is identical across reruns."""
    agg = report.aggregates()
    return {
        "kind": report.kind,
        "test_fraction": report.test_fraction,
        "n_folds": report.n_folds,
        "seed": report.base_seed,
        "trials": [
            {
                "trial": t.index,
                "seed": t.seed,
                "me": _json_float(t.metrics.me),
                "rmse": _json_float(t.metrics.rmse),
                "r2": _json_float(t.metrics.r2),
                "chosen": t.chosen,
            }
            for t in report.trials
        ],
        "aggregate": {
            "me_mean": _json_float(agg["me"][0]),
            "me_std": _json_float(agg["me"][1]),
            "rmse_mean": _json_float(agg["rmse"][0]),
            "rmse_std": _json_float(agg["rmse"][1]),
            "r2_mean": _json_float(agg["r2"][0]),
            "r2_std": _json_float(agg["r2"][1]),
        },
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_table(reports: Sequence[EvalReport]) -> str:
    """Aligned text table, one row per model kind.

    ME is scaled by 1000 and RMSE by 100, as the column headers say.
    """
    header = ["Model", "ME x1000", "RMSE x100", "R2"]
    rows = [header]
    for report in reports:
        agg = report.aggregates()
        rows.append(
            [
                report.kind,
                f"{_fmt(agg['me'][0] * 1000)} ± {_fmt(agg['me'][1] * 1000)}",
                f"{_fmt(agg['rmse'][0] * 100)} ± {_fmt(agg['rmse'][1] * 100)}",
                f"{_fmt(agg['r2'][0])} ± {_fmt(agg['r2'][1])}",
            ]
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    """Machine-readable comparison table; values carry full float precision."""
    lines = ["model,me_x1000_mean,me_x1000_std,rmse_x100_mean,rmse_x100_std,r2_mean,r2_std"]
    for report in reports:
        agg = report.aggregates()
        lines.append(
            ",".join(
                [report.kind]
                + [
                    repr(v)
                    for v in (
                        agg["me"][0] * 1000,
                        agg["me"][1] * 1000,
                        agg["rmse"][0] * 100,
                        agg["rmse"][1] * 100,
                        agg["r2"][0],
                        agg["r2"][1],
                    )
                ]
            )
        )
    return "\n".join(lines) + "\n"
