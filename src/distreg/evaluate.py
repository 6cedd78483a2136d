"""Evaluation protocol: metrics, bag-level k-fold CV, grid search, repeated trials.

The protocol splits at the bag level throughout: a percentage of bags is held
out for testing, the remainder is grid-searched with k-fold cross-validation
(normalizer refit on each fold's training bags, so no statistics leak out of
a fold), the best point is refit on the full training split and scored on the
held-out bags, and the whole procedure repeats over independent trials whose
seeds are derived as ``seed + trial``.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import BagDataset, MultiSourceDataset, _check
from .models import (
    _AXES,
    IllConditionedError,
    _axes,
    _check_point,
    _grid_values,
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
        raise ValueError(f"length mismatch: {y_true.shape[0]} targets vs {y_pred.shape[0]} predictions")
    if y_true.shape[0] == 0:
        raise ValueError("metrics need at least one sample")
    err, rmse = _errors(y_true, y_pred)
    with np.errstate(over="ignore"):  # an infinite SS_tot leaves R^2 = 1 - 0
        ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("R^2 is undefined: y_true is constant")
    r2 = 1.0 - float(np.sum(err**2)) / ss_tot
    return Metrics(me=float(err.mean()), rmse=rmse, r2=r2)


def _errors(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, float]:
    """The prediction errors and their root-mean-square. Raises ValueError
    where the squared errors overflow, instead of reporting an infinite
    RMSE with numpy's warning."""
    with np.errstate(over="ignore"):
        err = np.asarray(y_pred, dtype=float).ravel() - y_true
        rmse = float(np.sqrt(np.mean(err**2)))
    if not np.isfinite(rmse):
        raise ValueError("prediction errors too large: their squares overflow")
    return err, rmse


def kfold_split(n_bags: int, k: int, seed: int) -> list[np.ndarray]:
    """Random partition of ``range(n_bags)`` into k folds of near-equal size."""
    k, seed = _check("int>=1", k, "k"), _check("int>=0", seed, "seed")
    if k > n_bags:
        raise ValueError(f"cannot split {n_bags} bags into {k} folds")
    perm = np.random.default_rng(seed).permutation(n_bags)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def split_train_test(n_bags: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random bag-level train/test split; both index arrays come back sorted."""
    test_fraction = _check("real(0,1)", test_fraction, "test_fraction")
    seed = _check("int>=0", seed, "seed")
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


def _tiebreak(point: dict) -> tuple:
    """Sort key of a checked point among points of equal CV RMSE: each
    axis' preferred direction (larger lambda, larger sigma or sum of sigmas,
    fewer random features) sorts first."""
    return tuple(-_AXES[a].prefer * (sum(v) if isinstance(v, tuple) else v) for a, v in point.items())


def grid_search_cv(
    data: BagDataset | MultiSourceDataset,
    kind: str,
    grid: Sequence[dict],
    k: int,
    seed: int,
) -> GridSearchResult:
    """Mean validation RMSE per grid point over k bag-level folds.

    Every point is checked against the hyperparameter axis table once, up
    front; ``best`` and the table hold the points as given. Points sharing
    everything but ``lam`` form a group with one model state per fold. A
    point that fails its check, or fails on any fold (its matrices or
    solve), is excluded, with the reason logged and recorded in its table
    cell (a failed check as on fold 0); it is an error only if every point
    fails. Ties in mean RMSE prefer larger lambda, then larger sigma (or sum
    of sigmas), then fewer random features.

    Each fold passes the states of all groups to the kind's ``matrices``
    hook in one call, which shares work between sigmas (see ``models``): the
    Gram kinds' tables are bitwise those of ``fit_model``; ``rdr`` tables
    built by double-angle steps can differ from direct evaluation by about
    1e-9 relative at ill-conditioned cells.
    """
    _spec(kind)  # rejects unknown kinds
    k = _check("int>=2", k, "k")
    grid = [dict(p) for p in grid]
    if not grid:
        raise ValueError("grid must contain at least one point")
    folds = kfold_split(data.n_bags, k, seed)
    all_idx = np.arange(data.n_bags)
    rmse = np.full((len(grid), len(folds)), np.nan)
    errors: dict[int, str] = {}

    def fail(indices, fi, exc):
        for i in indices:
            if i not in errors:
                errors[i] = f"fold {fi}: {exc}"
                logger.warning("grid point %r failed on fold %d: %s", grid[i], fi, exc)

    points = {}
    for i, point in enumerate(grid):
        try:
            points[i] = _check_point(kind, point, data)
        except ValueError as exc:
            fail([i], 0, exc)
    groups: dict[tuple, list[int]] = {}
    for i, point in points.items():
        groups.setdefault(tuple((a, v) for a, v in point.items() if a != "lam"), []).append(i)
    members = list(groups.values())

    def run_fold(fi, val_idx):
        # a function, so that one fold's matrices are freed before the next's are built
        train_idx = np.setdiff1d(all_idx, val_idx)
        # normalizer statistics come from the fold's training bags only
        tr, norms = _normalize(data.subset(train_idx))
        va, _ = _normalize(data.subset(val_idx), norms)
        tr, va = _transform(kind, tr), _transform(kind, va)
        y_val = va[0].targets
        states = [_state(kind, tr, points[indices[0]]) for indices in members]
        try:
            built = _spec(kind).matrices(states, tr, va)
        except _CV_ERRORS as exc:
            for indices in members:
                fail(indices, fi, exc)
            return
        for indices, (rep, m_va) in zip(members, built):
            for i in indices:
                if i in errors:
                    continue
                try:
                    rmse[i, fi] = _errors(y_val, rep.solve(points[i]["lam"]).predict(m_va))[1]
                except _CV_ERRORS as exc:
                    fail([i], fi, exc)

    for fi, val_idx in enumerate(folds if members else ()):
        run_fold(fi, val_idx)

    cells = tuple(
        CvCell(point, float("nan"), None, errors[i]) if i in errors
        else CvCell(point, float(rmse[i].mean()), tuple(float(v) for v in rmse[i]), None)
        for i, point in enumerate(grid)
    )
    scored = [i for i in range(len(grid)) if i not in errors]
    if not scored:
        raise RuntimeError(
            f"all {len(grid)} grid points failed cross-validation; first failure: {errors[min(errors)]}"
        )
    best_i = min(scored, key=lambda i: (cells[i].mean_rmse, *_tiebreak(points[i])))
    return GridSearchResult(best=grid[best_i], table=cells)


def default_grid(
    kind: str,
    data: BagDataset | MultiSourceDataset,
    seed: int = 0,
    **overrides: Sequence,
) -> list[dict]:
    """Hyperparameter grid centered on the median heuristic of the given data.

    Each axis of ``kind`` takes the axis table's default values unless its
    grid key (``lams``, ``sigma_scales``, ``n_features``) is given as an
    override, whose values are checked against the axis: 9 log-spaced
    lambdas in [1e-6, 1e2]; the median heuristic (``default_sigmas``) times
    2^-3 ... 2^3, one shared scale for every source's median; 128, 512 and
    2048 random features; ``rff_seed`` is ``seed``. Lambda varies fastest.
    """
    given = {key: _grid_values(key, values) for key, values in overrides.items()}
    center = default_sigmas(kind, data)
    keys = _axes(kind)
    columns = []
    for key in keys:
        axis = _AXES[key]
        if axis.grid_key is None:
            columns.append([axis.check(seed, "seed")])
            continue
        values = given.get(axis.grid_key, axis.grid)
        if key in center:
            med = center[key]
            values = [[m * s for m in med] if isinstance(med, list) else med * s for s in values]
        columns.append(values)
    return [dict(zip(keys, combo[::-1])) for combo in itertools.product(*columns[::-1])]


def _protocol_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    """Metrics for a held-out split, tolerating the degenerate case.

    A test split can legitimately hold a single bag (or bags with identical
    targets); R^2 is undefined there and reported as NaN instead of failing
    the trial.
    """
    y_true = np.asarray(y_true, dtype=float).ravel()
    if np.all(y_true == y_true[0]):
        err, rmse = _errors(y_true, y_pred)
        return Metrics(me=float(err.mean()), rmse=rmse, r2=float("nan"))
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
    ``default_grid``); giving both is an error. ``trials``, ``k``, ``seed``
    and ``test_fraction`` are checked against their domains before the
    first split.
    """
    if grid is not None and grid_options is not None:
        raise ValueError("give grid or grid_options, not both: grid_options only shape the default grid")
    trials, k = _check("int>=1", trials, "trials"), _check("int>=2", k, "k")
    seed = _check("int>=0", seed, "seed")
    test_fraction = _check("real(0,1)", test_fraction, "test_fraction")
    n_train = len(split_train_test(data.n_bags, test_fraction, seed)[0])
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
        options = grid_options or {}
        trial_grid = grid if grid is not None else default_grid(kind, train, seed=trial_seed, **options)
        t0 = time.perf_counter()
        search = grid_search_cv(train, kind, trial_grid, k=k, seed=trial_seed)
        t1 = time.perf_counter()
        model = fit_model(kind, train, search.best)
        t2 = time.perf_counter()
        predictions = predict_model(model, test)
        t3 = time.perf_counter()
        timings = {"grid_search": t1 - t0, "fit": t2 - t1, "predict": t3 - t2}
        metrics = _protocol_metrics(test.targets, predictions)
        results.append(TrialResult(t, trial_seed, metrics, search.best, timings))
        logger.info(
            "%s trial %d: rmse=%.6g r2=%.6g chosen=%r grid_search=%.3fs fit=%.3fs predict=%.3fs",
            kind, t, results[-1].metrics.rmse, results[-1].metrics.r2, search.best,
            t1 - t0, t2 - t1, t3 - t2,
        )
    return EvalReport(kind, test_fraction, k, seed, tuple(results))


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
            {"trial": t.index, "seed": t.seed, "chosen": t.chosen,
             **{name: _json_float(getattr(t.metrics, name)) for name in _COLUMNS}}
            for t in report.trials
        ],
        "aggregate": {
            f"{name}_{stat}": _json_float(value)
            for name, pair in agg.items() for stat, value in zip(("mean", "std"), pair)
        },
    }


# Each metric's scale in the comparison tables, as their headers say.
_COLUMNS = {"me": 1000, "rmse": 100, "r2": 1}


def _scaled(report: EvalReport) -> list[tuple[float, float]]:
    """Mean and standard deviation of each metric, scaled for the tables."""
    return [(mean * _COLUMNS[n], std * _COLUMNS[n]) for n, (mean, std) in report.aggregates().items()]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_table(reports: Sequence[EvalReport]) -> str:
    """Aligned text table, one row per model kind.

    ME is scaled by 1000 and RMSE by 100, as the column headers say.
    """
    header = ["Model", "ME x1000", "RMSE x100", "R2"]
    rows = [header] + [[r.kind] + [f"{_fmt(m)} ± {_fmt(s)}" for m, s in _scaled(r)] for r in reports]
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
    lines += [",".join([r.kind] + [repr(v) for pair in _scaled(r) for v in pair]) for r in reports]
    return "\n".join(lines) + "\n"
