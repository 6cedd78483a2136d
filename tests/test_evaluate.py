"""Metrics, fold construction, grid search, and the repeated-trial protocol."""

import json
import logging
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import distreg.evaluate as evaluate
from distreg import (
    MultiSourceDataset,
    apply_normalizer,
    compute_metrics,
    default_grid,
    fit_normalizer,
    grid_search_cv,
    kfold_split,
    make_mean_task,
    make_variance_task,
    median_heuristic_bags,
    render_table,
    report_to_dict,
    reports_to_csv,
    run_protocol,
    split_train_test,
)
from conftest import random_dataset, with_workers


def normalized(data):
    return apply_normalizer(data, fit_normalizer(data))


# Prints the mdr default-grid CV table of the multisource task's training
# split; with the argument "numpy-first", numpy is imported before distreg.
CV_TABLE_SCRIPT = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy
import distreg as dr

data = dr.make_multisource_task(120, seed=0)
train = data.subset(dr.split_train_test(120, 0.33, 0)[0])
result = dr.grid_search_cv(train, "mdr", dr.default_grid("mdr", train), k=5, seed=0)
print(repr([(cell.params, cell.fold_rmse, cell.error) for cell in result.table]))
"""


class TestComputeMetrics:
    def test_perfect_predictions(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.me, m.rmse, m.r2) == (0.0, 0.0, 1.0)

    def test_constant_mean_prediction_gives_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        m = compute_metrics(y, np.full(3, y.mean()))
        assert m.r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_case(self):
        m = compute_metrics([0.0, 2.0], [1.0, 1.0])
        assert m.me == pytest.approx(0.0)
        assert m.rmse == pytest.approx(1.0)
        assert m.r2 == pytest.approx(0.0)

    def test_rmse_squared_dominates_me_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.standard_normal(10)
            p = rng.standard_normal(10)
            m = compute_metrics(y, p)
            assert m.rmse**2 >= m.me**2 - 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            compute_metrics([1.0], [1.0, 2.0])

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            compute_metrics([2.0, 2.0], [1.0, 3.0])

    @pytest.mark.parametrize(
        "metrics,y_true",
        [(compute_metrics, [1e200, -2e200, 3e200]), (evaluate._protocol_metrics, [1e200, -2e200, 3e200]),
         (evaluate._protocol_metrics, [1e200, 1e200, 1e200])],
        ids=["compute", "protocol", "protocol-constant"],
    )
    def test_overflowing_squared_errors_named(self, metrics, y_true):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^prediction errors too large: their squares overflow$"):
                metrics(np.array(y_true), -np.array(y_true))

    def test_targets_whose_squares_overflow_keep_r2_finite(self):
        # SS_tot overflows to inf while the squared errors do not: R^2 is 1 - 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = compute_metrics([1e160, -2e160, 3e160], [1e160 + 1e150, -2e160, 3e160])
        assert m.r2 == 1.0 and m.rmse == pytest.approx(np.sqrt(1e300 / 3), rel=1e-5)


class TestKfoldSplit:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = kfold_split(7, 5, seed=0)
        assert sorted(len(f) for f in folds) == [1, 1, 1, 2, 2]

    def test_deterministic(self):
        a = kfold_split(20, 4, seed=3)
        b = kfold_split(20, 4, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(1, n + 1))
            folds = kfold_split(n, k, seed=int(rng.integers(0, 1000)))
            combined = np.concatenate(folds)
            assert len(combined) == n
            assert len(np.unique(combined)) == n
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_too_many_folds(self):
        with pytest.raises(ValueError, match="cannot split"):
            kfold_split(3, 5, seed=0)


class TestSplitTrainTest:
    def test_sizes_and_disjointness(self):
        train, test = split_train_test(100, 0.33, seed=0)
        assert len(test) == 33
        assert len(train) == 67
        assert len(np.intersect1d(train, test)) == 0

    def test_at_least_one_each(self):
        train, test = split_train_test(2, 0.01, seed=0)
        assert len(test) == 1 and len(train) == 1

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="test_fraction"):
            split_train_test(10, 1.5, seed=0)


class TestGridSearch:
    def test_single_point_grid(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, 12)
        result = grid_search_cv(data, "kdr", [{"lam": 1e-3, "sigma": 1.0}], k=3, seed=0)
        assert result.best == {"lam": 1e-3, "sigma": 1.0}
        assert len(result.table) == 1
        assert np.isfinite(result.table[0].mean_rmse)
        assert len(result.table[0].fold_rmse) == 3

    def test_linear_task_prefers_small_lambda(self):
        data = make_mean_task(40, 10, 3, noise=0.0, seed=3)
        result = grid_search_cv(data, "lr", [{"lam": 1e-6}, {"lam": 1e3}], k=5, seed=0)
        assert result.best["lam"] == 1e-6

    def test_selected_sigma_near_median_heuristic(self):
        data = make_variance_task(60, 30, 3, seed=4)
        med = median_heuristic_bags(normalized(data))
        grid = [
            {"lam": 1e-2, "sigma": med * s} for s in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        result = grid_search_cv(data, "kdr", grid, k=5, seed=0)
        step = abs(np.log2(result.best["sigma"] / med))
        assert step <= 1.0 + 1e-9

    def test_tie_break_prefers_larger_lambda(self):
        # Duplicated grid points have exactly equal CV RMSE; the larger lambda wins.
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 10)
        grid = [{"lam": 1e-3, "sigma": 1.0}, {"lam": 1e-2, "sigma": 1.0}]
        result = grid_search_cv(data, "kdr", grid + grid, k=2, seed=0)
        duplicate_rmses = [c.mean_rmse for c in result.table]
        assert duplicate_rmses[0] == duplicate_rmses[2]
        if result.table[0].mean_rmse == result.table[1].mean_rmse:
            assert result.best["lam"] == 1e-2

    @pytest.mark.parametrize(
        "kind,good,bad,error",
        [
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"lam": 1e-3, "sigma": -1.0},
             "fold 0: sigma must be positive and finite, got -1.0"),
            ("rdr", {"lam": 1e-3, "sigma": 1.0, "n_features": 16}, {"lam": 1e-3, "sigma": 1.0},
             "fold 0: model kind 'rdr' needs hyperparameter 'n_features'"),
            ("rdr", {"lam": 1e-3, "sigma": 1.0, "n_features": 16}, {"lam": 1e-3, "n_features": 16},
             "fold 0: model kind 'rdr' needs hyperparameter 'sigma'"),
            # the point shares its group with a good one
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"sigma": 1.0},
             "fold 0: model kind 'kdr' needs hyperparameter 'lam'"),
            ("mdr", {"lam": 1e-3, "sigmas": [1.0, 1.0]}, {"lam": 1e-3, "sigmas": 1.0},
             "fold 0: sigmas must be a list of positive and finite reals, one per source, got 1.0"),
            ("mdr", {"lam": 1e-3, "sigmas": [1.0, 1.0]}, {"lam": 1e-3, "sigmas": [1.0]},
             "fold 0: sigmas needs one RbfParams per source: got 1 for 2 sources"),
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"lam": 1e-3, "sigma": [1.0]},
             "fold 0: sigma must be positive and finite, got [1.0]"),
            ("rdr", {"lam": 1e-3, "sigma": 1.0, "n_features": 16},
             {"lam": 1e-3, "sigma": 1.0, "n_features": 1.5},
             "fold 0: n_features must be an integer ≥ 1, got 1.5"),
            ("rdr", {"lam": 1e-3, "sigma": 1.0, "n_features": 16},
             {"lam": 1e-3, "sigma": 1.0, "n_features": 16, "rff_seed": -1},
             "fold 0: rff_seed must be an integer ≥ 0, got -1"),
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"lam": "1e-3", "sigma": 1.0},
             "fold 0: lambda must be positive and finite, got '1e-3'"),
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"lam": True, "sigma": 1.0},
             "fold 0: lambda must be positive and finite, got True"),
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"lam": 1e-3, "sigma": 1.0, "n_features": 16},
             "fold 0: model kind 'kdr' has no hyperparameter 'n_features'"),
            ("kdr", {"lam": 1e-3, "sigma": 1.0}, {"lam": 1e-3, "sigma": 1e-200},
             "fold 0: sigma 1e-200 is too small: 1 / (2 sigma^2) overflows"),
        ],
        ids=["kdr-invalid-sigma", "rdr-no-n_features", "rdr-no-sigma", "kdr-no-lam-in-group",
             "mdr-scalar-sigmas", "mdr-sigmas-count", "kdr-list-sigma", "rdr-fractional-n_features",
             "rdr-negative-rff_seed", "kdr-string-lam", "kdr-bool-lam", "kdr-unknown-key",
             "kdr-underflowing-sigma"],
    )
    def test_failing_point_excluded_with_reason(self, kind, good, bad, error):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 10)
        if kind == "mdr":
            data = MultiSourceDataset((data, data))
        result = grid_search_cv(data, kind, [good, bad], k=2, seed=0)
        assert result.best == good
        assert result.table[0].fold_rmse is not None
        assert result.table[1].error == error
        assert result.table[1].fold_rmse is None

    def test_every_point_checked_once_and_kept_as_given(self, monkeypatch):
        calls = []
        original = evaluate._check_point

        def spy(kind, point, data):
            calls.append(point)
            return original(kind, point, data)

        monkeypatch.setattr(evaluate, "_check_point", spy)
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 12)
        grid = [{"lam": 1, "sigma": 2}, {"lam": np.float64(1e-2), "sigma": 1.0}, {"lam": -1.0, "sigma": 1.0}]
        given = [dict(p) for p in grid]
        result = grid_search_cv(data, "kdr", grid, k=4, seed=0)
        assert calls == given
        assert grid == given
        assert [cell.params for cell in result.table] == given
        assert type(result.table[0].params["lam"]) is int
        assert result.table[2].error == "fold 0: lambda must be positive and finite, got -1.0"
        assert all(cell.fold_rmse is not None for cell in result.table[:2])

    def test_all_points_failing_raises(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 10)
        with pytest.raises(RuntimeError, match="all 1 grid points failed"):
            grid_search_cv(data, "kdr", [{"lam": 1e-3, "sigma": -1.0}], k=2, seed=0)

    def test_failing_pair_item_fails_every_point_on_its_fold(self, monkeypatch):
        # a chunk pair of fold 1's one Gram queue raises on a started thread:
        # every point's cell names that fold, and the search fails
        import distreg.kernels as kernels
        import distreg.models as models

        grams, add_pair_sums, folds, pool_in = models._grams, kernels._add_pair_sums, [], threading.Event()

        def fold_queue(jobs):
            folds.append(len(folds))
            return grams(jobs)

        def failing_on_fold_1(*args):
            # the calling thread computes its pairs once a started thread has pulled one
            if folds[-1] == 1 and threading.current_thread() is threading.main_thread():
                assert pool_in.wait(10)
            elif folds[-1] == 1:
                pool_in.set()
                raise ValueError("injected pair failure")
            add_pair_sums(*args)

        monkeypatch.setattr(models, "_grams", fold_queue)
        monkeypatch.setattr(kernels, "_add_pair_sums", failing_on_fold_1)
        monkeypatch.setattr(kernels, "TILE", 16)  # several chunk pairs per fold
        data = random_dataset(np.random.default_rng(17), 24)
        grid = default_grid("kdr", data, lams=[1e-2, 1.0], sigma_scales=[0.5, 1.0])
        with pytest.raises(RuntimeError) as caught:
            with_workers(2, grid_search_cv, data, "kdr", grid, k=3, seed=0)
        assert str(caught.value) == (
            f"all {len(grid)} grid points failed cross-validation; first failure: fold 1: injected pair failure"
        )
        assert pool_in.is_set() and folds == [0, 1, 2]

    def test_ill_conditioned_lambda_excluded_alone(self, monkeypatch):
        import distreg.models as models

        solve = models._solve_spd

        def refusing(matrix, rhs, lam):
            if lam == 1e-2:
                raise models.IllConditionedError("injected: no factorization")
            return solve(matrix, rhs, lam)

        monkeypatch.setattr(models, "_solve_spd", refusing)
        data = random_dataset(np.random.default_rng(18), 12)
        grid = default_grid("kdr", data, lams=[1e-4, 1e-2, 1.0], sigma_scales=[1.0, 2.0])
        result = grid_search_cv(data, "kdr", grid, k=3, seed=0)
        failed = [cell for cell in result.table if cell.error is not None]
        assert [cell.params["lam"] for cell in failed] == [1e-2, 1e-2]
        assert all(cell.error == "fold 0: injected: no factorization" and cell.fold_rmse is None for cell in failed)
        assert all(len(cell.fold_rmse) == 3 for cell in result.table if cell.params["lam"] != 1e-2)
        assert result.best["lam"] != 1e-2

    def test_empty_grid_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="at least one point"):
            grid_search_cv(random_dataset(rng, 6), "kdr", [], k=2, seed=0)

    @pytest.mark.parametrize(
        "kind,point",
        [
            ("lr", {"lam": 1e-2}),
            ("kr", {"lam": 1e-2, "sigma": 1.3}),
            ("kdr", {"lam": 1e-2, "sigma": 1.3}),
            ("rdr", {"lam": 1e-2, "sigma": 1.3, "n_features": 16, "rff_seed": 2}),
            ("mdr", {"lam": 1e-2, "sigmas": [1.3, 0.9]}),
            ("stacked-kdr", {"lam": 1e-2, "sigma": 1.3}),
            ("stacked-rdr", {"lam": 1e-2, "sigma": 1.3, "n_features": 16, "rff_seed": 2}),
        ],
    )
    def test_cv_rmse_matches_manual_fold_loop(self, kind, point):
        # The representation-sharing fast path must agree with a naive loop
        # through the public fit/predict pipeline.
        from distreg import Bag, BagDataset, MultiSourceDataset, fit_model, predict_model

        rng = np.random.default_rng(9)
        data = random_dataset(rng, 12)
        if kind in ("mdr", "stacked-kdr", "stacked-rdr"):
            second = BagDataset(
                tuple(
                    Bag(b.id, rng.standard_normal((int(rng.integers(1, 4)), 2)))
                    for b in data.bags
                ),
                data.targets,
            )
            data = MultiSourceDataset((data, second))
        result = grid_search_cv(data, kind, [point], k=3, seed=5)
        folds = kfold_split(12, 3, seed=5)
        manual = []
        for val_idx in folds:
            train_idx = np.setdiff1d(np.arange(12), val_idx)
            model = fit_model(kind, data.subset(train_idx), point)
            pred = predict_model(model, data.subset(val_idx))
            manual.append(np.sqrt(np.mean((pred - data.targets[val_idx]) ** 2)))
        np.testing.assert_allclose(result.table[0].fold_rmse, manual, atol=1e-12)

    @staticmethod
    def manual_fold_rmse(data, kind, grid, k, seed):
        from distreg import fit_model, predict_model

        folds = kfold_split(data.n_bags, k, seed=seed)
        table = []
        for point in grid:
            row = []
            for val_idx in folds:
                train_idx = np.setdiff1d(np.arange(data.n_bags), val_idx)
                model = fit_model(kind, data.subset(train_idx), point)
                pred = predict_model(model, data.subset(val_idx))
                row.append(np.sqrt(np.mean((pred - data.targets[val_idx]) ** 2)))
            table.append(row)
        return np.array(table)

    def test_rdr_without_halving_sigmas_matches_manual_loop(self):
        # sigmas in ratio 1.5 form no halving chain: every point is evaluated directly
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 12)
        grid = default_grid(
            "rdr", data, seed=3, lams=[1e-3, 1e-1], sigma_scales=[1.0, 1.5], n_features=[16]
        )
        result = grid_search_cv(data, "rdr", grid, k=3, seed=5)
        manual = self.manual_fold_rmse(data, "rdr", grid, k=3, seed=5)
        got = np.array([cell.fold_rmse for cell in result.table])
        np.testing.assert_allclose(got, manual, atol=1e-12)

    @pytest.mark.parametrize("kind", ["rdr", "stacked-rdr"])
    def test_rdr_sigma_sweep_matches_manual_loop(self, kind):
        from distreg import Bag, BagDataset, MultiSourceDataset

        rng = np.random.default_rng(11)
        data = random_dataset(rng, 15)
        if kind == "stacked-rdr":
            second = BagDataset(
                tuple(
                    Bag(b.id, rng.standard_normal((int(rng.integers(1, 4)), 2)))
                    for b in data.bags
                ),
                data.targets,
            )
            data = MultiSourceDataset((data, second))
        grid = default_grid(kind, data, seed=4, n_features=[16, 128])
        result = grid_search_cv(data, kind, grid, k=3, seed=6)
        manual = self.manual_fold_rmse(data, kind, grid, k=3, seed=6)
        got = np.array([cell.fold_rmse for cell in result.table])
        np.testing.assert_allclose(got, manual, rtol=1e-8)
        assert result.best == grid[int(np.argmin(manual.mean(axis=1)))]


    @staticmethod
    def two_source(rng, n_bags):
        from distreg import Bag, BagDataset, MultiSourceDataset

        first = random_dataset(rng, n_bags)
        second = BagDataset(
            tuple(
                Bag(b.id, rng.standard_normal((int(rng.integers(1, 5)), 2)))
                for b in first.bags
            ),
            first.targets,
        )
        return MultiSourceDataset((first, second))

    @pytest.mark.parametrize(
        "kind", ["kdr", "mdr", "stacked-kdr", "lr", "kr", "stacked-lr", "stacked-kr"]
    )
    def test_gram_sweep_matches_manual_loop_exactly(self, kind):
        # every sigma of a fold comes from one distance pass per tile (Gram
        # kinds) or one plain loop (lr, kr), and the table is still bitwise
        # that of fit_model/predict_model
        from distreg import SINGLE_SOURCE_KINDS

        rng = np.random.default_rng(12)
        data = random_dataset(rng, 14) if kind in SINGLE_SOURCE_KINDS else self.two_source(rng, 14)
        grid = default_grid(kind, data, seed=2)
        result = grid_search_cv(data, kind, grid, k=3, seed=7)
        manual = self.manual_fold_rmse(data, kind, grid, k=3, seed=7)
        got = np.array([cell.fold_rmse for cell in result.table])
        assert np.array_equal(got, manual)

    def test_cv_table_same_at_every_thread_setting_and_import_order(self):
        # OpenBLAS threads round the mdr products differently, and they are
        # fixed when numpy loads, so each setting runs in its own interpreter
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS") and k != "DISTREG_THREADS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        tables = [
            subprocess.run(
                [sys.executable, "-c", CV_TABLE_SCRIPT, first], env={**env, **extra},
                capture_output=True, text=True, check=True,
            ).stdout
            for first, extra in (("distreg-first", {"DISTREG_THREADS": "1"}), ("numpy-first", {}))
        ]
        assert tables[0] == tables[1]

    def test_invalid_mdr_sigma_fails_alone(self):
        rng = np.random.default_rng(13)
        data = self.two_source(rng, 12)
        grid = default_grid("mdr", data, lams=[1e-3, 1e-1])
        bad = {"lam": 1e-2, "sigmas": [-1.0, 0.5]}
        result = grid_search_cv(data, "mdr", grid[:6] + [bad] + grid[6:], k=3, seed=1)
        clean = grid_search_cv(data, "mdr", grid, k=3, seed=1)
        cells = list(result.table)
        failed = cells.pop(6)
        assert failed.error == (
            "fold 0: sigmas must be a list of positive and finite reals, one per source, got [-1.0, 0.5]"
        )
        assert failed.fold_rmse is None
        assert [c.fold_rmse for c in cells] == [c.fold_rmse for c in clean.table]
        assert result.best == clean.best

    def test_folds_do_not_outlive_their_matrices(self):
        # the search holds one fold's matrices at a time: its peak stays near
        # that of one fold's matrices call (two folds' worth when the
        # previous fold's features stayed alive)
        import tracemalloc

        from distreg.models import _check_point, _normalize, _spec, _state, _transform

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        data = make_variance_task(30, 10, 3, 0)
        grid = default_grid("rdr", data, seed=0, lams=[1e-3, 1e-1], n_features=[512])
        search = peak(lambda: grid_search_cv(data, "rdr", grid, k=5, seed=0))
        val_idx = kfold_split(data.n_bags, 5, seed=0)[0]
        tr, norms = _normalize(data.subset(np.setdiff1d(np.arange(data.n_bags), val_idx)))
        va, _ = _normalize(data.subset(val_idx), norms)
        tr, va = _transform("rdr", tr), _transform("rdr", va)
        states = [_state("rdr", tr, _check_point("rdr", p, data)) for p in grid[::2]]
        fold = peak(lambda: _spec("rdr").matrices(states, tr, va))
        assert search <= 1.2 * fold

    @pytest.mark.parametrize("kind", ["kdr", "mdr"])
    def test_one_distance_pass_per_chunk_pair_per_fold(self, monkeypatch, kind):
        import distreg.kernels as kernels

        calls = []
        original = kernels._pair_product

        def spy(ca, cb, tile):
            calls.append((ca.rows.shape[0], cb.rows.shape[0]))
            return original(ca, cb, tile)

        monkeypatch.setattr(kernels, "_pair_product", spy)
        rng = np.random.default_rng(14)
        data = random_dataset(rng, 12) if kind == "kdr" else self.two_source(rng, 12)
        counts = []
        for scales in ([1.0], list(2.0 ** np.arange(-3, 4))):
            grid = default_grid(kind, data, lams=[1e-2, 1.0], sigma_scales=scales)
            calls.clear()
            grid_search_cv(data, kind, grid, k=3, seed=2)
            counts.append(len(calls))
        # per fold and source, one chunk pair for the Gram and one for the cross Gram
        n_sources = 1 if kind == "kdr" else 2
        assert counts == [3 * n_sources * 2] * 2


class TestDefaultGrid:
    def test_kdr_grid_shape(self):
        data = make_variance_task(20, 10, 3, seed=10)
        grid = default_grid("kdr", data)
        assert len(grid) == 63
        lams = sorted({p["lam"] for p in grid})
        assert lams[0] == pytest.approx(1e-6)
        assert lams[-1] == pytest.approx(1e2)
        med = median_heuristic_bags(normalized(data))
        scales = sorted({p["sigma"] / med for p in grid})
        np.testing.assert_allclose(scales, [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])

    def test_lr_grid_lambda_only(self):
        data = make_variance_task(10, 5, 2, seed=11)
        grid = default_grid("lr", data)
        assert len(grid) == 9
        assert all(set(p) == {"lam"} for p in grid)

    def test_rdr_grid_includes_feature_counts(self):
        data = make_variance_task(10, 5, 2, seed=12)
        grid = default_grid("rdr", data, seed=4)
        assert len(grid) == 9 * 7 * 3
        assert {p["n_features"] for p in grid} == {128, 512, 2048}
        assert all(p["rff_seed"] == 4 for p in grid)

    def test_mdr_grid_shares_scale_across_sources(self):
        from distreg import make_multisource_task

        ms = make_multisource_task(15, seed=13)
        grid = default_grid("mdr", ms)
        assert len(grid) == 63
        meds = [
            median_heuristic_bags(normalized(src)) for src in ms.sources
        ]
        for p in grid:
            ratios = [s / m for s, m in zip(p["sigmas"], meds)]
            assert ratios[0] == pytest.approx(ratios[1])

    def test_axis_overrides(self):
        data = make_variance_task(10, 5, 2, seed=14)
        grid = default_grid("kdr", data, lams=[1e-3], sigma_scales=[1.0])
        assert len(grid) == 1

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"n_features": [1.5]},
             "each value of grid key 'n_features' must be an integer ≥ 1, got 1.5"),
            ({"lams": [1e-3, 0.0]}, "each value of grid key 'lams' must be positive and finite, got 0.0"),
            ({"sigma_scales": []}, "grid key 'sigma_scales' must be a non-empty list, got []"),
            ({"seed": -1}, "seed must be an integer ≥ 0, got -1"),
            ({"nfeatures": [8]}, "unknown grid key 'nfeatures' (allowed: ['lams', 'n_features', 'sigma_scales'])"),
        ],
        ids=["n_features-fraction", "lams-zero", "sigma_scales-empty", "negative-seed", "unknown-key"],
    )
    def test_invalid_override_named(self, override, message):
        data = make_variance_task(10, 5, 2, seed=14)
        with pytest.raises(ValueError) as info:
            default_grid("rdr", data, **override)
        assert str(info.value) == message


class TestRunProtocol:
    def test_single_trial_has_zero_std(self):
        data = make_variance_task(20, 8, 2, seed=15)
        report = run_protocol(
            data, "lr", grid=[{"lam": 1e-3}], test_fraction=0.1, trials=1, k=3, seed=0
        )
        agg = report.aggregates()
        assert all(std == 0.0 for _, std in agg.values())
        assert len(report.trials) == 1

    def test_one_bag_test_set_is_degenerate_but_legal(self):
        data = make_variance_task(20, 8, 2, seed=15)
        report = run_protocol(
            data, "lr", grid=[{"lam": 1e-3}], test_fraction=0.01, trials=1, k=3, seed=0
        )
        trial = report.trials[0].metrics
        assert np.isfinite(trial.me) and np.isfinite(trial.rmse)
        assert np.isnan(trial.r2)  # single target: R^2 undefined
        agg = report.aggregates()
        assert agg["rmse"][1] == 0.0
        doc = report_to_dict(report)
        assert doc["trials"][0]["r2"] is None  # strict JSON, no NaN token
        json.dumps(doc, allow_nan=False)

    def test_aggregates_recomputable_from_trials(self):
        data = make_variance_task(24, 8, 2, seed=16)
        report = run_protocol(
            data, "lr", grid=[{"lam": 1e-3}, {"lam": 1.0}],
            test_fraction=0.25, trials=4, k=3, seed=1,
        )
        agg = report.aggregates()
        for name in ("me", "rmse", "r2"):
            values = np.array([getattr(t.metrics, name) for t in report.trials])
            assert agg[name][0] == pytest.approx(values.mean(), abs=1e-12)
            assert agg[name][1] == pytest.approx(values.std(ddof=1), abs=1e-12)

    def test_deterministic_given_seed(self):
        data = make_variance_task(24, 8, 2, seed=17)
        kwargs = dict(test_fraction=0.25, trials=3, k=3, seed=2)
        a = run_protocol(data, "kdr", grid=[{"lam": 1e-3, "sigma": 1.5}], **kwargs)
        b = run_protocol(data, "kdr", grid=[{"lam": 1e-3, "sigma": 1.5}], **kwargs)
        assert report_to_dict(a) == report_to_dict(b)

    def test_trial_seeds_are_base_plus_index(self):
        data = make_variance_task(20, 6, 2, seed=18)
        report = run_protocol(
            data, "lr", grid=[{"lam": 1e-3}], test_fraction=0.2, trials=3, k=2, seed=40
        )
        assert [t.seed for t in report.trials] == [40, 41, 42]

    @pytest.mark.parametrize(
        "option,message",
        [
            ({"test_fraction": 1e308}, "test_fraction must be a real in (0, 1), got 1e+308"),
            ({"test_fraction": float("nan")}, "test_fraction must be a real in (0, 1), got nan"),
            ({"seed": -1}, "seed must be an integer ≥ 0, got -1"),
            # grid_options only shape the default grid, so with a grid they would be dropped
            ({"grid_options": {"lams": [-5.0, "x"]}},
             "give grid or grid_options, not both: grid_options only shape the default grid"),
        ],
        ids=["huge-test_fraction", "nan-test_fraction", "negative-seed", "grid-and-grid_options"],
    )
    def test_invalid_option_named(self, option, message):
        data = make_variance_task(12, 4, 2, seed=17)
        with pytest.raises(ValueError) as info:
            run_protocol(data, "lr", grid=[{"lam": 1e-3}], trials=1, k=2, **option)
        assert str(info.value) == message

    def test_insufficient_bags(self):
        data = make_variance_task(6, 4, 2, seed=19)
        with pytest.raises(ValueError, match="insufficient bags"):
            run_protocol(data, "lr", grid=[{"lam": 1e-3}], test_fraction=0.5, trials=1, k=5)

    def test_no_leakage_into_model_fitting(self, monkeypatch):
        # Spy on every normalizer fit, the first step of each CV fold fit and
        # of each refit: the bags it sees must never include that trial's
        # held-out test bags.
        import distreg.models as models

        data = make_variance_task(20, 6, 2, seed=20)
        trials, k, fraction, base_seed = 3, 3, 0.25, 7
        train_ids_by_seed = {}
        for t in range(trials):
            tr, _ = split_train_test(20, fraction, base_seed + t)
            train_ids_by_seed[base_seed + t] = {data.bags[i].id for i in tr}
        seen_by_fit = []
        real_norm = models.fit_normalizer

        def spy_norm(train):
            seen_by_fit.append(set(train.bag_ids))
            return real_norm(train)

        refits = []
        real_fit = evaluate.fit_model

        def spy_fit(kind, fit_data, hyper):
            refits.append(set(fit_data.bag_ids))
            return real_fit(kind, fit_data, hyper)

        monkeypatch.setattr(models, "fit_normalizer", spy_norm)
        monkeypatch.setattr(evaluate, "fit_model", spy_fit)
        run_protocol(
            data, "lr", grid=[{"lam": 1e-3}],
            test_fraction=fraction, trials=trials, k=k, seed=base_seed,
        )
        # per trial: one fit per CV fold, then the refit on the training split
        assert len(seen_by_fit) == trials * (k + 1)
        assert refits == [train_ids_by_seed[base_seed + t] for t in range(trials)]
        for t in range(trials):
            train_ids = train_ids_by_seed[base_seed + t]
            *fold_fits, refit = seen_by_fit[t * (k + 1) : (t + 1) * (k + 1)]
            assert refit == train_ids
            # each fold fit leaves out its own validation fold, and the left-out
            # folds partition the training split
            held_out = [train_ids - seen for seen in fold_fits]
            assert all(seen <= train_ids for seen in fold_fits)
            assert all(held_out) and sum(map(len, held_out)) == len(train_ids)
            assert set().union(*held_out) == train_ids

    def test_verbose_log_has_trial_timings(self, caplog):
        data = make_variance_task(20, 6, 2, seed=22)
        with caplog.at_level(logging.INFO, logger="distreg.evaluate"):
            run_protocol(data, "lr", grid=[{"lam": 1e-3}], test_fraction=0.25, trials=2, k=3)
        lines = [r.getMessage() for r in caplog.records if "trial" in r.getMessage()]
        assert len(lines) == 2
        for line in lines:
            assert re.search(r"grid_search=\d+\.\d{3}s fit=\d+\.\d{3}s predict=\d+\.\d{3}s", line)


class TestReportRendering:
    @staticmethod
    def small_report():
        data = make_variance_task(20, 6, 2, seed=21)
        return run_protocol(
            data, "lr", grid=[{"lam": 1e-3}], test_fraction=0.2, trials=2, k=3, seed=0
        )

    def test_table_has_scaled_columns(self):
        report = self.small_report()
        text = render_table([report])
        assert "ME x1000" in text and "RMSE x100" in text and "R2" in text
        assert "lr" in text
        assert "±" in text

    def test_csv_round_trips_full_precision(self):
        report = self.small_report()
        csv_text = reports_to_csv([report])
        header, row = csv_text.strip().split("\n")
        values = row.split(",")
        agg = report.aggregates()
        assert values[0] == "lr"
        assert float(values[3]) == agg["rmse"][0] * 100

    def test_dict_excludes_timings(self):
        report = self.small_report()
        doc = report_to_dict(report)
        assert "timings" not in doc
        assert all("timings" not in trial for trial in doc["trials"])
        assert doc["trials"][0]["chosen"] == {"lam": 1e-3}
