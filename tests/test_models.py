"""Ridge solver, the six regressor families, invariances, and persistence."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distreg import (
    Bag,
    BagDataset,
    IllConditionedError,
    MODEL_KINDS,
    MultiSourceDataset,
    RbfParams,
    apply_normalizer,
    bag_gram,
    fit_model,
    fit_normalizer,
    load_model,
    make_mean_task,
    make_multisource_task,
    make_variance_task,
    predict_model,
    sample_basis,
    solve_ridge_dual,
    stack_multisource,
)
from distreg.evaluate import compute_metrics, split_train_test
from distreg.models import _JITTERS, _fit, _predict, _solve_spd
from conftest import HYPERS, oracle_krr, random_dataset


def random_psd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T / n


class TestSolveRidgeDual:
    def test_diagonal_system(self):
        sol = solve_ridge_dual(np.eye(3), np.array([2.0, 4.0, 6.0]), 1.0)
        np.testing.assert_allclose(sol.coefficients, [1.0, 2.0, 3.0], atol=1e-14)

    def test_matches_general_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            k = random_psd(rng, n)
            y = rng.standard_normal(n)
            lam = float(10.0 ** rng.uniform(-6, 0))
            got = solve_ridge_dual(k, y, lam).coefficients
            want = np.linalg.solve(k + lam * np.eye(n), y)
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_residual_bound(self):
        rng = np.random.default_rng(1)
        k = random_psd(rng, 30)
        y = rng.standard_normal(30)
        lam = 1e-6
        alpha = solve_ridge_dual(k, y, lam).coefficients
        residual = np.linalg.norm((k + lam * np.eye(30)) @ alpha - y)
        assert residual <= 1e-8 * np.linalg.norm(y)

    def test_huge_lambda_asymptotic(self):
        rng = np.random.default_rng(2)
        k = random_psd(rng, 8)
        y = rng.standard_normal(8)
        alpha = solve_ridge_dual(k, y, 1e12).coefficients
        assert np.max(np.abs(alpha - y / 1e12)) <= 1e-6 * np.max(np.abs(y / 1e12))

    def test_indefinite_matrix_raises_after_jitters(self):
        k = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(IllConditionedError, match="1e-06"):
            solve_ridge_dual(k, np.ones(2), 1e-10)

    def test_jitter_rescues_nearly_singular(self, caplog):
        # Exactly singular PSD matrix with a lambda at rounding scale still solves.
        k = np.ones((4, 4))
        with caplog.at_level(logging.INFO, logger="distreg.models"):
            x = _solve_spd(k, np.ones(4), 1e-300)
        assert np.all(np.isfinite(x))
        (record,) = [r for r in caplog.records if r.name == "distreg.models"]
        assert record.levelno == logging.INFO
        assert "jitter" in record.getMessage()
        assert "n=4" in record.getMessage() and "trace/n=1" in record.getMessage()

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            solve_ridge_dual(np.eye(2), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            solve_ridge_dual(np.eye(2), np.ones(2), -1.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 200),
        shape=st.sampled_from(["spd", "near-singular", "indefinite"]),
        lam=st.sampled_from([1e-300, 1e-8, 1e-3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solve_bitwise_scipy_cholesky(self, n, shape, lam, seed):
        # the ctypes LAPACK calls give scipy.linalg.cho_factor/cho_solve's bits
        import scipy.linalg

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n if shape == "spd" else 1))
        matrix = a @ a.T / n
        if shape == "indefinite":  # a negative diagonal entry no jitter can lift
            j = int(rng.integers(n))
            matrix[j, j] = -1.0 - np.trace(matrix)
        rhs = rng.standard_normal(n)

        def cho(m):
            factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
            return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

        try:
            got = _solve_spd(matrix, rhs, lam)  # first, so scipy's BLAS is on one thread
        except IllConditionedError:
            got = None
        diag_unit = np.trace(matrix) / n
        for eps in (0.0,) + _JITTERS:
            shifted = matrix.copy()
            shifted[np.diag_indices(n)] += lam + eps * diag_unit
            try:
                want = cho(shifted)
                break
            except np.linalg.LinAlgError:
                want = None
        assert (got is None) == (want is None) == (shape == "indefinite")
        if want is not None:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape,rhs", [((3, 2), 3), ((2, 3), 2), ((3, 3), 2), ((3, 3), 4)])
    def test_mismatched_shapes_rejected_before_lapack(self, shape, rhs):
        with pytest.raises(ValueError, match="need a square matrix"):
            _solve_spd(np.ones(shape), np.ones(rhs), 1.0)


class TestKdr:
    def test_singleton_reduction_matches_instance_krr(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            train = random_dataset(rng, int(rng.integers(5, 30)), singleton=True, dim=3)
            test = random_dataset(rng, 8, singleton=True, dim=3, prefix="t")
            sigma = float(rng.uniform(0.5, 2.0))
            lam = float(10.0 ** rng.uniform(-5, -1))
            model = fit_model("kdr", train, {"lam": lam, "sigma": sigma})
            got = predict_model(model, test)
            norm = fit_normalizer(train)
            x_tr = np.vstack([b.instances for b in apply_normalizer(train, norm).bags])
            x_te = np.vstack([b.instances for b in apply_normalizer(test, norm).bags])
            want = oracle_krr(x_tr, train.targets, x_te, sigma, lam)
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_single_training_bag_predicts_its_target(self):
        rng = np.random.default_rng(4)
        train = BagDataset((Bag("only", rng.standard_normal((4, 2))),), [7.5])
        model = _fit("kdr", train, {"lam": 1e-3, "sigma": 1.0})
        test = random_dataset(rng, 3, dim=2, prefix="t")
        np.testing.assert_allclose(_predict(model, test), 7.5, atol=1e-12)

    def test_interpolation_limit(self):
        # Bags far apart give a well-conditioned Gram; tiny lambda interpolates.
        rng = np.random.default_rng(5)
        bags = tuple(
            Bag(f"b{i}", 10.0 * i + 0.1 * rng.standard_normal((3, 2))) for i in range(6)
        )
        train = BagDataset(bags, rng.standard_normal(6))
        model = _fit("kdr", train, {"lam": 1e-10, "sigma": 1.0})
        fitted = _predict(model, train)
        assert np.linalg.norm(fitted - train.targets) <= 1e-6 * np.linalg.norm(train.targets)

    def test_duplicated_test_instances_predict_identically(self):
        rng = np.random.default_rng(6)
        train = random_dataset(rng, 6)
        model = _fit("kdr", train, {"lam": 1e-3, "sigma": 1.0})
        test = random_dataset(rng, 3, prefix="t")
        doubled = BagDataset(
            tuple(Bag(b.id, np.vstack([b.instances, b.instances])) for b in test.bags),
            test.targets,
        )
        assert np.max(np.abs(_predict(model, test) - _predict(model, doubled))) <= 1e-12

    def test_variance_task_r2(self):
        data = make_variance_task(40, 30, 3, seed=7)
        tr, te = split_train_test(40, 0.3, 0)
        train, test = data.subset(tr), data.subset(te)
        model = fit_model("kdr", train, {"lam": 1e-2, "sigma": 2.0})
        kdr_r2 = compute_metrics(test.targets, predict_model(model, test)).r2
        assert kdr_r2 > 0.9

    def test_variance_task_blinds_mean_baseline(self):
        # With a test set large enough to tame noise R2, the mean-summary
        # baseline has nothing to work with.
        data = make_variance_task(120, 50, 3, seed=7)
        tr, te = split_train_test(120, 0.33, 0)
        train, test = data.subset(tr), data.subset(te)
        baseline = fit_model("lr", train, {"lam": 1e-6})
        lr_r2 = compute_metrics(test.targets, predict_model(baseline, test)).r2
        assert lr_r2 <= 0.1
        model = fit_model("kdr", train, {"lam": 1e-2, "sigma": 2.0})
        kdr_r2 = compute_metrics(test.targets, predict_model(model, test)).r2
        assert kdr_r2 > 0.9

    def test_dimension_mismatch_message(self):
        rng = np.random.default_rng(8)
        model = _fit("kdr", random_dataset(rng, 4, dim=3), {"lam": 1e-3, "sigma": 1.0})
        with pytest.raises(ValueError, match="d=3.*d=2"):
            _predict(model, random_dataset(rng, 2, dim=2, prefix="t"))


class TestRdr:
    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        train = random_dataset(rng, 8)
        hyper = {"lam": 1e-3, "sigma": 1.0, "n_features": 32, "rff_seed": 5}
        w1 = _fit("rdr", train, hyper).solution.coefficients
        w2 = _fit("rdr", train, hyper).solution.coefficients
        assert np.array_equal(w1, w2)

    def test_single_training_bag(self):
        rng = np.random.default_rng(10)
        train = BagDataset((Bag("only", rng.standard_normal((3, 2))),), [-2.5])
        model = _fit("rdr", train, {"lam": 1e-3, "sigma": 1.0, "n_features": 16, "rff_seed": 0})
        test = random_dataset(rng, 4, dim=2, prefix="t")
        np.testing.assert_allclose(_predict(model, test), -2.5, atol=1e-12)

    def test_primal_and_dual_routes_agree(self):
        rng = np.random.default_rng(11)
        train = random_dataset(rng, 20, max_instances=4, dim=2)
        lam = 1e-3
        from distreg import bag_feature_matrix

        # 8 components -> 16 features < 20 bags (primal route);
        # 64 components -> 128 features > 20 bags (dual identity route).
        for n_components in (8, 64):
            basis = sample_basis(2, n_components, 1.0, seed=n_components)
            hyper = {"lam": lam, "sigma": 1.0, "n_features": n_components, "rff_seed": n_components}
            model = _fit("rdr", train, hyper)
            z = bag_feature_matrix(train, basis)
            yc = train.targets - train.targets.mean()
            normal = np.linalg.solve(z.T @ z + lam * np.eye(z.shape[1]), z.T @ yc)
            assert np.max(np.abs(model.solution.coefficients - normal)) <= 1e-8

    def test_fitted_values_consistency(self):
        rng = np.random.default_rng(12)
        train = random_dataset(rng, 10)
        model = _fit("rdr", train, {"lam": 1e-2, "sigma": 1.2, "n_features": 24, "rff_seed": 3})
        again = _predict(model, train)
        once = _predict(model, train)
        assert np.array_equal(again, once)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(13)
        train = random_dataset(rng, 6)
        model = _fit("rdr", train, {"lam": 1e-3, "sigma": 1.0, "n_features": 32, "rff_seed": 4})
        test = random_dataset(rng, 3, prefix="t")
        doubled = BagDataset(
            tuple(Bag(b.id, np.vstack([b.instances, b.instances])) for b in test.bags),
            test.targets,
        )
        assert np.max(np.abs(_predict(model, test) - _predict(model, doubled))) <= 1e-12

    def test_agreement_with_kdr_grows_with_components(self):
        data = make_variance_task(40, 20, 3, seed=14)
        tr, te = split_train_test(40, 0.3, 1)
        train, test = data.subset(tr), data.subset(te)
        sigma, lam = 2.0, 1e-2
        p_kdr = predict_model(fit_model("kdr", train, {"lam": lam, "sigma": sigma}), test)
        mean_abs = {}
        for d in (64, 256, 1024, 4096):
            diffs = []
            for seed in range(10):
                rdr = fit_model(
                    "rdr", train, {"lam": lam, "sigma": sigma, "n_features": d, "rff_seed": seed}
                )
                diffs.append(np.mean(np.abs(predict_model(rdr, test) - p_kdr)))
            mean_abs[d] = float(np.mean(diffs))
        assert mean_abs[64] > mean_abs[256] > mean_abs[1024] > mean_abs[4096]


class TestMdr:
    def test_single_source_equals_kdr(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 8)
        ms = MultiSourceDataset((data,))
        mdr = fit_model("mdr", ms, {"lam": 1e-3, "sigmas": [1.1]})
        kdr = fit_model("kdr", data, {"lam": 1e-3, "sigma": 1.1})
        assert np.max(np.abs(mdr.solution.coefficients - kdr.solution.coefficients)) <= 1e-12
        test = random_dataset(rng, 4, prefix="t")
        got = predict_model(mdr, MultiSourceDataset((test,)))
        want = predict_model(kdr, test)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_identical_sources_match_doubled_gram(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 7)
        ms = MultiSourceDataset((data, data))
        p = RbfParams(1.3)
        lam = 1e-3
        mdr = _fit("mdr", ms, {"lam": lam, "sigmas": [p.sigma, p.sigma]})
        doubled = 2.0 * bag_gram(data, p).values
        yc = data.targets - data.targets.mean()
        want_alpha = np.linalg.solve(doubled + lam * np.eye(7), yc)
        assert np.max(np.abs(mdr.solution.coefficients - want_alpha)) <= 1e-10

    def test_combines_both_sources(self):
        ms = make_multisource_task(60, seed=17)
        tr, te = split_train_test(60, 0.3, 2)
        train, test = ms.subset(tr), ms.subset(te)
        sigmas = [2.0, 1.5]
        lam = 1e-2
        r2_mdr = compute_metrics(
            test.targets, predict_model(fit_model("mdr", train, {"lam": lam, "sigmas": sigmas}), test)
        ).r2
        singles = []
        for f in range(2):
            m = fit_model("kdr", train.sources[f], {"lam": lam, "sigma": sigmas[f]})
            singles.append(compute_metrics(test.targets, predict_model(m, test.sources[f])).r2)
        assert r2_mdr >= max(singles)

    def test_source_count_mismatch(self):
        rng = np.random.default_rng(18)
        ms = MultiSourceDataset((random_dataset(rng, 5),))
        with pytest.raises(ValueError, match="one RbfParams per source"):
            _fit("mdr", ms, {"lam": 1e-3, "sigmas": [1.0, 2.0]})


class TestBaselines:
    def test_lr_recovers_exact_linear_model(self):
        data = make_mean_task(50, 20, 4, noise=0.0, seed=19)
        model = fit_model("lr", data, {"lam": 1e-8})
        preds = predict_model(model, data)
        metrics = compute_metrics(data.targets, preds)
        assert abs(metrics.r2 - 1.0) <= 1e-10
        # undo normalization and feature centering to read off slope/offset
        rng = np.random.default_rng(19)
        coef = rng.standard_normal(4)  # same draw as the generator
        norm = model.normalizers[0]
        w = model.solution.coefficients
        a_eff = w / norm.scale
        c_eff = model.solution.intercept - a_eff @ norm.mean - w @ model.feature_means
        assert np.max(np.abs(a_eff - coef)) <= 1e-6
        assert abs(c_eff - 3.0) <= 1e-6

    @pytest.mark.parametrize("kind", ["lr", "stacked-lr"])
    def test_lr_lambda_floor_logged(self, caplog, kind):
        # a lambda below the floor is solved at the floor, and says so
        data = make_mean_task(20, 5, 3, seed=1)
        if kind == "stacked-lr":
            data = MultiSourceDataset((data, data))
        with caplog.at_level(logging.INFO, logger="distreg.models"):
            floored = fit_model(kind, data, {"lam": 1e-12})
        (record,) = [r for r in caplog.records if r.name == "distreg.models"]
        assert record.levelno == logging.INFO
        assert "1e-12" in record.getMessage() and "1e-08" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="distreg.models"):
            at_floor = fit_model(kind, data, {"lam": 1e-8})
        assert not [r for r in caplog.records if r.name == "distreg.models"]
        assert np.array_equal(floored.solution.coefficients, at_floor.solution.coefficients)
        assert floored.solution.lam == 1e-12

    def test_kr_equals_kdr_on_singletons(self):
        rng = np.random.default_rng(20)
        train = random_dataset(rng, 12, singleton=True)
        test = random_dataset(rng, 5, singleton=True, prefix="t")
        sigma, lam = 1.0, 1e-3
        kr = fit_model("kr", train, {"lam": lam, "sigma": sigma})
        kdr = fit_model("kdr", train, {"lam": lam, "sigma": sigma})
        diff = predict_model(kr, test) - predict_model(kdr, test)
        assert np.max(np.abs(diff)) <= 1e-10

    def test_kr_needs_params(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError, match="needs hyperparameter 'sigma'"):
            _fit("kr", random_dataset(rng, 4), {"lam": 1e-3})

    def test_predict_dimension_mismatch(self):
        rng = np.random.default_rng(22)
        model = _fit("lr", random_dataset(rng, 4, dim=3), {"lam": 1e-3})
        with pytest.raises(ValueError, match="d=3.*d=2"):
            _predict(model, random_dataset(rng, 2, dim=2, prefix="t"))


class TestStacked:
    def test_single_source_reduces_to_base_model(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, 9)
        ms = MultiSourceDataset((data,))
        test = random_dataset(rng, 4, prefix="t")
        ms_test = MultiSourceDataset((test,))
        cases = [
            ("stacked-lr", "lr", {"lam": 1e-4}),
            ("stacked-kr", "kr", {"lam": 1e-3, "sigma": 1.2}),
            ("stacked-kdr", "kdr", {"lam": 1e-3, "sigma": 1.2}),
            ("stacked-rdr", "rdr", {"lam": 1e-3, "sigma": 1.2, "n_features": 32, "rff_seed": 0}),
        ]
        for stacked_kind, base_kind, hyper in cases:
            stacked = predict_model(fit_model(stacked_kind, ms, hyper), ms_test)
            plain = predict_model(fit_model(base_kind, data, hyper), test)
            assert np.max(np.abs(stacked - plain)) <= 1e-10, stacked_kind

    def test_constant_second_source_is_inert_for_mean_stacking(self):
        # A source that never varies normalizes to all zeros and cannot move
        # lr/kr predictions built on concatenated means.
        rng = np.random.default_rng(24)
        first = random_dataset(rng, 10, dim=3)
        const_bags = tuple(
            Bag(b.id, np.full((int(rng.integers(1, 4)), 2), 0.7)) for b in first.bags
        )
        second = BagDataset(const_bags, first.targets)
        ms = MultiSourceDataset((first, second))
        test_first = random_dataset(rng, 4, dim=3, prefix="t")
        test_second = BagDataset(
            tuple(Bag(b.id, np.full((2, 2), 0.7)) for b in test_first.bags),
            test_first.targets,
        )
        ms_test = MultiSourceDataset((test_first, test_second))
        for kind, base, hyper in [
            ("stacked-lr", "lr", {"lam": 1e-4}),
            ("stacked-kr", "kr", {"lam": 1e-3, "sigma": 1.5}),
        ]:
            stacked = predict_model(fit_model(kind, ms, hyper), ms_test)
            single = predict_model(fit_model(base, first, hyper), test_first)
            assert np.max(np.abs(stacked - single)) <= 1e-8, kind

    def test_instance_stacking_completes_with_other_source_means(self):
        rng = np.random.default_rng(25)
        ms = make_multisource_task(5, seed=25)
        stacked = stack_multisource(ms, "instances")
        d1, d2 = ms.dims
        for b in range(ms.n_bags):
            bag = stacked.bags[b]
            n1 = ms.sources[0].bags[b].n_instances
            n2 = ms.sources[1].bags[b].n_instances
            assert bag.n_instances == n1 + n2
            assert bag.dim == d1 + d2
            m1 = ms.sources[0].bags[b].instances.mean(axis=0)
            m2 = ms.sources[1].bags[b].instances.mean(axis=0)
            np.testing.assert_array_equal(bag.instances[:n1, :d1], ms.sources[0].bags[b].instances)
            np.testing.assert_allclose(bag.instances[:n1, d1:], np.tile(m2, (n1, 1)))
            np.testing.assert_allclose(bag.instances[n1:, :d1], np.tile(m1, (n2, 1)))
            np.testing.assert_array_equal(bag.instances[n1:, d1:], ms.sources[1].bags[b].instances)

    def test_means_stacking_shape(self):
        ms = make_multisource_task(4, seed=26)
        stacked = stack_multisource(ms, "means")
        assert all(b.n_instances == 1 for b in stacked.bags)
        assert stacked.dim == sum(ms.dims)


def _mutate_permute(data, rng):
    if isinstance(data, MultiSourceDataset):
        return MultiSourceDataset(tuple(_mutate_permute(s, rng) for s in data.sources))
    bags = tuple(Bag(b.id, b.instances[rng.permutation(b.n_instances)]) for b in data.bags)
    return BagDataset(bags, data.targets)


def _mutate_duplicate(data, rng):
    if isinstance(data, MultiSourceDataset):
        return MultiSourceDataset(tuple(_mutate_duplicate(s, rng) for s in data.sources))
    bags = tuple(Bag(b.id, np.vstack([b.instances, b.instances])) for b in data.bags)
    return BagDataset(bags, data.targets)


def _shift_targets(data, c):
    if isinstance(data, MultiSourceDataset):
        return MultiSourceDataset(tuple(_shift_targets(s, c) for s in data.sources))
    return BagDataset(data.bags, data.targets + c)


def make_task(kind, rng, n_bags=6, prefix="b"):
    if kind in ("lr", "kr", "kdr", "rdr"):
        return random_dataset(rng, n_bags, max_instances=4, dim=3, prefix=prefix)
    one = random_dataset(rng, n_bags, max_instances=4, dim=3, prefix=prefix)
    two = BagDataset(
        tuple(Bag(b.id, rng.standard_normal((int(rng.integers(1, 4)), 2))) for b in one.bags),
        one.targets,
    )
    return MultiSourceDataset((one, two))


class TestModelInvariants:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_target_shift_equivariance(self, kind):
        rng = np.random.default_rng(27)
        train = make_task(kind, rng)
        test = make_task(kind, rng, n_bags=3, prefix="t")
        base = predict_model(fit_model(kind, train, HYPERS[kind]), test)
        shifted = predict_model(fit_model(kind, _shift_targets(train, 5.0), HYPERS[kind]), test)
        assert np.max(np.abs(shifted - (base + 5.0))) <= 1e-10

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bag_permutation_invariance(self, kind):
        rng = np.random.default_rng(28)
        train = make_task(kind, rng)
        test = make_task(kind, rng, n_bags=3, prefix="t")
        model = fit_model(kind, train, HYPERS[kind])
        base = predict_model(model, test)
        permuted_model = fit_model(kind, _mutate_permute(train, rng), HYPERS[kind])
        assert np.max(np.abs(predict_model(permuted_model, test) - base)) <= 1e-12
        assert np.max(np.abs(predict_model(model, _mutate_permute(test, rng)) - base)) <= 1e-12

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_instance_duplication_invariance(self, kind):
        rng = np.random.default_rng(29)
        train = make_task(kind, rng)
        test = make_task(kind, rng, n_bags=3, prefix="t")
        model = fit_model(kind, train, HYPERS[kind])
        base = predict_model(model, test)
        assert np.max(np.abs(predict_model(model, _mutate_duplicate(test, rng)) - base)) <= 1e-12

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fit_predict_deterministic(self, kind):
        rng1 = np.random.default_rng(30)
        rng2 = np.random.default_rng(30)
        train1, test1 = make_task(kind, rng1), make_task(kind, rng1, 3, "t")
        train2, test2 = make_task(kind, rng2), make_task(kind, rng2, 3, "t")
        p1 = predict_model(fit_model(kind, train1, HYPERS[kind]), test1)
        p2 = predict_model(fit_model(kind, train2, HYPERS[kind]), test2)
        assert np.array_equal(p1, p2)


class TestPersistence:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_reproduces_predictions(self, kind, tmp_path):
        rng = np.random.default_rng(31)
        train = make_task(kind, rng)
        test = make_task(kind, rng, n_bags=3, prefix="t")
        model = fit_model(kind, train, HYPERS[kind])
        want = predict_model(model, test)
        path = tmp_path / "model.json"
        from distreg import save_model

        save_model(model, path)
        got = predict_model(load_model(path), test)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:1: not valid JSON: Expecting property name enclosed in double quotes (column 2)"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a distreg-model"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,edit,field",
        [
            ("kdr", lambda doc: doc.pop("solution"), "missing field 'solution'"),
            ("kdr", lambda doc: doc.update(kind="xyz"), "field 'kind' is 'xyz'"),
            ("lr", lambda doc: doc["solution"].pop("lam"), "malformed field 'solution'"),
            ("rdr", lambda doc: doc.update(basis=None), "field 'basis' is null"),
            ("mdr", lambda doc: doc["kernel_params"].pop(), "field 'kernel_params' holds 1"),
            (
                "kdr",
                lambda doc: doc["solution"].update(
                    coefficients={"shape": [1], "data": "AAAAAAAA8D8="}
                ),
                "field 'solution' holds 1 coefficients, but field 'train_bag_data' implies",
            ),
        ],
    )
    def test_invalid_fields_named(self, kind, edit, field, tmp_path):
        import json

        from distreg import save_model

        rng = np.random.default_rng(36)
        path = tmp_path / "model.json"
        save_model(fit_model(kind, make_task(kind, rng), HYPERS[kind]), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"model file {path}: {field}")):
            load_model(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(32)
        train = make_task("kdr", rng)
        model = fit_model("kdr", train, HYPERS["kdr"])
        from distreg import save_model

        save_model(model, tmp_path / "a.json")
        save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestFitModelValidation:
    def test_unknown_kind(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError, match="unknown model kind"):
            fit_model("boost", random_dataset(rng, 3), {"lam": 1e-3})

    def test_wrong_data_type(self):
        rng = np.random.default_rng(34)
        data = random_dataset(rng, 3)
        with pytest.raises(TypeError):
            fit_model("mdr", data, {"lam": 1e-3, "sigmas": [1.0]})
        with pytest.raises(TypeError):
            fit_model("kdr", MultiSourceDataset((data,)), {"lam": 1e-3, "sigma": 1.0})

    @pytest.mark.parametrize("kind", ["lr", "kdr", "rdr"])
    @pytest.mark.parametrize(
        "targets,cause",
        [([1.2e308, 1.2e308, 0.0], "mean overflows"), ([1.7e308, -1.7e308, -1.7e308], "centred values overflow")],
        ids=["mean", "centred"],
    )
    def test_targets_that_cannot_be_centred_named(self, kind, targets, cause):
        # finite targets: no numpy warning (the suite makes it an error)
        rng = np.random.default_rng(36)
        data = BagDataset(tuple(Bag(f"b{i}", rng.standard_normal((2, 2))) for i in range(3)), np.array(targets))
        with pytest.raises(ValueError, match=f"^targets too large: their {cause}$"):
            fit_model(kind, data, HYPERS[kind])

    def test_missing_hyper(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ValueError, match="needs hyperparameter 'sigma'"):
            fit_model("kdr", random_dataset(rng, 3), {"lam": 1e-3})

    @pytest.mark.parametrize(
        "kind,hyper,message",
        [
            ("kdr", {"lam": 1e-3, "sigma": 1.0, "n_features": 8},
             "model kind 'kdr' has no hyperparameter 'n_features'"),
            ("kdr", {"lam": 1e-3, "sigma": np.array([1.0])},
             "sigma must be positive and finite, got array([1.])"),
            ("rdr", {"lam": 1e-3, "sigma": 1.0, "n_features": np.int64(0)},
             "n_features must be an integer ≥ 1, got np.int64(0)"),
            ("rdr", {"lam": 1e-3, "sigma": 1.0, "n_features": 8, "rff_seed": 1.0},
             "rff_seed must be an integer ≥ 0, got 1.0"),
        ],
        ids=["unknown-key", "array-sigma", "zero-n_features", "float-rff_seed"],
    )
    def test_invalid_hyper_named(self, kind, hyper, message):
        rng = np.random.default_rng(37)
        given = dict(hyper)
        with pytest.raises(ValueError) as info:
            fit_model(kind, random_dataset(rng, 4), hyper)
        assert str(info.value) == message
        assert hyper.keys() == given.keys()

    def test_checked_before_any_work(self, monkeypatch):
        # kind, dataset type, point, then normalization: a rejected call
        # fits no normalizer and stacks no sources
        from distreg import models

        calls = []

        def spy(name):
            real = getattr(models, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("fit_normalizer", "stack_multisource"):
            monkeypatch.setattr(models, name, spy(name))
        ms = make_multisource_task(12)
        with pytest.raises(ValueError, match="model kind 'stacked-kdr' needs hyperparameter 'sigma'"):
            fit_model("stacked-kdr", ms, {"lam": 1e-3})
        with pytest.raises(TypeError, match="model kind 'kdr' needs a single-source BagDataset"):
            fit_model("kdr", ms, {"lam": -1.0})
        assert calls == []

    def test_numpy_hyperparameters_accepted(self):
        rng = np.random.default_rng(38)
        data = random_dataset(rng, 5)
        want = fit_model("rdr", data, {"lam": 1e-3, "sigma": 1.0, "n_features": 8, "rff_seed": 2})
        got = fit_model(
            "rdr", data,
            {"lam": np.float64(1e-3), "sigma": np.float32(1.0), "n_features": np.int64(8), "rff_seed": np.uint8(2)},
        )
        assert np.array_equal(got.solution.coefficients, want.solution.coefficients)
        assert got.basis.seed == 2 and type(got.basis.seed) is int

    def test_stacked_needs_basis_dimension(self):
        ms = make_multisource_task(6, seed=36)
        with pytest.raises(ValueError, match="stacked-rdr' needs hyperparameter 'sigma'"):
            _fit("stacked-rdr", ms, {"lam": 1e-3})
