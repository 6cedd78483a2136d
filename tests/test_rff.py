"""Random Fourier feature sampling, mapping, and kernel approximation."""

import os
import select

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distreg
import distreg.rff as rff
from distreg import (
    Bag,
    BagDataset,
    RbfParams,
    bag_feature_matrix,
    bag_feature_sweep,
    bag_mean_features,
    bag_mean_kernel_entry,
    canonical_rows,
    feature_map,
    feature_matrix,
    mmd_permutation_test,
    rbf_kernel,
    sample_basis,
)
from conftest import with_workers


class TestSampleBasis:
    def test_deterministic(self):
        a = sample_basis(3, 16, 1.5, seed=42)
        b = sample_basis(3, 16, 1.5, seed=42)
        assert np.array_equal(a.weights, b.weights)

    def test_entry_variance_matches_sigma(self):
        sigma = 2.0
        basis = sample_basis(1, 100_000, sigma, seed=0)
        var = basis.weights.var()
        assert abs(var - sigma**-2) <= 0.02 * sigma**-2

    def test_large_sigma_concentrates_entries(self):
        sigma = 50.0
        basis = sample_basis(4, 5000, sigma, seed=1)
        assert basis.weights.std() <= 1.05 / sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_basis(0, 4, 1.0, 0)
        with pytest.raises(ValueError):
            sample_basis(2, 4, -1.0, 0)

    def test_shape_properties(self):
        basis = sample_basis(5, 7, 1.0, 0)
        assert basis.dim == 5
        assert basis.n_components == 7
        assert basis.feature_dim == 14


class TestFeatureMap:
    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        basis = sample_basis(3, 33, 0.8, seed=3)
        for _ in range(10):
            z = feature_map(rng.standard_normal(3), basis)
            assert abs(z @ z - 1.0) <= 1e-12

    def test_zero_input(self):
        basis = sample_basis(2, 8, 1.0, seed=4)
        z = feature_map(np.zeros(2), basis)
        np.testing.assert_allclose(z[0::2], 1.0 / np.sqrt(8), atol=1e-15)
        np.testing.assert_allclose(z[1::2], 0.0, atol=1e-15)

    def test_interleaved_layout(self):
        basis = sample_basis(2, 5, 1.0, seed=5)
        x = np.array([0.3, -0.7])
        proj = x @ basis.weights
        z = feature_map(x, basis)
        np.testing.assert_allclose(z[0::2] * np.sqrt(5), np.cos(proj), atol=1e-15)
        np.testing.assert_allclose(z[1::2] * np.sqrt(5), np.sin(proj), atol=1e-15)

    def test_dot_product_approximates_kernel(self):
        rng = np.random.default_rng(6)
        sigma = 1.3
        basis = sample_basis(3, 4096, sigma, seed=7)
        p = RbfParams(sigma)
        for _ in range(20):
            x, y = rng.standard_normal((2, 3))
            approx = feature_map(x, basis) @ feature_map(y, basis)
            assert abs(approx - rbf_kernel(x, y, p)) <= 0.05

    def test_dimension_mismatch(self):
        basis = sample_basis(3, 4, 1.0, seed=8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            feature_map(np.zeros(2), basis)

    def test_matrix_rows_match_single_maps(self):
        rng = np.random.default_rng(21)
        basis = sample_basis(3, 6, 1.0, seed=20)
        x = rng.standard_normal((5, 3))
        z = feature_matrix(x, basis)
        for i in range(5):
            # batched and single-row BLAS products differ in the last ulp
            np.testing.assert_allclose(z[i], feature_map(x[i], basis), atol=1e-15)


class TestBagMeanFeatures:
    def test_singleton_bag(self):
        rng = np.random.default_rng(9)
        basis = sample_basis(3, 12, 1.0, seed=10)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(
            bag_mean_features(Bag("a", x[None]), basis), feature_map(x, basis)
        )

    def test_identical_rows(self):
        basis = sample_basis(2, 9, 1.0, seed=11)
        row = np.array([0.4, -1.0])
        bag = Bag("a", np.tile(row, (7, 1)))
        np.testing.assert_allclose(
            bag_mean_features(bag, basis), feature_map(row, basis), atol=1e-15
        )

    def test_norm_at_most_one(self):
        rng = np.random.default_rng(12)
        basis = sample_basis(3, 64, 1.0, seed=13)
        for _ in range(20):
            bag = Bag("a", rng.standard_normal((int(rng.integers(1, 30)), 3)))
            assert np.linalg.norm(bag_mean_features(bag, basis)) <= 1.0 + 1e-12

    def test_dot_approximates_mean_kernel_entry(self):
        rng = np.random.default_rng(14)
        sigma = 1.1
        basis = sample_basis(2, 4096, sigma, seed=15)
        a = Bag("a", rng.standard_normal((5, 2)))
        b = Bag("b", rng.standard_normal((8, 2)))
        approx = bag_mean_features(a, basis) @ bag_mean_features(b, basis)
        exact = bag_mean_kernel_entry(a, b, RbfParams(sigma))
        assert abs(approx - exact) <= 0.05

    def test_chunked_mean_matches_direct(self, monkeypatch):
        import distreg.rff as rff

        rng = np.random.default_rng(16)
        bag = Bag("a", rng.standard_normal((50, 2)))
        basis = sample_basis(2, 16, 1.0, seed=17)
        direct = bag_mean_features(bag, basis)
        monkeypatch.setattr(rff, "_ROW_CHUNK", 7)
        chunked = rff.bag_mean_features(bag, basis)
        np.testing.assert_allclose(chunked, direct, atol=1e-14)

    def test_bag_feature_matrix_rows(self):
        rng = np.random.default_rng(18)
        bags = tuple(Bag(f"b{i}", rng.standard_normal((3, 2))) for i in range(4))
        data = BagDataset(bags, np.zeros(4))
        basis = sample_basis(2, 10, 1.0, seed=19)
        z = bag_feature_matrix(data, basis)
        assert z.shape == (4, 20)
        for i, bag in enumerate(bags):
            np.testing.assert_array_equal(z[i], bag_mean_features(bag, basis))


def reference_bag_means(data, basis, chunk):
    """Per-bag mean features computed directly: canonical rows, trig over
    batches of ``chunk`` rows, a plain mean for a single batch."""
    from distreg import canonical_rows

    rows = []
    for bag in data.bags:
        x = canonical_rows(bag.instances)
        if x.shape[0] <= chunk:
            rows.append(feature_matrix(x, basis).mean(axis=0))
            continue
        acc = np.zeros(basis.feature_dim)
        for i0 in range(0, x.shape[0], chunk):
            acc += feature_matrix(x[i0 : i0 + chunk], basis).sum(axis=0)
        rows.append(acc / x.shape[0])
    return np.array(rows)


class TestBagFeatureSweep:
    def test_first_level_is_bitwise_direct(self):
        import distreg.rff as rff

        rng = np.random.default_rng(20)
        sizes = (1, 5, rff._ROW_CHUNK + 77)
        data = BagDataset(
            tuple(Bag(f"b{i}", rng.standard_normal((n, 2))) for i, n in enumerate(sizes)),
            np.zeros(len(sizes)),
        )
        basis = sample_basis(2, 24, 1.7, seed=21)
        want = reference_bag_means(data, basis, rff._ROW_CHUNK)
        for n_halvings in (0, 3):
            np.testing.assert_array_equal(bag_feature_sweep(data, basis, n_halvings)[0], want)
        np.testing.assert_array_equal(bag_feature_matrix(data, basis), want)
        for i, bag in enumerate(data.bags):
            np.testing.assert_array_equal(bag_mean_features(bag, basis), want[i])

    @pytest.mark.parametrize("n_components", [128, 2048])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_halvings_match_direct_evaluation(self, n_components, chunk, monkeypatch):
        import distreg.rff as rff

        if chunk is not None:
            monkeypatch.setattr(rff, "_ROW_CHUNK", chunk)
        rng = np.random.default_rng(22)
        data = BagDataset(
            tuple(Bag(f"b{i}", rng.standard_normal((n, 3))) for i, n in enumerate((1, 9, 30))),
            np.zeros(3),
        )
        sigma = 2.5
        top = sample_basis(3, n_components, sigma, seed=23)
        sweep = bag_feature_sweep(data, top, 6)
        assert sweep.shape == (7, 3, 2 * n_components)
        for k in range(7):
            basis = sample_basis(3, n_components, sigma / 2**k, seed=23)
            # the basis at sigma/2^k is the same draw, scaled by exactly 2^k
            np.testing.assert_array_equal(basis.weights, top.weights * 2.0**k)
            direct = bag_feature_matrix(data, basis)
            assert np.max(np.abs(sweep[k] - direct)) <= 1e-14

    def test_validation(self):
        data = BagDataset((Bag("a", np.zeros((2, 2))),), np.zeros(1))
        with pytest.raises(ValueError, match="n_halvings"):
            bag_feature_sweep(data, sample_basis(2, 4, 1.0, seed=0), -1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bag_feature_sweep(data, sample_basis(3, 4, 1.0, seed=0), 2)


def _read_all(fd, size):
    chunks = []
    while size > 0 and (chunk := os.read(fd, size)):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


SPLIT = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestWorkerSplit:
    """``bag_feature_sweep`` splits the bags into one contiguous part per
    worker; every bag's means are bitwise those of a lone ``_sweep_means``
    call, whatever the worker count."""

    @SPLIT
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=8),
        large_at=st.integers(0, 8),
        chunk=st.integers(2, 5),
        workers=st.integers(1, 4),
        n_halvings=st.integers(0, 6),
        n_components=st.sampled_from([1, 3, 128]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_per_bag_reference(
        self, sizes, large_at, chunk, workers, n_halvings, n_components, seed
    ):
        sizes.insert(min(large_at, len(sizes)), 2 * chunk + 1)  # one bag over the chunk
        rng = np.random.default_rng(seed)
        data = BagDataset(
            tuple(Bag(f"b{i}", rng.standard_normal((n, 2))) for i, n in enumerate(sizes)),
            np.zeros(len(sizes)),
        )
        basis = sample_basis(2, n_components, 1.3, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rff, "_ROW_CHUNK", chunk)
            got = with_workers(workers, bag_feature_sweep, data, basis, n_halvings)
            for i, bag in enumerate(data.bags):
                x = canonical_rows(bag.instances)
                scratch = rff._scratch(min(chunk, x.shape[0]), basis)
                want = rff._sweep_means(x, basis, n_halvings, *scratch)
                assert np.array_equal(got[:, i], want)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_worker_error_reaches_caller(self, monkeypatch, workers):
        monkeypatch.setattr(distreg, "_workers", lambda: workers)
        rng = np.random.default_rng(24)
        data = BagDataset(
            tuple(Bag(f"b{i}", rng.standard_normal((3, 2))) for i in range(6)), np.zeros(6)
        )
        with pytest.raises(ValueError) as info:
            bag_feature_sweep(data, sample_basis(3, 4, 1.0, seed=0), 2)
        assert str(info.value) == "feature dimension mismatch: basis has d=3, input has d=2"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("work", ["sweep", "mmd"])
    def test_forked_child_gets_its_own_pool(self, monkeypatch, work):
        # a forked child has none of the parent's threads: each call in it
        # starts its own, and computes the parent's bytes
        monkeypatch.setattr(distreg, "_workers", lambda: 2)
        rng = np.random.default_rng(25)
        if work == "sweep":
            data = BagDataset(
                tuple(Bag(f"b{i}", rng.standard_normal((200, 2))) for i in range(6)), np.zeros(6)
            )
            basis = sample_basis(2, 512, 1.0, seed=1)

            def compute():
                return bag_feature_sweep(data, basis, 1)
        else:
            x, y = rng.standard_normal((300, 2)), rng.standard_normal((300, 2)) + 0.1

            def compute():
                r = mmd_permutation_test(x, y, RbfParams(1.0), n_permutations=100)
                return np.array([r.statistic, r.p_value, r.null_q95, r.null_q99])
        # parts long enough that each call starts its second thread
        want = compute()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            try:
                os.write(write_end, compute().tobytes())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 20)
            got = _read_all(read_end, want.nbytes) if ready else b""
        finally:
            os.close(read_end)
            if not ready:
                os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert got == want.tobytes()


def max_pair_error(basis, pairs, params):
    errs = [
        abs(feature_map(x, basis) @ feature_map(y, basis) - rbf_kernel(x, y, params))
        for x, y in pairs
    ]
    return max(errs)


class TestConvergenceRate:
    def test_error_ratio_tracks_inverse_sqrt(self):
        # Quadrupling the component count should halve the max approximation
        # error, give or take the max-statistic noise.
        rng = np.random.default_rng(20)
        sigma = 1.0
        params = RbfParams(sigma)
        pairs = [tuple(rng.standard_normal((2, 3))) for _ in range(100)]
        sizes = (64, 256, 1024, 4096)
        mean_err = {}
        for d in sizes:
            errs = [
                max_pair_error(sample_basis(3, d, sigma, seed=s), pairs, params)
                for s in range(20)
            ]
            mean_err[d] = float(np.mean(errs))
        for d in (64, 256, 1024):
            ratio = mean_err[d] / mean_err[4 * d]
            assert 1.5 <= ratio <= 3.0, (d, ratio, mean_err)
