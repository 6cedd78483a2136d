"""Kernel evaluation, bag Gram assembly, and MMD against independent oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import distreg.kernels as kernels
from distreg import (
    Bag,
    BagDataset,
    BagGram,
    MultiSourceDataset,
    RbfParams,
    bag_gram,
    bag_mean_kernel_entry,
    cross_bag_gram,
    cross_gram,
    median_heuristic,
    mmd_permutation_test,
    mmd_squared,
    multisource_bag_gram,
    rbf_kernel,
)
from conftest import (
    oracle_bag_gram,
    oracle_cross_bag_gram,
    oracle_mean_entry,
    oracle_rbf,
    random_dataset,
    with_workers,
)


class TestRbfKernel:
    def test_identity(self):
        x = np.array([0.3, -1.2, 4.0])
        assert rbf_kernel(x, x, RbfParams(0.7)) == 1.0

    def test_analytic_point(self):
        sigma = 1.7
        assert rbf_kernel([0.0], [sigma * np.sqrt(2.0)], RbfParams(sigma)) == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.standard_normal((2, 5))
            sigma = float(rng.uniform(0.3, 3.0))
            assert rbf_kernel(x, y, RbfParams(sigma)) == pytest.approx(
                oracle_rbf(x, y, sigma), abs=1e-14
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rbf_kernel([1.0], [1.0, 2.0], RbfParams(1.0))

    def test_tiny_sigma_gives_zero_without_warning(self):
        # the distance times 1 / (2 sigma^2) overflows to -inf, whose exp is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rbf_kernel([0.0, 0.0], [1e5, 1e5], RbfParams(1e-150)) == 0.0

    def test_overflowing_distance_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x and x_prime are too large: their squared distances overflow"):
                rbf_kernel([1e200], [-1e200], RbfParams(1.0))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            RbfParams(0.0)
        with pytest.raises(ValueError):
            RbfParams(float("inf"))

    def test_gamma_mapping(self):
        assert RbfParams(2.0).gamma == pytest.approx(1.0 / 8.0)


class TestCrossGram:
    def test_single_identical_row(self):
        a = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(cross_gram(a, a, RbfParams(1.0)), [[1.0]])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((9, 3))
        sigma = 0.9
        got = cross_gram(a, b, RbfParams(sigma))
        want = np.array([[oracle_rbf(x, y, sigma) for y in b] for x in a])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal((5, 2))
        p = RbfParams(1.3)
        assert np.max(np.abs(cross_gram(a, b, p) - cross_gram(b, a, p).T)) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cross_gram(np.ones((2, 2)), np.ones((2, 3)), RbfParams(1.0))

    def test_tiling_matches_unblocked(self, monkeypatch):
        import distreg.kernels as kernels

        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((23, 2))
        p = RbfParams(0.8)
        full = cross_gram(a, b, p)
        monkeypatch.setattr(kernels, "TILE", 7)
        tiled = kernels.cross_gram(a, b, p)
        assert np.max(np.abs(full - tiled)) <= 1e-15

    def test_one_tile_alive_at_a_time(self, monkeypatch):
        # besides the output, cross_gram's scratch is one distance band per
        # thread of at most a tile: no tile's buffers are held over into the
        # next (5.3 tiles at the peak when they were, which also slowed the
        # permutation test by page faults)
        tile = 64
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((tile, 3)), rng.standard_normal((10 * tile, 3))
        peak = traced_peak(cross_gram, a, b, RbfParams(1.0))
        assert peak < 8 * a.shape[0] * b.shape[0] + 4 * 8 * tile * tile


class TestBagMeanKernel:
    def test_singleton_bags_reduce_to_kernel(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 4))
        p = RbfParams(1.1)
        entry = bag_mean_kernel_entry(Bag("a", x[None]), Bag("b", y[None]), p)
        assert entry == pytest.approx(rbf_kernel(x, y, p), abs=1e-15)

    def test_identical_rows_give_one(self):
        bag = Bag("a", np.tile([0.5, -2.0], (6, 1)))
        assert bag_mean_kernel_entry(bag, bag, RbfParams(2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        a = Bag("a", rng.standard_normal((3, 2)))
        b = Bag("b", rng.standard_normal((4, 2)))
        sigma = 1.4
        got = bag_mean_kernel_entry(a, b, RbfParams(sigma))
        assert got == pytest.approx(oracle_mean_entry(a.instances, b.instances, sigma), abs=1e-12)


class TestBagGram:
    def test_singleton_dataset_equals_instance_gram(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, 10, singleton=True, dim=3)
        p = RbfParams(1.2)
        pooled = np.vstack([b.instances for b in data.bags])
        got = bag_gram(data, p).values
        want = cross_gram(pooled, pooled, p)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_single_bag(self):
        data = BagDataset((Bag("a", np.random.default_rng(1).standard_normal((5, 2))),), [0.0])
        values = bag_gram(data, RbfParams(1.0)).values
        assert values.shape == (1, 1)
        assert 0.0 < values[0, 0] <= 1.0

    def test_psd_and_entry_range(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            data = random_dataset(rng, int(rng.integers(2, 12)), max_instances=7, dim=3)
            values = bag_gram(data, RbfParams(float(rng.uniform(0.4, 2.5)))).values
            assert np.all(values > 0.0) and np.all(values <= 1.0)
            eig = np.linalg.eigvalsh(values)
            assert eig.min() >= -1e-8 * eig.max()

    def test_symmetry_exact(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 9, max_instances=5)
        values = bag_gram(data, RbfParams(1.0)).values
        assert np.array_equal(values, values.T)

    def test_diagonal_one_iff_identical_rows(self):
        rng = np.random.default_rng(12)
        spread = Bag("spread", rng.standard_normal((4, 2)))
        flat = Bag("flat", np.tile([1.0, 2.0], (3, 1)))
        data = BagDataset((spread, flat), [0.0, 1.0])
        diag = np.diag(bag_gram(data, RbfParams(1.0)).values)
        assert diag[0] < 1.0
        assert diag[1] == pytest.approx(1.0, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 6, max_instances=6)
        p = RbfParams(0.9)
        base = bag_gram(data, p).values
        shuffled_bags = tuple(
            Bag(b.id, b.instances[rng.permutation(b.n_instances)]) for b in data.bags
        )
        shuffled = bag_gram(BagDataset(shuffled_bags, data.targets), p).values
        assert np.max(np.abs(base - shuffled)) <= 1e-12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, 5, max_instances=4)
        p = RbfParams(1.1)
        base = bag_gram(data, p).values
        doubled_bags = tuple(
            Bag(b.id, np.vstack([b.instances, b.instances])) for b in data.bags
        )
        doubled = bag_gram(BagDataset(doubled_bags, data.targets), p).values
        assert np.max(np.abs(base - doubled)) <= 1e-12

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            BagGram(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_chunked_matches_per_pair(self, monkeypatch):
        # Force tiny chunks: bags larger than TILE are cut into pieces and the
        # rest pack into several chunks.
        import distreg.kernels as kernels

        rng = np.random.default_rng(15)
        bags = tuple(
            Bag(f"b{i}", rng.standard_normal((n, 2)))
            for i, n in enumerate([5, 1, 9, 3, 2, 7])
        )
        data = BagDataset(bags, np.zeros(6))
        p = RbfParams(1.0)
        full = bag_gram(data, p).values
        monkeypatch.setattr(kernels, "TILE", 4)
        tiny = kernels.bag_gram(data, p).values
        assert np.max(np.abs(full - tiny)) <= 1e-12
        want = oracle_bag_gram(data, 1.0)
        assert np.max(np.abs(full - want)) <= 1e-12


class TestSigmaSweep:
    """Every gamma of one call shares each tile's squared distances, and each
    swept Gram equals the one-sigma call bit for bit."""

    @staticmethod
    def ragged(rng, sizes, prefix="b"):
        bags = tuple(
            Bag(f"{prefix}{i}", rng.standard_normal((n, 2))) for i, n in enumerate(sizes)
        )
        return BagDataset(bags, np.zeros(len(sizes)))

    @pytest.mark.parametrize("tile", [4, 1024])
    def test_swept_grams_equal_per_sigma_calls(self, monkeypatch, tile):
        # with TILE 4, bags of 5, 7 and 9 rows are cut into pieces and the
        # rest pack into several chunks
        import distreg.kernels as kernels

        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(41)
        train = self.ragged(rng, [5, 1, 9, 3, 2, 4, 1, 7])
        test = self.ragged(rng, [2, 6, 1, 3, 4], prefix="t")
        sigmas = [0.3, 0.75, 1.0, 2.4, 7.0]
        grams = kernels._grams([(train, None, [RbfParams(s).gamma for s in sigmas])])[0]
        crosses = kernels._grams([(test, train, [RbfParams(s).gamma for s in sigmas])])[0]
        for sigma, gram, cross in zip(sigmas, grams, crosses):
            assert np.array_equal(gram, kernels.bag_gram(train, RbfParams(sigma)).values)
            assert np.array_equal(cross, kernels.cross_bag_gram(test, train, RbfParams(sigma)))

    def test_tile_matches_direct_formula(self):
        # cross_gram's two-buffer tile is bitwise the one-expression form
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal((37, 3)), rng.standard_normal((29, 3))
        a_sq, b_sq = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
        for sigma in (2.2, 0.75, 0.35):
            d2 = a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
            np.maximum(d2, 0.0, out=d2)
            d2 *= -RbfParams(sigma).gamma
            assert np.array_equal(cross_gram(a, b, RbfParams(sigma)), np.exp(d2))

    @staticmethod
    def whole_tile_pair_sums(out, ca, cb, gammas, diagonal, mirror, *scratch):
        """Reference form of ``kernels._add_pair_sums``: scale and ``exp``
        over the whole tile at each gamma, then two ``reduceat`` passes,
        whose block is added straight into the output, and its transpose too
        on an off-diagonal chunk pair of a symmetric Gram. ``_grams`` calls
        it for the chunk pairs of each pair of chunk groups in chunk-pair
        order, as a serial loop would."""
        b_rows = cb.rows.copy() if cb is ca else cb.rows
        d2 = np.add.outer(ca.sq, cb.sq)
        buf = ca.rows @ b_rows.T
        buf *= 2.0
        d2 -= buf
        np.maximum(d2, 0.0, out=d2)
        blocks = []
        for gamma in gammas:
            np.multiply(d2, -gamma, out=buf)
            tile = np.exp(buf, out=buf)
            blocks.append(np.add.reduceat(np.add.reduceat(tile, ca.starts, axis=0), cb.starts, axis=1))
        blocks = np.stack(blocks)
        out[:, ca.bags, cb.bags] += blocks
        if mirror:
            out[:, cb.bags, ca.bags] += blocks.transpose(0, 2, 1)

    @pytest.mark.parametrize(
        "tile,sizes,test_sizes",
        # every set has bags larger than TILE, cut into pieces
        [
            (4, [5, 1, 9, 3, 2, 4, 1, 7], [2, 6, 1, 3, 4]),
            (64, [70, 1, 150, 30, 2, 64, 13, 90, 5], [3, 65, 20, 130]),
            (1024, [1100, 1, 40, 1500, 300, 5, 700], [3, 1030, 20]),
        ],
        ids=["4", "64", "1024"],
    )
    def test_fused_sums_equal_whole_tile_form(self, monkeypatch, tile, sizes, test_sizes):
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(46)
        train = self.ragged(rng, sizes)
        test = self.ragged(rng, test_sizes, prefix="t")
        gammas = [RbfParams(s).gamma for s in (0.3, 0.5, 0.75, 1.0, 1.6, 2.4, 7.0)]
        jobs = [(train, None, gammas), (test, train, gammas)]
        grams, crosses = kernels._grams(jobs)
        monkeypatch.setattr(kernels, "_add_pair_sums", self.whole_tile_pair_sums)
        want_grams, want_crosses = kernels._grams(jobs)
        for got, want in zip(grams, want_grams):
            assert np.array_equal(got, want)
        for got, want in zip(crosses, want_crosses):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile", [4, 1024])
    def test_exp_only_on_upper_bag_blocks(self, monkeypatch, tile):
        # a diagonal chunk pair exponentiates the bag blocks j >= i of its
        # pieces, any other chunk pair its whole tile, once per gamma
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(47)
        train = self.ragged(rng, [5, 1, 9, 3, 2, 4, 1, 7])
        test = self.ragged(rng, [2, 6, 1, 3, 4], prefix="t")
        chunks = kernels._chunks(train)

        def upper_entries(c):
            n = np.diff(np.append(c.starts, c.rows.shape[0]))
            return sum(int(n_i * n[i:].sum()) for i, n_i in enumerate(n))

        want_gram = sum(upper_entries(c) for c in chunks) + sum(
            ca.rows.shape[0] * cb.rows.shape[0]
            for ia, ca in enumerate(chunks)
            for cb in chunks[ia + 1 :]
        )
        want_cross = sum(c.rows.shape[0] for c in kernels._chunks(test)) * sum(
            c.rows.shape[0] for c in chunks
        )
        entries = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            entries.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        counts = []
        for gammas in ([0.7], np.linspace(0.1, 2.0, 7)):
            entries.clear()
            kernels._grams([(train, None, gammas)])
            counts.append(sum(entries))
            entries.clear()
            kernels._grams([(test, train, gammas)])
            counts.append(sum(entries))
        assert counts == [want_gram, want_cross, 7 * want_gram, 7 * want_cross]

    @pytest.mark.parametrize(
        "tile,sizes",
        # the last set has bags of 5, 9 and 7 rows, cut into pieces at TILE 4
        [(4, [3, 1, 2, 4, 2]), (1024, [3, 1, 2, 4, 2]), (4, [5, 1, 9, 3, 2, 4, 1, 7])],
        ids=["4", "1024", "4-cut-bags"],
    )
    def test_one_distance_pass_per_chunk_pair(self, monkeypatch, tile, sizes):
        monkeypatch.setattr(kernels, "TILE", tile)
        calls = []
        original = kernels._pair_product

        def spy(ca, cb, tile):
            calls.append(ca.rows.shape[0])
            return original(ca, cb, tile)

        monkeypatch.setattr(kernels, "_pair_product", spy)
        train = self.ragged(np.random.default_rng(43), sizes)
        test = self.ragged(np.random.default_rng(44), sizes[::-1], prefix="t")
        counts = []
        for n_sigmas in (1, 7):
            calls.clear()
            kernels._grams([(train, None, np.linspace(0.1, 2.0, n_sigmas))])
            counts.append(len(calls))
            calls.clear()
            kernels._grams([(test, train, np.linspace(0.1, 2.0, n_sigmas))])
            counts.append(len(calls))
        n_train, n_test = len(kernels._chunks(train)), len(kernels._chunks(test))
        assert counts == [n_train * (n_train + 1) // 2, n_test * n_train] * 2
        assert max(calls) <= tile

    def test_chunks_cut_large_bags_into_tile_pieces(self, monkeypatch):
        monkeypatch.setattr(kernels, "TILE", 4)
        data = self.ragged(np.random.default_rng(45), [3, 9, 1, 2, 4, 6])
        chunks = kernels._chunks(data)
        # pieces 3 | 4 | 4 | 1+1+2 | 4 | 4 | 2 rows
        assert [(c.bags.start, c.bags.stop) for c in chunks] == [
            (0, 1), (1, 2), (1, 2), (1, 4), (4, 5), (5, 6), (5, 6)
        ]
        pieces = [[] for _ in data.bags]
        for c in chunks:
            assert c.rows.shape[0] <= 4
            for i, piece in zip(range(c.bags.start, c.bags.stop), np.split(c.rows, c.starts[1:])):
                pieces[i].append(piece)
        for bag, bag_pieces in zip(data.bags, pieces):
            assert np.array_equal(np.concatenate(bag_pieces), kernels.canonical_rows(bag.instances))


class TestCrossBagGram:
    def test_consistency_with_bag_gram(self, monkeypatch):
        # 1830 pooled rows in ragged bags of at most 60: several chunks at
        # either tile, so diagonal and off-diagonal chunk pairs both count
        rng = np.random.default_rng(16)
        sizes = rng.permutation(np.arange(1, 61))
        data = BagDataset(
            tuple(Bag(f"b{i}", rng.standard_normal((n, 3))) for i, n in enumerate(sizes)),
            np.zeros(len(sizes)),
        )
        p = RbfParams(1.3)
        upper = np.triu_indices(len(sizes))
        for tile in (64, 1024):
            monkeypatch.setattr(kernels, "TILE", tile)
            assert len(kernels._chunks(data)) > 1
            cross = cross_bag_gram(data, data, p)
            assert np.array_equal(cross[upper], bag_gram(data, p).values[upper])

    def test_singleton_row_of_kernels(self):
        rng = np.random.default_rng(17)
        train = random_dataset(rng, 5, singleton=True, dim=2)
        x = rng.standard_normal(2)
        test = BagDataset((Bag("t", x[None]),), [0.0])
        p = RbfParams(0.8)
        row = cross_bag_gram(test, train, p)[0]
        want = [rbf_kernel(x, b.instances[0], p) for b in train.bags]
        np.testing.assert_allclose(row, want, atol=1e-15)

    def test_matches_nested_loops(self):
        rng = np.random.default_rng(18)
        train = random_dataset(rng, 6, max_instances=5)
        test = random_dataset(rng, 4, max_instances=6, prefix="t")
        got = cross_bag_gram(test, train, RbfParams(1.1))
        want = oracle_cross_bag_gram(test, train, 1.1)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(19)
        a = random_dataset(rng, 2, dim=2)
        b = random_dataset(rng, 2, dim=3, prefix="c")
        with pytest.raises(ValueError, match="dimension mismatch"):
            cross_bag_gram(a, b, RbfParams(1.0))


class TestMultisourceBagGram:
    def test_single_source_reduction(self):
        rng = np.random.default_rng(20)
        data = random_dataset(rng, 6)
        ms = MultiSourceDataset((data,))
        p = RbfParams(1.0)
        np.testing.assert_array_equal(
            multisource_bag_gram(ms, [p]).values, bag_gram(data, p).values
        )

    def test_identical_sources_double(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 5)
        ms = MultiSourceDataset((data, data))
        p = RbfParams(1.2)
        got = multisource_bag_gram(ms, [p, p]).values
        assert np.max(np.abs(got - 2.0 * bag_gram(data, p).values)) <= 1e-12

    def test_additivity_against_oracle(self):
        rng = np.random.default_rng(22)
        one = random_dataset(rng, 5, dim=2)
        two = BagDataset(
            tuple(Bag(b.id, rng.standard_normal((3, 4))) for b in one.bags),
            one.targets,
        )
        ms = MultiSourceDataset((one, two))
        got = multisource_bag_gram(ms, [RbfParams(0.9), RbfParams(1.7)]).values
        want = oracle_bag_gram(one, 0.9) + oracle_bag_gram(two, 1.7)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_params_count_mismatch(self):
        rng = np.random.default_rng(23)
        ms = MultiSourceDataset((random_dataset(rng, 3),))
        with pytest.raises(ValueError, match="one RbfParams per source"):
            multisource_bag_gram(ms, [RbfParams(1.0), RbfParams(1.0)])


class TestMmd:
    def test_identical_samples_zero(self, monkeypatch):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((40, 3))
        # at TILE 4 the sample is cut into pieces over several chunks
        for tile in (4, 1024):
            monkeypatch.setattr(kernels, "TILE", tile)
            assert mmd_squared(x, x, RbfParams(1.0)) == 0.0

    @pytest.mark.parametrize("tile", [4, 1024])
    def test_invariant_to_row_order(self, monkeypatch, tile):
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(32)
        x, y = rng.standard_normal((23, 2)), 0.5 + rng.standard_normal((17, 2))
        p = RbfParams(0.8)
        value = mmd_squared(x, y, p)
        assert value > 0.0
        for _ in range(3):
            assert mmd_squared(rng.permutation(x), rng.permutation(y), p) == value

    @pytest.mark.parametrize("tile", [4, 64])
    def test_one_queue_is_three_mean_entries(self, monkeypatch, tile):
        # both samples are longer than TILE, so each is cut into pieces
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(33)
        x, y = rng.standard_normal((3 * tile + 1, 2)), 0.3 + rng.standard_normal((2 * tile + 3, 2))
        p = RbfParams(0.9)
        bx, by = Bag("x", x), Bag("y", y)
        kxx, kyy, kxy = (bag_mean_kernel_entry(a, b, p) for a, b in ((bx, bx), (by, by), (bx, by)))
        calls, grams = [], kernels._grams

        def spy(jobs):
            calls.append(len(jobs))
            return grams(jobs)

        monkeypatch.setattr(kernels, "_grams", spy)
        for workers in (1, 2):
            assert with_workers(workers, mmd_squared, x, y, p) == kxx + kyy - 2.0 * kxy
        assert calls == [3, 3]

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 20)), 2))
            y = rng.standard_normal((int(rng.integers(2, 20)), 2))
            p = RbfParams(float(rng.uniform(0.4, 2.0)))
            v_xy = mmd_squared(x, y, p)
            v_yx = mmd_squared(y, x, p)
            assert v_xy >= 0.0
            assert v_xy == pytest.approx(v_yx, abs=1e-12)

    def test_matches_mean_entry_algebra(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((9, 2))
        sigma = 1.1
        want = (
            oracle_mean_entry(x, x, sigma)
            + oracle_mean_entry(y, y, sigma)
            - 2.0 * oracle_mean_entry(x, y, sigma)
        )
        assert mmd_squared(x, y, RbfParams(sigma)) == pytest.approx(want, abs=1e-12)

    def test_same_distribution_not_rejected(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((400, 1))
        y = rng.standard_normal((400, 1))
        sigma = median_heuristic(np.vstack([x, y]))
        result = mmd_permutation_test(x, y, RbfParams(sigma), n_permutations=100, seed=1)
        assert result.statistic < result.null_q95

    def test_gaussian_vs_laplace_rejected(self):
        rng = np.random.default_rng(28)
        n = 1500
        x = rng.standard_normal((n, 1))
        y = rng.laplace(0.0, 1.0 / np.sqrt(2.0), (n, 1))
        sigma = median_heuristic(np.vstack([x, y]))
        result = mmd_permutation_test(x, y, RbfParams(sigma), n_permutations=100, seed=2)
        assert result.statistic > result.null_q99
        assert result.p_value < 0.01


def unblocked_mmd_test(x, y, params, n_permutations, seed):
    """(statistic, p-value, q95, q99) from the whole pooled Gram, one
    matrix-vector product per split, each mask drawn just before its use."""
    n, m = x.shape[0], y.shape[0]
    gram = cross_gram(np.concatenate([x, y], axis=0), np.concatenate([x, y], axis=0), params)
    row_sums = gram.sum(axis=1)
    total = float(row_sums.sum())

    def statistic(mask_x):
        ax = mask_x.astype(float)
        gx = gram @ ax
        sxx = float(ax @ gx)
        sxy = float(ax @ row_sums) - sxx
        syy = total - sxx - 2.0 * sxy
        value = sxx / (n * n) + syy / (m * m) - 2.0 * sxy / (n * m)
        return 0.0 if -1e-12 <= value < 0.0 else value

    observed_mask = np.zeros(n + m, dtype=bool)
    observed_mask[:n] = True
    observed = statistic(observed_mask)
    rng = np.random.default_rng(seed)
    null = np.empty(n_permutations)
    for i in range(n_permutations):
        mask = np.zeros(n + m, dtype=bool)
        mask[rng.permutation(n + m)[:n]] = True
        null[i] = statistic(mask)
    p_value = (1.0 + float(np.sum(null >= observed))) / (1.0 + n_permutations)
    return observed, p_value, float(np.percentile(null, 95)), float(np.percentile(null, 99))


def triu_median_heuristic(instances, max_points=2000, seed=0):
    """Median heuristic from the full squared-distance matrix and its
    ``triu_indices``."""
    x = np.asarray(instances, dtype=float)
    if x.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(x.shape[0], max_points, replace=False)
        x = x[np.sort(idx)]
    if x.shape[0] < 2:
        return 1.0
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    med = float(np.sqrt(np.median(d2[np.triu_indices(x.shape[0], k=1)])))
    return med if med > 0 else 1.0


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced by tracemalloc while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedMmdTest:
    """The permutation test sweeps the pooled Gram in TILE-row blocks and the
    splits in batches of TILE; its results are bitwise those of the unblocked
    algorithm."""

    @pytest.mark.parametrize("tile", [64, 100])
    @pytest.mark.parametrize(
        "n,m,d,n_permutations",
        # 303 pooled rows: several row blocks with a ragged last one; 150
        # permutations plus the observed split: several batches, ragged too
        [(173, 130, 5, 150), (120, 183, 1, 150), (40, 27, 12, 99), (1, 64, 3, 7)],
    )
    def test_bitwise_equal_to_unblocked(self, monkeypatch, tile, n, m, d, n_permutations):
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(n + m + d)
        x = rng.standard_normal((n, d))
        y = 1.2 * rng.standard_normal((m, d)) + 0.2
        params = RbfParams(median_heuristic(np.vstack([x, y])))
        want = unblocked_mmd_test(x, y, params, n_permutations, seed=4)
        for workers in (1, 2, 3):
            got = with_workers(workers, mmd_permutation_test, x, y, params, n_permutations=n_permutations, seed=4)
            assert (got.statistic, got.p_value, got.null_q95, got.null_q99) == want, workers
            assert got.n_permutations == n_permutations

    def test_memory_bounded_by_tile(self, monkeypatch):
        tile, rows = 64, 3000
        monkeypatch.setattr(kernels, "TILE", tile)
        rng = np.random.default_rng(30)
        x = rng.standard_normal((rows // 2, 2))
        y = rng.standard_normal((rows // 2, 2))
        # 71 splits: two batches
        peak = traced_peak(mmd_permutation_test, x, y, RbfParams(1.0), n_permutations=70)
        # one block, the split weights and their products: 3 TILE x (n+m)
        # arrays; the whole pooled Gram would be 8 (n+m)^2 = 72 MB
        assert peak < 4 * 8 * tile * rows


class TestGramMemory:
    """The tile engine holds its outputs, one copy of the pooled rows and a
    few tiles, whatever the sigma count and the worker count: no scratch
    grows with S, each thread pulling items has one product tile and a
    distance band of at most an eighth of a tile (a tile where a bag fills
    one), and nothing is kept per chunk pair, also where bags are cut."""

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(
        n_a=st.integers(1, 300),
        n_b=st.integers(1, 300),
        n_sigmas=st.integers(1, 28),
        dim=st.integers(1, 3),
        symmetric=st.booleans(),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    # the old engine's S x pieces x TILE column sums and B x B copies
    # exceeded the bound by megabytes here
    @example(n_a=34, n_b=34, n_sigmas=28, dim=2, symmetric=True, workers=1, seed=0)
    @example(n_a=20, n_b=58, n_sigmas=28, dim=2, symmetric=False, workers=1, seed=0)
    @example(n_a=34, n_b=34, n_sigmas=28, dim=2, symmetric=True, workers=2, seed=0)
    @example(n_a=20, n_b=58, n_sigmas=28, dim=2, symmetric=False, workers=2, seed=0)
    def test_peak_is_outputs_plus_tiles(self, n_a, n_b, n_sigmas, dim, symmetric, workers, seed):
        tile = 64
        n_b = n_a if symmetric else n_b
        # at most about 2^15 output entries, so that an example takes well
        # under 0.1 s under tracemalloc
        n_sigmas = max(1, min(n_sigmas, 2**15 // (n_a * n_b)))
        rng = np.random.default_rng(seed)

        def one_or_two_row_bags(n, prefix):
            bags = tuple(
                Bag(f"{prefix}{i}", rng.standard_normal((int(rng.integers(1, 3)), dim)))
                for i in range(n)
            )
            return BagDataset(bags, np.zeros(n))

        a = one_or_two_row_bags(n_a, "a")
        b = None if symmetric else one_or_two_row_bags(n_b, "b")
        gammas = list(np.linspace(0.1, 2.0, n_sigmas))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "TILE", tile)
            peak = with_workers(workers, traced_peak, kernels._grams, [(a, b, gammas)])
        rows = sum(bag.n_instances for ds in (a, b) if ds is not None for bag in ds.bags)
        outputs = 8 * n_sigmas * n_a * n_b
        # per-bag slack: each bag's piece, its squared norms and its share of
        # the chunk bookkeeping
        slack = 256 * (n_a + n_b) + 4096
        assert peak <= outputs + 8 * dim * rows + 3 * 8 * tile * tile + slack

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(
        tile=st.sampled_from([4, 64]),
        n_a=st.integers(8, 16),
        n_b=st.integers(8, 16),
        pieces=st.integers(2, 4),
        dim=st.integers(1, 3),
        symmetric=st.booleans(),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    # the engine that kept each chunk pair's cut-bag sums until its queue
    # ended exceeded the bound by 1-2 MB here
    @example(tile=4, n_a=16, n_b=16, pieces=4, dim=2, symmetric=True, workers=1, seed=0)
    @example(tile=64, n_a=16, n_b=12, pieces=4, dim=3, symmetric=False, workers=2, seed=0)
    def test_cut_bags_hold_nothing_per_chunk_pair(self, tile, n_a, n_b, pieces, dim, symmetric, workers, seed):
        n_b = n_a if symmetric else n_b
        rng = np.random.default_rng(seed)

        def cut_bags(n, prefix):
            # each bag is cut into `pieces` TILE-row pieces, the last one ragged
            sizes = rng.integers((pieces - 1) * tile + 1, pieces * tile + 1, size=n)
            bags = tuple(Bag(f"{prefix}{i}", rng.standard_normal((int(k), dim))) for i, k in enumerate(sizes))
            return BagDataset(bags, np.zeros(n))

        a = cut_bags(n_a, "a")
        b = None if symmetric else cut_bags(n_b, "b")
        gammas = [0.3, 1.0, 2.0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "TILE", tile)
            # an untraced call first: numpy's one-time caches are not the call's
            with_workers(workers, kernels._grams, [(a, b, gammas)])
            peak = with_workers(workers, traced_peak, kernels._grams, [(a, b, gammas)])
        rows = sum(bag.n_instances for ds in (a, b) if ds is not None for bag in ds.bags)
        outputs = 8 * len(gammas) * n_a * n_b
        # per thread: a product tile and a band, a tile too where a bag fills
        # one; per row: its canonical copy, its chunk's copy, both squared
        # norms, and the bookkeeping of a TILE-row piece's chunk; per bag:
        # its ragged last piece; per bag pair: its share of the queue. None
        # grows with the chunk pairs, about pieces^2 per bag pair. The
        # constant covers the threads' start (10 KB at two threads).
        tiles = (2 * workers + 1) * 8 * tile * tile
        per_row = 2 * 8 * (dim + 1) + 1024 // tile
        slack = 1024 * (n_a + n_b) + 256 * n_a * n_b + 32768
        assert peak <= outputs + per_row * rows + tiles + slack


@st.composite
def ragged_bag_sets(draw):
    """A TILE and the bag sizes of a training and a test set: ragged bags
    of up to three TILE-row pieces each."""
    tile = draw(st.sampled_from([4, 64]))
    size = st.integers(1, 2 * tile + 3)
    return tile, draw(st.lists(size, min_size=1, max_size=10)), draw(st.lists(size, min_size=1, max_size=5))


class TestPooledRowBlocks:
    """The chunk pairs of one queue run on the calling thread and the threads
    that ``_run_parts`` starts, each pair's bag row blocks in runs of about
    ``_SLICE`` entries through its thread's distance band; the Grams are the
    same bytes at every worker count and run length."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        sets=ragged_bag_sets(),
        n_sigmas=st.integers(1, 4),
        dim=st.integers(1, 3),
        # runs of one block, of a few, and of a whole chunk at these tiles
        slice_entries=st.sampled_from([1, 64, 2**17]),
        seed=st.integers(0, 2**16),
    )
    def test_same_bytes_at_every_worker_count(self, sets, n_sigmas, dim, slice_entries, seed):
        tile, sizes, test_sizes = sets
        rng = np.random.default_rng(seed)

        def bags(sizes, prefix):
            return BagDataset(
                tuple(Bag(f"{prefix}{i}", rng.standard_normal((n, dim))) for i, n in enumerate(sizes)),
                np.zeros(len(sizes)),
            )

        train, test = bags(sizes, "b"), bags(test_sizes, "t")
        gammas = list(np.geomspace(0.05, 3.0, n_sigmas))

        def grams():
            # the symmetric Gram mirrors cut bags across chunk pairs; the cross one does not
            return b"".join(gram.tobytes() for gram in kernels._grams([(train, None, gammas), (test, train, gammas)]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "TILE", tile)
            want = with_workers(1, grams)
            mp.setattr(kernels, "_SLICE", slice_entries)
            for workers in (1, 2, 3):
                assert with_workers(workers, grams) == want


    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        tile=st.sampled_from([4, 64]),
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=30),
        test_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
        scale=st.sampled_from([1, 16]),
    )
    def test_uncut_bags_queue_one_item_per_chunk_pair(self, tile, sizes, test_sizes, scale):
        # bags of at most TILE rows: each chunk pair of each job is one item,
        # its size the pair's entry count, in job order, then chunk-pair
        # order (ib >= ia on a symmetric Gram); a cross job whose two sides
        # are one dataset is a full one
        rng = np.random.default_rng(0)
        sizes, test_sizes = [min(tile, scale * n) for n in sizes], [min(tile, scale * n) for n in test_sizes]
        train, test = (
            BagDataset(tuple(Bag(f"{p}{i}", rng.standard_normal((n, 2))) for i, n in enumerate(ns)), np.zeros(len(ns)))
            for p, ns in (("b", sizes), ("t", test_sizes))
        )
        queued, run_parts = [], kernels._run_parts

        def spy(item, sizes, scratch=None):
            queued.append(list(sizes))
            return run_parts(item, sizes, scratch)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "TILE", tile)
            mp.setattr(kernels, "_run_parts", spy)
            kernels._grams([(train, None, [0.5]), (test, train, [0.5, 2.0]), (train, train, [1.0])])
            chunks_train, chunks_test = kernels._chunks(train), kernels._chunks(test)
        want = []
        for chunks_a, chunks_b, symmetric in (
            (chunks_train, chunks_train, True), (chunks_test, chunks_train, False), (chunks_train, chunks_train, False)
        ):
            for ia, ca in enumerate(chunks_a):
                want += [ca.rows.shape[0] * cb.rows.shape[0] for cb in (chunks_b[ia:] if symmetric else chunks_b)]
        assert queued == [want]


SLICED = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestSlicedSplitProducts:
    """Each kernel block's column tiles and row slices are shared out among
    the worker threads, which form its row products, turn them into kernel
    values and compute the split products; the block and every product are
    bitwise those of ``cross_gram`` on the same column tiles."""

    @SLICED
    @given(
        full=st.integers(0, 4),
        extra=st.integers(0, 17),
        cols=st.integers(1, 300),
        n_splits=st.integers(1, 40),
        slice_rows=st.sampled_from([1, 16, 32, 48]),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    # a one-row block, whose split products are dot products, for many splits
    @example(full=0, extra=1, cols=257, n_splits=40, slice_rows=16, workers=2, seed=3)
    def test_bitwise_equal_to_whole_block(
        self, full, extra, cols, n_splits, slice_rows, workers, seed
    ):
        # up to 4 whole slices of at least 16 rows, then 0-17 rows more: the
        # last slice may be short, and 1, 2 or 3 rows past a group of 4
        rows = max(1, max(16, slice_rows) * full + extra)
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((rows, 3)), rng.standard_normal((cols, 3))
        params = RbfParams(1.3)
        # one gemm per 16-column tile, as _kernel_rows forms them at TILE = 16
        want = np.hstack([cross_gram(a, b[j : j + 16], params) for j in range(0, cols, 16)])
        block = np.empty((rows, cols))
        ax = (rng.random((n_splits, cols)) < 0.5).astype(float)
        gx = np.full((n_splits, cols + rows + 5), np.nan)
        sums = np.full(rows + 4, np.nan)
        out = gx[:, 3 : 3 + rows]  # a column range of a wider array, as in the test
        norms = [np.einsum("ij,ij->i", v, v) for v in (a, b)]
        with pytest.MonkeyPatch.context() as mp:
            # a short slice budget: several slices per block, the last one
            # short; a 16-row tile: distance bands of one to 256 // cols rows
            mp.setattr(kernels, "_SLICE", slice_rows * cols)
            mp.setattr(kernels, "TILE", 16)
            splits = (ax, out, sums[2 : 2 + rows])
            with_workers(workers, kernels._kernel_rows, block, a, b, *norms, params.gamma, splits)
        assert block.tobytes() == want.tobytes()
        assert sums[2 : 2 + rows].tobytes() == want.sum(axis=1).tobytes()
        for a, g in zip(ax, out):
            assert g.tobytes() == (want @ a).tobytes()
        assert np.isnan(gx[:, :3]).all() and np.isnan(gx[:, 3 + rows :]).all()
        assert np.isnan(sums[:2]).all() and np.isnan(sums[2 + rows :]).all()

    @SLICED
    @given(
        tile=st.sampled_from([64, 101]),
        n=st.integers(1, 170),
        m=st.integers(1, 170),
        d=st.integers(1, 4),
        n_permutations=st.integers(1, 120),
        slice_rows=st.sampled_from([1, 16, 32]),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    # 200 pooled rows: each block's row products span four tiles, shared
    # out among the workers
    @example(tile=64, n=100, m=100, d=3, n_permutations=40, slice_rows=16, workers=2, seed=7)
    @example(tile=64, n=120, m=80, d=2, n_permutations=40, slice_rows=16, workers=3, seed=8)
    def test_bitwise_equal_to_unblocked(
        self, tile, n, m, d, n_permutations, slice_rows, workers, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = 1.1 * rng.standard_normal((m, d)) + 0.2
        params = RbfParams(median_heuristic(np.vstack([x, y])))
        with pytest.MonkeyPatch.context() as mp:
            # blocks of TILE rows, a ragged last one, each cut into slices
            mp.setattr(kernels, "TILE", tile)
            mp.setattr(kernels, "_SLICE", slice_rows * (n + m))
            got = with_workers(
                workers, mmd_permutation_test, x, y, params, n_permutations=n_permutations, seed=seed
            )
        want = unblocked_mmd_test(x, y, params, n_permutations, seed=seed)
        assert (got.statistic, got.p_value, got.null_q95, got.null_q99) == want

    @pytest.mark.parametrize(
        "rows,cols,want",
        [
            (1024, 4000, [(i, i + 32) for i in range(0, 1024, 32)]),
            (70, 2000, [(0, 64), (64, 70)]),
            (65, 2000, [(0, 65)]),  # no one-row slice
            (1, 1000, [(0, 1)]),
            (33, 100_000, [(0, 16), (16, 33)]),  # at least 16 rows
        ],
    )
    def test_row_slices(self, rows, cols, want):
        assert kernels._row_slices(rows, cols) == want


class TestMedianHeuristic:
    def test_known_distances(self):
        x = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 2, 3 -> median 2
        assert median_heuristic(x) == pytest.approx(2.0)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((5000, 2))
        assert median_heuristic(x, max_points=500, seed=3) == median_heuristic(
            x, max_points=500, seed=3
        )

    def test_degenerate_fallback(self):
        assert median_heuristic(np.zeros((10, 2))) == 1.0
        assert median_heuristic(np.zeros((1, 2))) == 1.0

    @pytest.mark.parametrize(
        "n,d,max_points",
        [(2, 1, 2000), (3, 2, 2000), (57, 4, 2000), (300, 12, 2000), (600, 3, 250), (600, 7, 599)],
    )
    def test_bitwise_equal_to_triu_formula(self, n, d, max_points):
        x = np.random.default_rng(n * d).standard_normal((n, d))
        for seed in (0, 5):
            got = median_heuristic(x, max_points=max_points, seed=seed)
            assert got == triu_median_heuristic(x, max_points=max_points, seed=seed)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(2, 2600),
        d=st.integers(1, 8),
        scale=st.floats(1e-3, 1e3),
        rows=st.sampled_from(["distinct", "duplicated", "tied"]),
        layout=st.sampled_from(["c", "fortran", "strided"]),
        seed=st.integers(0, 2**16),
    )
    @example(k=2600, d=3, scale=1.0, rows="distinct", layout="c", seed=0)
    @example(k=1999, d=8, scale=1e3, rows="tied", layout="strided", seed=1)
    @example(k=2000, d=1, scale=1e-3, rows="duplicated", layout="c", seed=2)
    def test_bitwise_equal_to_triu_formula_property(self, k, d, scale, rows, layout, seed):
        # band distances packed inside the product's buffer and one selection
        # against the full matrix, its triu_indices and np.median
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((k, d))
        if rows == "duplicated":
            x[rng.integers(0, k, k // 2)] = x[0]
        elif rows == "tied":
            x = np.round(x / scale, 1) * scale  # many equal distances
        if layout == "fortran":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x = np.repeat(x, 2, axis=1)[:, ::2]
        assert median_heuristic(x, seed=seed) == triu_median_heuristic(x, seed=seed)

    def test_memory(self):
        k = 1000
        x = np.random.default_rng(31).standard_normal((k, 3))
        # the k x k inner products, whose buffer then holds the upper
        # triangle's distances; a separate triangle took 12 MB, the full
        # distance matrix and its triu_indices 20 MB
        assert traced_peak(median_heuristic, x) <= 1.1 * 8 * k * k


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_library_functions_raise(self, bad):
        x = np.random.default_rng(6).standard_normal((8, 2))
        y = np.random.default_rng(7).standard_normal((6, 2))
        x[3, 1] = bad
        p = RbfParams(1.0)
        with pytest.raises(ValueError, match=r"instances holds a non-finite value .* row 3, column 1"):
            median_heuristic(x)
        with pytest.raises(ValueError, match="sample_x holds a non-finite value"):
            mmd_squared(x, y, p)
        with pytest.raises(ValueError, match="sample_y holds a non-finite value"):
            mmd_squared(y, x, p)
        with pytest.raises(ValueError, match="sample_x holds a non-finite value"):
            mmd_permutation_test(x, y, p, n_permutations=5)


class TestExtremeScales:
    """A kernel value whose exponent overflows to -inf is 0, with no numpy
    warning on any thread; rows whose squared distances overflow are refused
    by every entry point."""

    def test_tiny_sigma_gives_zeros_without_warning(self, monkeypatch):
        # integer multiples of 1e5: every product, norm and distance is
        # exact, so a kernel value is 1 on equal rows and 0 elsewhere, where
        # the distance times gamma = 5e299 overflows to -inf
        rng = np.random.default_rng(31)
        x = 1e5 * rng.integers(0, 4, (50, 2))
        y = 1e5 * rng.integers(10, 14, (40, 2))
        pooled = np.vstack([x, y])
        params = RbfParams(1e-150)
        data = BagDataset((Bag("x", x), Bag("y", y)), np.zeros(2))
        want = (pooled[:, None] == pooled[None]).all(axis=2).astype(float)
        # several row slices in the MMD test, so that they run on started threads
        monkeypatch.setattr(kernels, "_SLICE", 16 * pooled.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = cross_gram(pooled, pooled, params)
            for workers in (1, 2):
                bags = with_workers(workers, bag_gram, data, params).values
                np.testing.assert_array_equal(bags, [[want[:50, :50].mean(), 0.0], [0.0, want[50:, 50:].mean()]])
                got = with_workers(workers, mmd_permutation_test, x, y, params, n_permutations=9)
                assert (got.statistic, got.p_value, got.null_q95, got.null_q99) == unblocked_mmd_test(
                    x, y, params, 9, seed=0
                )
        assert gram.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "entry",
        ["cross_gram", "bag_gram", "cross_bag_gram", "bag_mean_kernel_entry", "multisource_bag_gram", "mmd_squared"],
    )
    def test_overflowing_rows_refused(self, entry):
        rng = np.random.default_rng(33)
        big, small = 1e200 * rng.standard_normal((5, 2)), rng.standard_normal((4, 2))
        p = RbfParams(1.0)
        data = BagDataset((Bag("small", small), Bag("big", big)), np.zeros(2))
        calls = {
            "cross_gram": [(lambda: cross_gram(big, small, p), "the rows of a"),
                           (lambda: cross_gram(small, big, p), "the rows of b")],
            "bag_gram": [(lambda: bag_gram(data, p), "instances")],
            "cross_bag_gram": [(lambda: cross_bag_gram(BagDataset((Bag("t", small),), [0.0]), data, p), "instances")],
            "bag_mean_kernel_entry": [(lambda: bag_mean_kernel_entry(Bag("s", small), Bag("b", big), p), "instances")],
            "multisource_bag_gram": [(lambda: multisource_bag_gram(MultiSourceDataset((data, data)), [p, p]), "instances")],
            "mmd_squared": [(lambda: mmd_squared(small, big, p), "instances")],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, name in calls[entry]:
                with pytest.raises(ValueError, match=f"^{name} are too large: their squared distances overflow"):
                    call()
