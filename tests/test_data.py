"""Loading, normalization, alignment, and their error reporting."""

import csv
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distreg import (
    Bag,
    BagDataset,
    DataFormatError,
    Normalizer,
    align_sources,
    apply_normalizer,
    fit_normalizer,
    load_bags,
    load_sample,
    pooled_instances,
    save_bags,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadBags:
    def test_two_bag_file(self, tmp_path):
        inst = write(
            tmp_path / "inst.csv",
            "bag_id,f1,f2\na,1,2\na,3,4\nb,5,6\n",
        )
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\nb,2.0\n")
        data = load_bags(inst, tgt)
        assert data.n_bags == 2
        assert data.dim == 2
        assert data.bags[0].n_instances == 2
        assert data.bags[1].n_instances == 1
        assert data.bag_ids == ("a", "b")
        np.testing.assert_array_equal(data.targets, [1.0, 2.0])
        np.testing.assert_array_equal(data.bags[0].instances, [[1, 2], [3, 4]])

    def test_empty_instances_file(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\n")
        with pytest.raises(DataFormatError, match="no bags"):
            load_bags(inst, tgt)

    def test_ragged_row_names_line(self, tmp_path):
        inst = write(
            tmp_path / "inst.csv",
            "bag_id,f1,f2\na,1,2\na,3,4,5\nb,5,6\n",
        )
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\nb,2.0\n")
        with pytest.raises(DataFormatError, match=r"inst\.csv:3"):
            load_bags(inst, tgt)

    def test_non_numeric_field_names_bag(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\na,oops\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\n")
        with pytest.raises(DataFormatError, match="'oops'.*'a'"):
            load_bags(inst, tgt)

    def test_non_finite_instance_names_line_and_bag(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1,f2\na,1,2\na,nan,3\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\n")
        with pytest.raises(DataFormatError, match=r"inst\.csv:3: non-finite value 'nan' for bag 'a'"):
            load_bags(inst, tgt)

    def test_non_finite_target_names_line_and_bag(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\na,1\nb,2\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\nb,-inf\n")
        with pytest.raises(DataFormatError, match=r"tgt\.csv:3: non-finite value '-inf' for bag 'b'"):
            load_bags(inst, tgt)

    @pytest.mark.parametrize("text", ["1_000", "\u0661", "\uff11"])
    def test_number_grammar_is_ascii_without_underscores(self, tmp_path, text):
        # Python's float reads each of these; the one grammar of every input
        # file does not
        inst = write(tmp_path / "inst.csv", f"bag_id,f1,f2\na,1,2\nb,3,{text}\n")
        with pytest.raises(DataFormatError) as info:
            load_bags(inst)
        assert str(info.value) == f"{inst}:3: non-numeric value {text!r} for bag 'b'"

    def test_whitespace_around_numbers_and_blank_lines(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\na, 1.5\n \n\t\nb,2e1\t\n\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\n  \na,+1\nb,-.5 \n")
        data = load_bags(inst, tgt)
        assert data.bag_ids == ("a", "b")
        np.testing.assert_array_equal(pooled_instances(data), [[1.5], [20.0]])
        np.testing.assert_array_equal(data.targets, [1.0, -0.5])

    def test_target_field_count_names_bag(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\na,1\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0,2.0\n")
        with pytest.raises(DataFormatError) as info:
            load_bags(inst, tgt)
        assert str(info.value) == f"{tgt}:2: expected 2 fields, got 3 for bag 'a'"

    def test_missing_target(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\na,1\nb,2\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\n")
        with pytest.raises(DataFormatError, match="missing target for bag 'b'"):
            load_bags(inst, tgt)

    def test_duplicate_target(self, tmp_path):
        inst = write(tmp_path / "inst.csv", "bag_id,f1\na,1\n")
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,1.0\na,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate target for bag 'a'"):
            load_bags(inst, tgt)

    def test_bag_order_follows_first_appearance(self, tmp_path):
        inst = write(
            tmp_path / "inst.csv",
            "bag_id,f1\nz,1\na,2\nz,3\n",
        )
        tgt = write(tmp_path / "tgt.csv", "bag_id,y\na,5\nz,7\n")
        data = load_bags(inst, tgt)
        assert data.bag_ids == ("z", "a")
        np.testing.assert_array_equal(data.targets, [7.0, 5.0])

    def test_round_trip(self, tmp_path, rng=np.random.default_rng(7)):
        bags = tuple(
            Bag(f"bag{i}", rng.standard_normal((int(rng.integers(1, 5)), 3)))
            for i in range(6)
        )
        data = BagDataset(bags, rng.standard_normal(6))
        save_bags(data, tmp_path / "i.csv", tmp_path / "t.csv")
        back = load_bags(tmp_path / "i.csv", tmp_path / "t.csv")
        assert back.bag_ids == data.bag_ids
        np.testing.assert_array_equal(back.targets, data.targets)
        for a, b in zip(back.bags, data.bags):
            np.testing.assert_array_equal(a.instances, b.instances)


    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        ids=st.lists(
            st.text(st.sampled_from(list('ab ,"\r\n;\u00e9\ufeff')), min_size=1, max_size=6),
            min_size=1, max_size=5, unique=True,
        ),
        bom=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_rfc4180_files_load_as_written(self, ids, bom, seed):
        # ids with commas, quotes, CR and LF, quoted as RFC 4180 says; a byte
        # order mark in front changes nothing
        rng = np.random.default_rng(seed)
        data = BagDataset(
            tuple(Bag(i, rng.standard_normal((int(rng.integers(1, 4)), 2))) for i in ids),
            rng.standard_normal(len(ids)),
        )
        with tempfile.TemporaryDirectory() as tmp:
            inst, tgt = Path(tmp, "i.csv"), Path(tmp, "t.csv")
            save_bags(data, inst, tgt)
            with open(inst, newline="", encoding="utf-8") as fh:
                records = list(csv.reader(fh))  # the lenient reading
            if bom:
                for path in (inst, tgt):
                    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            back = load_bags(inst, tgt)
        lenient_ids = tuple(dict.fromkeys(r[0] for r in records[1:] if r))
        assert back.bag_ids == data.bag_ids == lenient_ids
        assert back.targets.tobytes() == data.targets.tobytes()
        for a, b in zip(back.bags, data.bags):
            assert a.instances.tobytes() == b.instances.tobytes()

    @pytest.mark.parametrize(
        "text,line",
        [('bag_id,f1\na,1\nb,"3\n', 3), ('bag_id,f1\na,"1\nb,2\nc,3\n', 2)],
        ids=["last-line", "open-to-the-end"],
    )
    def test_unterminated_quote_names_its_record(self, tmp_path, text, line):
        path = write(tmp_path / "i.csv", text)
        with pytest.raises(DataFormatError) as info:
            load_bags(path)
        assert str(info.value) == f"{path}:{line}: malformed CSV: unexpected end of data"

    def test_errors_after_a_quoted_line_break_name_their_line(self, tmp_path):
        # the id "a\nb" spans lines 2 and 3, so the bad value is on line 5,
        # although it is the fourth record
        path = write(tmp_path / "i.csv", 'bag_id,f1\n"a\nb",1\nc,2\nc,x\n')
        with pytest.raises(DataFormatError) as info:
            load_bags(path)
        assert str(info.value) == f"{path}:5: non-numeric value 'x' for bag 'c'"

    def test_target_errors_after_a_quoted_line_break_name_their_line(self, tmp_path):
        inst = write(tmp_path / "i.csv", 'bag_id,f1\n"a\nb",1\nc,2\n')
        tgt = write(tmp_path / "t.csv", 'bag_id,y\n"a\nb",1.0\nc,2.0\nc,3.0\n')
        with pytest.raises(DataFormatError) as info:
            load_bags(inst, tgt)
        assert str(info.value) == f"{tgt}:5: duplicate target for bag 'c'"


class TestLoadSample:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "s.csv", "# x, y\n1.5,2\n\n  \n3,4 # trailing\r\n\ufeff5,6\n")
        with pytest.raises(DataFormatError, match=r"s\.csv:6: non-numeric value '\\ufeff5'"):
            load_sample(path)  # a BOM counts only at the start of the file
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\xef\xbb\xbf", b""))
        np.testing.assert_array_equal(load_sample(path), [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_empty_sample(self, tmp_path):
        path = write(tmp_path / "s.csv", "# nothing\n\n")
        with pytest.raises(DataFormatError) as info:
            load_sample(path)
        assert str(info.value) == f"{path}: empty sample"

    def test_bits_equal_the_repr_written(self, tmp_path, rng=np.random.default_rng(11)):
        sample = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        path = write(tmp_path / "s.csv", "".join(",".join(repr(float(v)) for v in row) + "\n" for row in sample))
        assert load_sample(path).tobytes() == sample.tobytes()


@pytest.mark.parametrize("reader", ["load_bags", "load_sample"])
def test_load_peak_is_about_the_arrays(tmp_path, reader):
    # the numbers go into compact arrays as they are parsed, not into a
    # Python float per value: the traced peak is at most 1.5 times the
    # returned arrays, plus a term per bag and a constant for the reader
    rng = np.random.default_rng(13)
    rows, n_bags = 30_000, 300
    x = rng.standard_normal((rows, 3))
    if reader == "load_bags":
        ids = rng.integers(0, n_bags, rows)
        inst = write(tmp_path / "i.csv", "bag_id,f1,f2,f3\n" + "".join(
            f"b{i},{a!r},{b!r},{c!r}\n" for i, (a, b, c) in zip(ids, x.tolist())))
        tgt = write(tmp_path / "t.csv", "bag_id,y\n" + "".join(f"b{i},{i}\n" for i in range(n_bags)))

        def load():
            data = load_bags(inst, tgt)
            return [bag.instances for bag in data.bags] + [data.targets]
    else:
        n_bags = 1
        path = write(tmp_path / "s.csv", "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in x.tolist()))

        def load():
            return [load_sample(path)]

    tracemalloc.start()
    try:
        arrays = load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(a.nbytes for a in arrays)
    assert nbytes >= rows * 3 * 8
    assert peak <= 1.5 * nbytes + 1024 * n_bags + 65536, (peak, nbytes)


class TestNormalizer:
    def test_single_bag_hand_values(self):
        data = BagDataset((Bag("a", [[0.0], [2.0]]),), [1.0])
        norm = fit_normalizer(data)
        # pooled mean of {0, 2} is 1, population std is 1
        assert norm.mean[0] == pytest.approx(1.0)
        assert norm.scale[0] == pytest.approx(1.0)

    def test_constant_column_gets_scale_one(self):
        data = BagDataset((Bag("a", [[0.1, 5.0], [0.1, 7.0], [0.1, 9.0]]),), [1.0])
        norm = fit_normalizer(data)
        assert norm.mean[0] == 0.1
        assert norm.scale[0] == 1.0
        normalized = apply_normalizer(data, norm)
        assert np.all(normalized.bags[0].instances[:, 0] == 0.0)

    def test_two_singleton_bags(self):
        data = BagDataset((Bag("a", [[1.0]]), Bag("b", [[3.0]])), [0.0, 1.0])
        norm = fit_normalizer(data)
        assert norm.mean[0] == pytest.approx(2.0)
        assert norm.scale[0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        data = BagDataset((Bag("a", [[0.0, 2.0]]),), [1.0])
        with pytest.raises(ValueError, match="d=1.*d=2|d=2.*d=1"):
            apply_normalizer(data, Normalizer([1.0], [1.0]))

    def test_identity_transform_is_bitwise(self):
        data = BagDataset((Bag("a", [[0.25, -3.5], [1.0, 2.0]]),), [1.0])
        out = apply_normalizer(data, Normalizer([0.0, 0.0], [1.0, 1.0]))
        assert np.all(out.bags[0].instances == data.bags[0].instances)

    def test_affine_arithmetic(self):
        data = BagDataset((Bag("a", [[4.0]]),), [1.0])
        out = apply_normalizer(data, Normalizer([2.0], [2.0]))
        assert out.bags[0].instances[0, 0] == 1.0

    def test_targets_unchanged(self):
        data = BagDataset((Bag("a", [[4.0]]),), [17.0])
        out = apply_normalizer(data, fit_normalizer(data))
        assert out.targets[0] == 17.0

    def test_pooled_stats_after_normalization(self):
        rng = np.random.default_rng(3)
        bags = tuple(
            Bag(f"b{i}", 5.0 + 2.0 * rng.standard_normal((int(rng.integers(1, 9)), 4)))
            for i in range(12)
        )
        data = BagDataset(bags, rng.standard_normal(12))
        normalized = apply_normalizer(data, fit_normalizer(data))
        pooled = pooled_instances(normalized)
        assert np.max(np.abs(pooled.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(pooled.std(axis=0) - 1.0)) <= 1e-12


class TestAlignSources:
    @staticmethod
    def singleton_dataset(ids, targets, dim=1, seed=0):
        rng = np.random.default_rng(seed)
        bags = tuple(Bag(i, rng.standard_normal((1, dim))) for i in ids)
        return BagDataset(bags, targets)

    def test_intersection_of_large_sources(self):
        shared = [f"s{i}" for i in range(289)]
        only_a = [f"a{i}" for i in range(800 - 289)]
        only_b = [f"b{i}" for i in range(1364 - 289)]
        targets = {bid: float(i) for i, bid in enumerate(shared)}
        ids_a = shared + only_a
        ids_b = only_b + shared
        src_a = self.singleton_dataset(
            ids_a, [targets.get(i, -1.0) for i in ids_a], dim=2, seed=1
        )
        src_b = self.singleton_dataset(
            ids_b, [targets.get(i, -1.0) for i in ids_b], dim=3, seed=2
        )
        ms = align_sources([src_a, src_b])
        assert ms.n_bags == 289
        assert ms.bag_ids == tuple(shared)
        for bid in ms.bag_ids:
            idx = ms.alignment[bid]
            assert all(src.targets[idx] == targets[bid] for src in ms.sources)

    def test_single_source_keeps_everything(self):
        src = self.singleton_dataset(["x", "y", "z"], [1.0, 2.0, 3.0])
        ms = align_sources([src])
        assert ms.n_sources == 1
        assert ms.bag_ids == ("x", "y", "z")
        np.testing.assert_array_equal(ms.targets, [1.0, 2.0, 3.0])

    def test_disjoint_ids_error(self):
        a = self.singleton_dataset(["x"], [1.0])
        b = self.singleton_dataset(["y"], [1.0])
        with pytest.raises(ValueError, match="empty intersection"):
            align_sources([a, b])

    def test_conflicting_targets_error(self):
        a = self.singleton_dataset(["x"], [1.0])
        b = self.singleton_dataset(["x"], [2.0])
        with pytest.raises(ValueError, match="conflicting targets for bag 'x'"):
            align_sources([a, b])


class TestValidation:
    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Bag("a", np.empty((0, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Bag("a", [[np.nan]])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="share one feature dimension"):
            BagDataset((Bag("a", [[1.0]]), Bag("b", [[1.0, 2.0]])), [0.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            BagDataset((Bag("a", [[1.0]]),), [0.0, 1.0])

    def test_subset_preserves_order(self):
        rng = np.random.default_rng(0)
        bags = tuple(Bag(f"b{i}", rng.standard_normal((2, 2))) for i in range(5))
        data = BagDataset(bags, np.arange(5.0))
        sub = data.subset([3, 1])
        assert sub.bag_ids == ("b3", "b1")
        np.testing.assert_array_equal(sub.targets, [3.0, 1.0])


def _library_calls():
    """(call, argument name, value, its domain's text) for library arguments
    outside their domain."""
    from distreg import (
        RbfParams,
        bag_feature_sweep,
        grid_search_cv,
        kfold_split,
        median_heuristic,
        mmd_permutation_test,
        run_protocol,
        sample_basis,
        split_train_test,
    )

    rng = np.random.default_rng(5)
    data = BagDataset(tuple(Bag(f"b{i}", rng.standard_normal((3, 2))) for i in range(12)), rng.standard_normal(12))
    x, y = rng.standard_normal((2, 10, 2))
    basis = sample_basis(2, 4, 1.0, 0)
    count, index, two = "an integer ≥ 1", "an integer ≥ 0", "an integer ≥ 2"
    positive, fraction = "positive and finite", "a real in (0, 1)"
    return {
        "run_protocol-k": (lambda: run_protocol(data, "lr", trials=1, k=2.5), "k", 2.5, two),
        "run_protocol-trials": (lambda: run_protocol(data, "lr", trials=1.5), "trials", 1.5, count),
        "run_protocol-seed": (lambda: run_protocol(data, "lr", trials=1, seed=True), "seed", True, index),
        "run_protocol-test_fraction": (lambda: run_protocol(data, "lr", trials=1, test_fraction="0.3"),
                                       "test_fraction", "0.3", fraction),
        "kfold_split-k": (lambda: kfold_split(10, 2.5, 0), "k", 2.5, count),
        "kfold_split-seed": (lambda: kfold_split(10, 2, -1), "seed", -1, index),
        "split_train_test-test_fraction": (lambda: split_train_test(10, "0.3", 0), "test_fraction", "0.3", fraction),
        "split_train_test-seed": (lambda: split_train_test(10, 0.3, 0.5), "seed", 0.5, index),
        "grid_search_cv-k": (lambda: grid_search_cv(data, "lr", [{"lam": 1.0}], k=1, seed=0), "k", 1, two),
        "RbfParams-bool": (lambda: RbfParams(True), "sigma", True, positive),
        "RbfParams-string": (lambda: RbfParams("2"), "sigma", "2", positive),
        "sample_basis-sigma": (lambda: sample_basis(2, 3, True, 0), "sigma", True, positive),
        "sample_basis-n_components": (lambda: sample_basis(3, 2.5, 1.0, 0), "n_components", 2.5, count),
        "sample_basis-dim": (lambda: sample_basis(0, 2, 1.0, 0), "dim", 0, count),
        "sample_basis-seed": (lambda: sample_basis(2, 3, 1.0, -1), "seed", -1, index),
        "mmd_permutation_test-n_permutations": (
            lambda: mmd_permutation_test(x, y, RbfParams(1.0), n_permutations=True), "n_permutations", True, count),
        "mmd_permutation_test-seed": (lambda: mmd_permutation_test(x, y, RbfParams(1.0), seed=-1), "seed", -1, index),
        "median_heuristic-max_points": (lambda: median_heuristic(x, max_points=0), "max_points", 0, two),
        "median_heuristic-seed": (lambda: median_heuristic(x, seed=1.0), "seed", 1.0, index),
        "bag_feature_sweep-n_halvings": (lambda: bag_feature_sweep(data, basis, 1.5), "n_halvings", 1.5, index),
    }


@pytest.mark.parametrize("case", list(_library_calls()))
def test_library_argument_outside_its_domain_named(case):
    # each is accepted, or fails with a TypeError or numpy's own message, unless
    # the argument is checked against its domain
    call, name, value, what = _library_calls()[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{name} must be {what}, got {value!r}"
