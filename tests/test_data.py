"""Loading, normalization, alignment, and their error reporting."""

import csv
import tempfile
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
