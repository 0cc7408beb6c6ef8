"""Dataset container, CSV/IDX loaders, generators, fold plans."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqnn.datasets import (_DCT_CHUNK, Dataset, FoldPlan, filter_pair, gen_logic_gate,
                           gen_sinc, gen_two_moons, kfold_plan, load_csv,
                           load_mnist_idx, split)
from sqnn.features import dct_features

from conftest import write_idx_pair
from oracle import dct2, reference_load_csv


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="targets"):
            Dataset(inputs=np.ones((2, 1)), targets=np.array([0.5, 1.5]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(inputs=np.array([[0.0, 1.0], [2.0, bad]]), targets=np.zeros(2))
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(inputs=np.ones((2, 1)), targets=np.array([0.0, bad]))
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(inputs=np.empty((0, 2)), targets=np.empty(0))

    def test_no_feature_column_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(inputs=np.empty((3, 0)), targets=np.zeros(3))

    def test_finiteness_check_makes_no_mask_of_the_inputs(self):
        # tracemalloc counts numpy's allocations: an isfinite mask of the
        # inputs would take one byte per entry
        X = np.random.default_rng(0).uniform(-1, 1, (2_000, 784))
        y = np.zeros(2_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            Dataset(inputs=X, targets=y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < X.size // 8

    def test_subset_keeps_metadata(self):
        ds = Dataset(inputs=np.arange(8.0).reshape(4, 2),
                     targets=np.array([0.1, -0.2, 0.3, -0.4]),
                     tag="demo", target_range=(0.0, 10.0))
        sub = ds.subset([2, 0])
        assert sub.n == 2 and sub.tag == "demo" and sub.target_range == (0.0, 10.0)
        np.testing.assert_array_equal(sub.inputs[0], [4.0, 5.0])

    def test_subset_boolean_mask_selects_rows(self):
        ds = Dataset(inputs=np.arange(6.0).reshape(3, 2), targets=np.array([0.1, 0.2, 0.3]))
        sub = ds.subset([True, False, True])
        np.testing.assert_array_equal(sub.targets, [0.1, 0.3])
        np.testing.assert_array_equal(ds.subset(np.array([2, 0])).targets, [0.3, 0.1])
        for empty in ([], [False, False, False]):
            with pytest.raises(ValueError, match="non-empty"):
                ds.subset(empty)
        with pytest.raises(IndexError, match="boolean index did not match"):
            ds.subset([True, False])


class TestLoadCsv:
    def test_header_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,2,0.5\n3,4,-0.5\n")
        ds = load_csv(path)
        assert (ds.n, ds.p) == (2, 2)
        np.testing.assert_array_equal(ds.targets, [0.5, -0.5])

    def test_missing_marker_drops_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,?,0.5\n3,4,-0.5\n")
        ds = load_csv(path)
        assert ds.n == 1
        assert ds.dropped_rows == 1

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,2,0.5\nfoo,4,-0.5\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    def test_target_by_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,a\n0.5,1\n-0.5,3\n")
        ds = load_csv(path, target_column="y")
        np.testing.assert_array_equal(ds.targets, [0.5, -0.5])
        np.testing.assert_array_equal(ds.inputs.ravel(), [1.0, 3.0])

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv(path, target_column="z")

    def test_label_map(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,M\n2,B\n")
        ds = load_csv(path, target_column=1, label_map={"M": 1.0, "B": -1.0})
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0])

    def test_auto_target_scaling(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,420\n1,500\n2,460\n")
        ds = load_csv(path)
        assert ds.target_range == (420.0, 500.0)
        np.testing.assert_allclose(ds.targets, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_scaling_disabled_fails_validation(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,420\n1,500\n")
        with pytest.raises(ValueError, match="rescale"):
            load_csv(path, scale_targets=False)

    def test_drop_cols_and_sparse(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["id,junk,a,y"]
        for i in range(10):
            junk = "?" if i < 8 else "1"
            rows.append(f"{i},{junk},{i / 10},{(-1) ** i}")
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path, drop_cols=("id",), drop_sparse_cols=0.5)
        assert ds.p == 1  # junk dropped as sparse, id dropped by name
        assert ds.n == 10
        assert ds.dropped_rows == 0

    def test_sparse_rule_leaves_the_target_column(self, tmp_path):
        # 3 of 5 targets missing: above t, but the rule removes feature
        # columns only, so those rows drop like any row with a gap
        path = tmp_path / "t.csv"
        path.write_text("0.1,0.2,?\n0.3,0.4,0.5\n0.5,0.6,?\n0.7,0.8,-0.5\n0.9,1.0,?\n")
        ds = load_csv(path, drop_sparse_cols=0.5)
        assert (ds.n, ds.p, ds.dropped_rows) == (2, 2, 3)
        np.testing.assert_array_equal(ds.inputs, [[0.3, 0.4], [0.7, 0.8]])
        np.testing.assert_array_equal(ds.targets, [0.5, -0.5])

    @pytest.mark.parametrize("drop_sparse_cols", [None, 0.5])
    def test_ragged_row_rejected(self, tmp_path, drop_sparse_cols):
        # the sparse-column scan must not index past the first row's width
        path = tmp_path / "t.csv"
        path.write_text("1,2,3\n4,5,6,?\n")
        with pytest.raises(ValueError, match="ragged row with 4 cells, expected 3"):
            load_csv(path, drop_sparse_cols=drop_sparse_cols)

    def test_rows_wider_than_the_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,2,0.5\n3,4,-0.5\n")
        with pytest.raises(ValueError, match="ragged row with 3 cells, expected 2"):
            load_csv(path)

    def test_nan_cell_rejected_not_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,nan,0.5\n3,4,-0.5\n")
        with pytest.raises(ValueError, match="non-finite cell in data row 1"):
            load_csv(path)

    def test_missing_cell_does_not_hide_a_defect_in_its_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,?,0.5\n3,inf,-0.5\n")
        with pytest.raises(ValueError, match="non-finite cell in data row 2"):
            load_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("a,b,y\n1,nan,0.5\nabc,4,-0.5\n", "non-finite cell in data row 1"),
        ("a,b,y\n1,abc,0.5\n3,4,inf\n", "non-numeric cell: .*'abc'"),
        ("a,b,y\n1,2,0.5\n3,x,inf\nz,4,0.1\n", "non-numeric cell: .*'x'"),
    ])
    def test_the_first_defective_row_is_reported(self, tmp_path, text, match):
        # the file is read once, each column keeping its first defect; the
        # earliest row's is reported, a non-numeric cell before a non-finite one
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_csv(path)

    def test_mixed_first_row_is_neither_header_nor_data(self, tmp_path):
        # one typo in a headerless file must not turn its first row into
        # a header and silently drop it
        path = tmp_path / "t.csv"
        path.write_text("1,abc,0.5\n2,3,0.4\n4,5,-0.2\n")
        with pytest.raises(ValueError, match="row 1 mixes numbers and text.*has_header"):
            load_csv(path)
        ds = load_csv(path, has_header=True)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.inputs[0], [2.0, 3.0])
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path, has_header=False)

    def test_sniffed_header_ignores_missing_markers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",a,y\n1,2,0.5\n3,4,-0.5\n")
        assert load_csv(path).n == 2
        path.write_text("?,2,0.5\n3,4,-0.5\n5,6,0.1\n")
        ds = load_csv(path)
        assert (ds.n, ds.dropped_rows) == (2, 1)

    def test_label_map_cells_count_as_numbers_in_the_sniff(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("842302,M,17.99\n842517,B,20.57\n")
        ds = load_csv(path, target_column=1, label_map={"M": 1.0, "B": -1.0})
        assert ds.n == 2
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0])

    @pytest.mark.parametrize("text, options", [
        ("y\n0.5\n-0.5\n", {}),
        ("0.5\n-0.5\n", {}),
        ("id,y\n1,0.5\n2,-0.5\n", {"drop_cols": ("id",)}),
        ("a,y\n?,0.5\n?,-0.5\n1,0.1\n", {"drop_sparse_cols": 0.5}),
    ])
    def test_no_feature_column_left_rejected(self, tmp_path, text, options):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}: no feature column left"):
            load_csv(path, **options)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_out_of_range_target_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,0.5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_csv(path, target_column=9)

    @pytest.mark.parametrize("options, field", [
        ({"target_column": 1.7}, "target_column"),
        ({"target_column": True}, "target_column"),
        ({"target_column": np.float64(2.0)}, "target_column"),
        ({"drop_cols": (0.9,)}, "each drop_cols entry"),
        ({"drop_cols": (False,)}, "each drop_cols entry"),
    ])
    def test_column_index_must_be_an_integer(self, tmp_path, options, field):
        path = tmp_path / "t.csv"
        path.write_text("1,2,3,0.5\n4,5,6,-0.5\n")
        with pytest.raises(ValueError, match=f"{field} must be a column index or name, got "):
            load_csv(path, **options)

    def test_integer_indices_count_from_either_end(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,3,0.5\n4,5,6,-0.5\n")
        ds = load_csv(path, target_column=np.int64(-1), drop_cols=(-2, np.int32(0)))
        np.testing.assert_array_equal(ds.inputs, [[2.0], [5.0]])
        np.testing.assert_array_equal(ds.targets, [0.5, -0.5])

    @pytest.mark.parametrize("options", [{"drop_cols": ("name",)}, {"drop_sparse_cols": 0.5}])
    def test_a_dropped_column_holds_no_defect_and_no_gap(self, tmp_path, options):
        path = tmp_path / "t.csv"
        path.write_text("name,a,y\nabc,1,0.5\n?,2,-0.5\n?,inf,0.1\n")
        with pytest.raises(ValueError, match="non-finite cell in data row 3"):
            load_csv(path, **options)
        path.write_text("name,a,y\nabc,1,0.5\n?,2,-0.5\n?,3,0.1\n")
        ds = load_csv(path, **options)
        assert (ds.n, ds.dropped_rows) == (3, 0)
        np.testing.assert_array_equal(ds.inputs.ravel(), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text, options, match", [
        ("1,abc,0.5\n2,3\n", {}, "row 1 mixes numbers and text"),
        ("a,y\n1,0.5\n2\n", {"target_column": "z"}, "no column named 'z'"),
        ("1,0.5\n2\n", {"target_column": 5}, "column index 5 out of range"),
        ("a,y\n1,0.5\n2\n", {"drop_cols": (1.5,)}, "each drop_cols entry must be"),
    ])
    def test_first_row_errors_come_before_a_ragged_row(self, tmp_path, text, options, match):
        # the header and the columns are settled before the rows below are read
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_csv(path, **options)

    def test_peak_memory_stays_near_the_arrays(self, tmp_path):
        # one float and one flag byte per cell while reading, not a string
        path = tmp_path / "t.csv"
        np.savetxt(path, np.random.default_rng(0).uniform(-1, 1, (50_000, 5)),
                   fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 50_000
        assert ds.inputs.flags.c_contiguous  # rows, as the fold subsets take them
        assert peak - before <= 5 * (ds.inputs.nbytes + ds.targets.nbytes)


def csv_grid(data, n_rows, n_cols):
    """A header line plus n_rows x n_cols finite numeric cells."""
    cell = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    rows = data.draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                              min_size=n_rows, max_size=n_rows), label="rows")
    return [f"c{j}" for j in range(n_cols)], rows


def write_grid(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


class TestLoadCsvProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_rows=st.integers(1, 8), n_cols=st.integers(2, 5),
           defect=st.sampled_from(["long", "short", "nan", "NaN", "inf", "-inf",
                                   "Infinity", "1e999", "abc", "1.2.3", "0x10"]))
    def test_malformed_row_raises(self, tmp_path, data, n_rows, n_cols, defect):
        header, rows = csv_grid(data, n_rows, n_cols)
        r = data.draw(st.integers(0, n_rows - 1), label="row")
        c = data.draw(st.integers(0, n_cols - 1), label="column")
        if defect == "long":
            rows[r].append("1.0")
        elif defect == "short":
            rows[r].pop()
        else:
            rows[r][c] = defect
        # a missing value elsewhere in the row must not hide the defect
        if n_cols > 2 and data.draw(st.booleans(), label="also missing"):
            rows[r][(c + 1) % (n_cols - 1)] = "?"
        path = tmp_path / "t.csv"
        write_grid(path, header, rows)
        with pytest.raises(ValueError, match=str(path)):
            load_csv(path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_rows=st.integers(2, 8), n_cols=st.integers(2, 5))
    def test_missing_cells_drop_their_rows(self, tmp_path, data, n_rows, n_cols):
        header, rows = csv_grid(data, n_rows, n_cols)
        gone = data.draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows - 1),
                         label="rows with a missing cell")
        expected = np.array([[float(v) for v in rows[i][:-1]]
                             for i in range(n_rows) if i not in gone])
        for i in gone:
            j = data.draw(st.integers(0, n_cols - 1), label="column")
            rows[i][j] = data.draw(st.sampled_from(["?", "", " ? "]), label="marker")
        path = tmp_path / "t.csv"
        write_grid(path, header, rows)
        ds = load_csv(path, scale_targets=True)
        assert (ds.n, ds.dropped_rows) == (n_rows - len(gone), len(gone))
        np.testing.assert_array_equal(ds.inputs, expected)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_rows=st.integers(1, 6), n_cols=st.integers(2, 5),
           drop=st.sampled_from(["none", "drop_cols", "drop_sparse_cols"]))
    def test_defects_are_reported_as_the_row_by_row_reference_does(
            self, tmp_path, data, n_rows, n_cols, drop):
        number = st.floats(-1, 1, allow_nan=False).map(repr)
        rows = data.draw(st.lists(st.lists(st.one_of(number, number.map(" {} ".format)),
                                           min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows), label="rows")
        options = {"label_map": {"M": 1.0, "NA": -1.0}}  # a marker stays missing
        column = st.integers(0, n_cols - 1)
        if drop == "drop_cols":
            # one feature column at least stays
            options[drop] = tuple(data.draw(st.sets(st.integers(0, n_cols - 2),
                                                    max_size=n_cols - 2), label=drop))
            if options[drop]:  # defects that only a dropped column holds, too
                column |= st.sampled_from(options[drop])
        elif drop == "drop_sparse_cols":
            options[drop] = data.draw(st.sampled_from([0.0, 0.2, 0.5]), label=drop)
        special = st.sampled_from(["abc", "nan", "inf", "1e999", "M", "?", "", " NA "])
        for r, c, text in data.draw(st.lists(st.tuples(st.integers(0, n_rows - 1), column,
                                                       special), max_size=4),
                                    label="defects and gaps"):
            rows[r][c] = text
        path = tmp_path / "t.csv"
        write_grid(path, [f"c{j}" for j in range(n_cols)], rows)
        try:
            inputs, targets = reference_load_csv(path, rows, n_cols - 1, **options)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                load_csv(path, scale_targets=False, **options)
            assert str(raised.value) == str(exc)
            return
        ds = load_csv(path, scale_targets=False, **options)
        assert ds.dropped_rows == n_rows - len(targets)
        np.testing.assert_array_equal(ds.inputs, inputs)
        np.testing.assert_array_equal(ds.targets, targets)


class TestLoadMnistIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(3, 4, 4), dtype=np.uint8)
        raw[0, 0, 0] = 0
        raw[1, 0, 0] = 255
        labels = np.array([7, 1, 7], dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, labels)
        images, got_labels = load_mnist_idx(img_path, lab_path)
        assert images.shape == (3, 4, 4)
        assert images.dtype == np.uint8
        np.testing.assert_array_equal(images, raw)
        np.testing.assert_array_equal(got_labels, labels)

    def test_gzipped(self, tmp_path):
        raw = np.zeros((2, 3, 3), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, [0, 1], compress=True)
        images, labels = load_mnist_idx(img_path, lab_path)
        assert images.shape == (2, 3, 3)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_bad_magic(self, tmp_path):
        raw = np.zeros((1, 2, 2), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, [0], image_magic=0x123)
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(img_path, lab_path)

    def test_labels_bad_magic(self, tmp_path):
        raw = np.zeros((1, 2, 2), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, [0], label_magic=0x803)
        with pytest.raises(ValueError, match=f"{lab_path}: bad magic 0x00000803, "
                                             "expected 0x00000801"):
            load_mnist_idx(img_path, lab_path)

    def test_labels_truncated_header(self, tmp_path):
        raw = np.zeros((1, 2, 2), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, [0])
        lab_path.write_bytes(lab_path.read_bytes()[:5])
        with pytest.raises(ValueError, match=f"{lab_path}: truncated IDX header"):
            load_mnist_idx(img_path, lab_path)

    def test_result_is_read_only(self, tmp_path):
        raw = np.ones((2, 3, 3), dtype=np.uint8)
        images, labels = load_mnist_idx(*write_idx_pair(tmp_path, raw, [4, 2]))
        assert not images.flags.writeable and not labels.flags.writeable
        assert labels.dtype == np.uint8 and labels.shape == (2,)

    def test_count_mismatch(self, tmp_path):
        raw = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, [0, 1], label_count=3)
        with pytest.raises(ValueError, match="truncated label|count"):
            load_mnist_idx(img_path, lab_path)

    def test_truncated_pixels(self, tmp_path):
        raw = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, raw, [0, 1])
        data = img_path.read_bytes()
        img_path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_mnist_idx(img_path, lab_path)


def byte_images(seed, shape):
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


class TestFilterPair:
    def test_lower_digit_positive(self):
        images = byte_images(1, (6, 4, 4))
        labels = np.array([3, 5, 3, 9, 5, 3])
        ds = filter_pair(images, labels, 5, 3)
        assert ds.n == 5
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0, 1.0, -1.0, 1.0])
        assert ds.p == 16

    def test_features_are_dct(self):
        images = byte_images(2, (2, 8, 8))
        ds = filter_pair(images, np.array([0, 1]), 0, 1)
        np.testing.assert_allclose(ds.inputs[0], dct2(images[0] / 255.0).ravel(), atol=1e-12)

    def test_scaling_the_selected_rows_matches_scaling_the_stack(self):
        images = byte_images(4, (7, 6, 6))
        labels = np.array([2, 8, 2, 4, 8, 8, 1])
        mask = (labels == 2) | (labels == 8)
        ds = filter_pair(images, labels, 2, 8, dct_block=3)
        np.testing.assert_array_equal(ds.inputs, dct_features((images / 255.0)[mask], keep=3))

    @pytest.mark.parametrize("keep", [None, 8, 1])
    def test_chunked_features_equal_one_transform(self, keep):
        # the features are computed _DCT_CHUNK images at a time; the
        # selection spans two chunks and part of a third
        n = 2 * _DCT_CHUNK + 37
        images = byte_images(6, (n + 20, 8, 8))
        labels = np.r_[np.tile([4, 6], n // 2 + 1)[:n], np.full(20, 9)]
        mask = (labels == 4) | (labels == 6)
        ds = filter_pair(images, labels, 6, 4, dct_block=keep)
        np.testing.assert_array_equal(ds.inputs, dct_features(images[mask] / 255.0, keep))

    def test_peak_memory_stays_near_the_features(self):
        # one chunk's float pixels and transform, not three full-size
        # arrays; the bound leaves room for the Dataset's targets (the
        # Dataset's finiteness check makes no mask of the features)
        images = byte_images(7, (12_000, 8, 8))
        labels = np.arange(12_000) % 2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = filter_pair(images, labels, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 1.25 * ds.inputs.nbytes

    def test_block_selection(self):
        images = byte_images(3, (2, 8, 8))
        ds = filter_pair(images, np.array([0, 1]), 0, 1, dct_block=4)
        assert ds.p == 16

    def test_float_images_rejected(self):
        # scaled pixels would be divided by 255 a second time
        images = byte_images(5, (2, 4, 4)) / 255.0
        with pytest.raises(ValueError, match="uint8"):
            filter_pair(images, np.array([0, 1]), 0, 1)

    def test_same_digit_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            filter_pair(np.zeros((1, 2, 2), dtype=np.uint8), np.array([1]), 1, 1)

    @pytest.mark.parametrize("a, b, match", [
        (True, 0, "a must be a non-negative integer, got True"),
        (0.5, 1, "a must be a non-negative integer, got 0.5"),
        (0, np.float64(1.0), "b must be a non-negative integer, got "),
        (1, -1, "b must be a non-negative integer, got -1"),
        (10, 1, "digits must be in 0..9, got 10 and 1"),
    ])
    def test_digits_are_checked_by_name(self, a, b, match):
        images = byte_images(8, (4, 2, 2))
        with pytest.raises(ValueError, match=match):
            filter_pair(images, np.array([0, 1, 0, 1]), a, b)

    def test_numpy_integer_digits_tag_the_set(self):
        ds = filter_pair(byte_images(8, (4, 2, 2)), np.array([0, 1, 0, 1]), np.int64(1), 0)
        assert ds.tag == "mnist-1v0" and ds.n == 4

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            filter_pair(np.zeros((2, 2, 2), dtype=np.uint8), np.array([4, 4]), 0, 1)


class TestGenerators:
    def test_xor_truth_table(self):
        ds = gen_logic_gate("XOR")
        np.testing.assert_array_equal(
            ds.inputs, [[-1, -1], [-1, 1], [1, -1], [1, 1]])
        np.testing.assert_array_equal(ds.targets, [-1, 1, 1, -1])

    def test_and_truth_table(self):
        np.testing.assert_array_equal(gen_logic_gate("AND").targets, [-1, -1, -1, 1])

    def test_nand_is_negated_and(self):
        np.testing.assert_array_equal(gen_logic_gate("NAND").targets,
                                      -gen_logic_gate("AND").targets)

    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gen_logic_gate("IMPLIES")

    def test_sinc_values_match_definition(self):
        train, val, test = gen_sinc(n_train=50, n_val=10, n_test=10, seed=3)
        assert (train.n, val.n, test.n) == (50, 10, 10)
        x = train.inputs.ravel()
        expected = np.where(x == 0, 1.0, np.sin(x) / np.where(x == 0, 1.0, x))
        np.testing.assert_allclose(train.targets, expected, atol=1e-12)

    def test_sinc_noise_config(self):
        train, _, _ = gen_sinc(noise_sigma=0.01, seed=4)
        clean, _, _ = gen_sinc(noise_sigma=0.0, seed=4)
        assert train.n == 800
        assert np.std(train.targets - clean.targets) == pytest.approx(0.01, abs=0.002)

    def test_sinc_zero_is_one(self):
        assert np.sinc(0.0) == 1.0  # removable singularity handled by np.sinc

    def test_generators_reproducible(self):
        a = gen_two_moons(n=40, noise=0.05, seed=9)
        b = gen_two_moons(n=40, noise=0.05, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        s1 = gen_sinc(seed=2)[0]
        s2 = gen_sinc(seed=2)[0]
        np.testing.assert_array_equal(s1.inputs, s2.inputs)

    def test_moons_lie_on_arcs_without_noise(self):
        ds = gen_two_moons(n=200, noise=0.0, seed=5)
        up = ds.inputs[ds.targets == 1]
        dn = ds.inputs[ds.targets == -1]
        np.testing.assert_allclose(np.hypot(up[:, 0], up[:, 1]), 1.0, atol=1e-9)
        assert np.all(up[:, 1] >= -1e-9)
        np.testing.assert_allclose(np.hypot(dn[:, 0] - 1.0, dn[:, 1] - 0.5), 1.0,
                                   atol=1e-9)
        assert np.all(dn[:, 1] <= 0.5 + 1e-9)

    def test_moons_balance(self):
        for n in (10, 11, 100, 101):
            ds = gen_two_moons(n=n, noise=0.07, seed=6)
            assert abs(np.sum(ds.targets == 1) - np.sum(ds.targets == -1)) <= 1

    def test_moons_benchmark_configuration(self):
        ds = gen_two_moons(n=1000, noise=0.07, seed=0)
        assert ds.n == 1000 and ds.p == 2

    @pytest.mark.parametrize("generator, field, value", [
        (gen_two_moons, "seed", -1),
        (gen_two_moons, "seed", 2.5),
        (gen_sinc, "seed", -1),
        (gen_sinc, "seed", 2.5),
        (gen_sinc, "n_train", 0),
        (gen_sinc, "n_val", 2.5),
        (gen_sinc, "n_test", -3),
        (gen_two_moons, "noise", np.nan),
        (gen_two_moons, "noise", np.inf),
        (gen_sinc, "noise_sigma", np.nan),
    ])
    def test_bad_setting_is_rejected_by_name(self, generator, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            generator(**{field: value})


class TestRealFiles:
    """Shape checks against the published files; skipped when absent."""

    def test_mnist_standard_training_split(self, data_dir):
        from conftest import require_dataset
        require_dataset("mnist", data_dir)
        images, labels = load_mnist_idx(data_dir / "train-images-idx3-ubyte.gz",
                                        data_dir / "train-labels-idx1-ubyte.gz")
        assert images.shape == (60000, 28, 28)
        assert int(np.sum(labels == 0)) == 5923
        assert int(np.sum(labels == 1)) == 6742

    def test_ccpp_shape(self, data_dir):
        from conftest import require_dataset
        require_dataset("ccpp", data_dir)
        ds = load_csv(data_dir / "ccpp.csv")
        assert ds.p == 4
        assert ds.n == 9568

    def test_wdbc_shape(self, data_dir):
        from conftest import require_dataset
        require_dataset("wdbc", data_dir)
        ds = load_csv(data_dir / "wdbc.data", target_column=1, has_header=False,
                      drop_cols=(0,), label_map={"M": 1.0, "B": -1.0})
        assert (ds.n, ds.p) == (569, 30)
        assert int(np.sum(ds.targets == 1.0)) == 212  # malignant
        assert int(np.sum(ds.targets == -1.0)) == 357


class TestFolds:
    def test_singleton_folds(self):
        plan = kfold_plan(10, k=10, seed=0)
        assert all(f.size == 1 for f in plan.folds)

    def test_partition_property(self):
        plan = kfold_plan(25, k=4, seed=1)
        union = np.sort(np.concatenate(plan.folds))
        np.testing.assert_array_equal(union, np.arange(25))
        sizes = [f.size for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_stratified_counts(self):
        labels = np.array([1.0] * 60 + [-1.0] * 40)
        plan = kfold_plan(100, k=10, seed=2, labels=labels)
        for fold in plan.folds:
            pos = int(np.sum(labels[fold] == 1))
            neg = int(np.sum(labels[fold] == -1))
            assert abs(pos - 6) <= 1
            assert abs(neg - 4) <= 1
        sizes = [f.size for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_stratified_ragged_classes(self):
        rng = np.random.default_rng(3)
        labels = np.where(rng.uniform(size=53) < 0.37, 1.0, -1.0)
        plan = kfold_plan(53, k=7, seed=3, labels=labels)
        union = np.sort(np.concatenate(plan.folds))
        np.testing.assert_array_equal(union, np.arange(53))
        sizes = [f.size for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(2, 120), seed=st.integers(0, 2**16),
           stratified=st.booleans())
    def test_fold_properties(self, data, n, seed, stratified):
        k = data.draw(st.integers(2, min(n, 13)), label="k")
        labels = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                             min_size=n, max_size=n), label="labels"))
        plan = kfold_plan(n, k=k, seed=seed, labels=labels if stratified else None)
        rows = np.concatenate(plan.folds)
        np.testing.assert_array_equal(np.sort(rows), np.arange(n))  # disjoint and covering
        sizes = [f.size for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        if stratified:
            for cls in (1.0, -1.0):
                counts = [int(np.sum(labels[f] == cls)) for f in plan.folds]
                assert max(counts) - min(counts) <= 1

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kfold_plan(5, k=6)

    def test_deterministic(self):
        a = kfold_plan(30, k=5, seed=4)
        b = kfold_plan(30, k=5, seed=4)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_split_disjoint_and_complete(self):
        ds = gen_two_moons(n=33, noise=0.05, seed=7)
        for plan in (kfold_plan(33, k=5, seed=5),
                     kfold_plan(33, k=5, seed=5, labels=ds.targets)):
            for fold in range(5):
                train, test = split(ds, plan, fold)
                assert train.n + test.n == 33
                train_rows = {tuple(r) for r in train.inputs}
                test_rows = {tuple(r) for r in test.inputs}
                assert not train_rows & test_rows
                # the training set is the fold's complement, bit for bit and in row order
                complement = np.setdiff1d(np.arange(33), plan.folds[fold])
                expected = ds.subset(np.sort(complement))
                for got, want in ((train.inputs, expected.inputs),
                                  (train.targets, expected.targets)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("folds", [
        ([0, 1], [1, 2]),     # row 1 in both folds
        ([0, 1], [3]),        # row 2 in none
        ([0, 1], [2, 4]),     # row 4 past the end
        ([-1, 0], [1, 2]),    # a negative index
    ])
    def test_fold_plan_must_partition_the_rows(self, folds):
        with pytest.raises(ValueError, match="partition"):
            FoldPlan(k=2, folds=tuple(np.array(f) for f in folds))

    def test_split_bad_fold(self):
        ds = gen_two_moons(n=10, noise=0.0, seed=8)
        plan = kfold_plan(10, k=5, seed=6)
        with pytest.raises(ValueError, match="fold"):
            split(ds, plan, 5)
