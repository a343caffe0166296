import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osd.dataset import Dataset, Labels, load_csv, min_max_normalize
from osd.errors import DataError


def test_load_plain_csv(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,0,0\n2,0,0\n3,0,0\n")
    ds, labels = load_csv(f)
    assert ds.count == 3 and ds.dim == 3
    assert labels is None
    np.testing.assert_array_equal(ds.points[1], [2, 0, 0])


def test_load_with_label_column(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("a,b,y\n1,2,0\n3,4,0\n5,6,1\n")
    ds, labels = load_csv(f, "y")
    assert ds.dim == 2
    np.testing.assert_array_equal(labels.flags, [0, 0, 1])


def test_load_label_by_index_without_header(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2,0\n3,4,1\n")
    ds, labels = load_csv(f, 2)
    assert ds.dim == 2
    np.testing.assert_array_equal(labels.flags, [0, 1])


def test_byte_order_mark_keeps_first_row(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
    ds, _ = load_csv(f)
    np.testing.assert_array_equal(ds.points, [[1, 2], [3, 4], [5, 6]])


def test_byte_order_mark_header_names_first_column(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_bytes(b"\xef\xbb\xbfy,a,b\n0,1,2\n1,3,4\n")
    ds, labels = load_csv(f, "y")
    np.testing.assert_array_equal(ds.points, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(labels.flags, [0, 1])


def test_fractional_label_index_rejected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2,0\n3,4,1\n")
    for bad in ("1.5", 1.5, "nan"):
        with pytest.raises(DataError, match="not an integer"):
            load_csv(f, bad)
    _, labels = load_csv(f, "2")  # a numeric string selects by index
    np.testing.assert_array_equal(labels.flags, [0, 1])


def test_array_holders_compare_by_identity():
    from osd.blocks import divide
    from osd.knngraph import build

    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    g = build(ds, 1)
    holders = (ds, Labels(np.array([0, 1, 0])), g, divide(g, -1.5))
    for obj in holders:
        assert obj == obj and hash(obj) == hash(obj)
        assert obj != dataclasses.replace(obj)  # equal content, another object
    assert len(set(holders)) == len(holders)


def test_non_numeric_cell_names_row(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,0\nabc,1\n3,2\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(f)


@pytest.mark.parametrize(
    "text, label, message",
    [
        ("x,y\n1,0\n\nabc,3", None, "non-numeric cell 'abc' at row 4, column 1"),
        ("1,0\n\n\n2", None, "ragged row 4: expected 2 cells, got 1"),
        ("x,y\n1,0\n\n2,2\n", "y", "label value 2.0 at row 4 is not 0 or 1"),
        ("x,y\n1,2\n\n3,nan\n", None, "non-finite cell 'nan' at row 4, column 2"),
        ("1,0\n\n-inf,1\n", None, "non-finite cell '-inf' at row 3, column 1"),
        ("x,y,label\n1,0,1\n\n2, inf,0\n", "label", "non-finite cell ' inf' at row 4, column 2"),
        ("x,label\n\n1,nan\n2,0\n", "label", "label value nan at row 3 is not 0 or 1"),
    ],
)
def test_messages_name_the_file_line_after_blank_lines(tmp_path, text, label, message):
    f = tmp_path / "pts.csv"
    f.write_text(text)
    with pytest.raises(DataError) as info:
        load_csv(f, label)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, label, message",
    [
        ("", None, "empty file: {path}"),
        ("\n\n", None, "empty file: {path}"),
        ("x,y\n", None, "no data rows in {path}"),
        ("1,2\n3,4\n", "y", "label column 'y' requested but file has no header"),
        ("x,y\n1,0\n3,1\n", "label", "label column 'label' not found in header"),
        ("1,2\n3,4\n", 2, "label column index 2 out of range"),
        ("1,2\n3,4\n", "-1", "label column index -1 out of range"),
        ("1,2\n3,4\n", 10**400, "label column index out of range"),
        ("1,2\n3,4\n", -(10**400), "label column index out of range"),
    ],
    ids=["empty", "blank-lines", "header-only", "name-without-header", "name-not-in-header",
         "index-past-end", "negative-index", "index-beyond-float", "negative-beyond-float"],
)
def test_refusals_without_a_file_line_name_the_file_or_label_column(tmp_path, text, label, message):
    f = tmp_path / "pts.csv"
    f.write_text(text)
    with pytest.raises(DataError) as info:
        load_csv(f, label)
    assert str(info.value) == message.format(path=f)


def test_missing_file():
    with pytest.raises(DataError, match="no such file"):
        load_csv("/nonexistent/file.csv")


@pytest.mark.parametrize(
    "text, label, message",
    [
        ("x,y,label\n1,2\n3,4\n", "label", "ragged row 2: expected 3 cells, got 2"),
        ("x,y\n1,0,0\n3,1,1\n", "y", "ragged row 2: expected 2 cells, got 3"),
    ],
    ids=["wide", "narrow"],
)
def test_header_of_another_width_is_a_ragged_row(tmp_path, text, label, message):
    f = tmp_path / "pts.csv"
    f.write_text(text)
    with pytest.raises(DataError) as info:
        load_csv(f, label)
    assert str(info.value) == message


def test_non_utf8_file_is_data_error(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_bytes(b"\xff\xfe1,2\n")
    with pytest.raises(DataError, match=re.escape(f"cannot read {f}:")):
        load_csv(f)


def test_directory_is_data_error(tmp_path):
    with pytest.raises(DataError, match=re.escape(f"cannot read {tmp_path}:")):
        load_csv(tmp_path)


def test_ragged_row_rejected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="ragged"):
        load_csv(f)


def test_label_outside_binary_rejected(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y\n1,0\n2,2\n")
    with pytest.raises(DataError, match="not 0 or 1"):
        load_csv(f, "y")


def test_dataset_rejects_nan_and_single_row():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DataError, match="at least 2"):
        Dataset(np.array([[1.0, 2.0]]))


def test_holders_refuse_arrays_of_another_dimension():
    for points in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(DataError, match="points must be a 2-d array"):
            Dataset(points)
    for flags in (np.zeros((3, 1)), np.int8(0)):
        with pytest.raises(DataError, match="labels must be 1-d"):
            Labels(flags)


def test_dataset_rejects_zero_feature_columns(tmp_path):
    with pytest.raises(DataError, match="feature column"):
        Dataset(np.empty((3, 0)))
    f = tmp_path / "labels.csv"
    f.write_text("label\n0\n1\n0\n")
    with pytest.raises(DataError, match="feature column"):
        load_csv(f, "label")


def test_dataset_points_are_read_only():
    ds = Dataset(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ds.points[0, 0] = 1.0


def test_labels_validate():
    with pytest.raises(DataError):
        Labels(np.array([0, 2, 1]))
    assert Labels(np.array([0, 1, 1])).n_outliers == 2


def test_normalize_two_point_range():
    ds = Dataset(np.array([[0.0], [10.0]]))
    np.testing.assert_array_equal(min_max_normalize(ds).points, [[0.0], [1.0]])


def test_normalize_constant_feature_maps_to_zero():
    ds = Dataset(np.array([[5.0], [5.0]]))
    np.testing.assert_array_equal(min_max_normalize(ds).points, [[0.0], [0.0]])


def test_normalize_per_feature_affine():
    # hand oracle: x maps (1,3) -> (0,1), y maps (0,4) -> (0,1)
    ds = Dataset(np.array([[1.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(min_max_normalize(ds).points, [[0, 0], [1, 1]])


def test_normalize_column_whose_span_overflows():
    # hi - lo overflows for this finite column; pytest makes any warning an error
    ds = Dataset(np.array([[-1e308], [1e308], [0.0]]))
    np.testing.assert_array_equal(min_max_normalize(ds).points, [[0.0], [1.0], [0.5]])


# every finite float, with the two largest magnitudes drawn often: a column
# holding both has a span beyond the float range
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-np.finfo(float).max, np.finfo(float).max])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.lists(
            st.lists(FINITE, min_size=d, max_size=d), min_size=2, max_size=12
        )
    )
)
def test_normalize_idempotent(rows):
    ds = Dataset(np.array(rows))
    once = min_max_normalize(ds)
    twice = min_max_normalize(once)
    np.testing.assert_array_equal(once.points, twice.points)


def test_csv_round_trip_preserves_rows_and_labels(tmp_path):
    from osd.pipeline import write_points_csv

    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20, 3)))
    labels = Labels((rng.random(20) < 0.2).astype(int))
    out = tmp_path / "dump.csv"
    write_points_csv(out, min_max_normalize(ds), labels)
    back, back_labels = load_csv(out, "label")
    assert back.count == ds.count
    np.testing.assert_array_equal(back_labels.flags, labels.flags)
