import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from osd.dataset import Dataset, Labels, _load_rows, load_csv, min_max_normalize
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
    for bad in ("1.5", 1.5, "nan", True, False, np.True_):
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
        ("\n\nx,y\n", None, "no data rows in {path}"),
        ("1,2\n3,4\n", "y", "label column 'y' requested but file has no header"),
        ("x,y\n1,0\n3,1\n", "label", "label column 'label' not found in header"),
        ("1,2\n3,4\n", 2, "label column index 2 out of range"),
        ("1,2\n3,4\n", "-1", "label column index -1 out of range"),
        ("1,2\n3,4\n", 10**400, "label column index out of range"),
        ("1,2\n3,4\n", -(10**400), "label column index out of range"),
        ("1,2\n3,4\n", "1e400", "label column index out of range"),
        ("1,2\n3,4\n", "-1e400", "label column index out of range"),
        ("1,2\n3,4\n", "1" * 401, "label column index out of range"),
    ],
    ids=["empty", "blank-lines", "header-only", "blank-lines-then-header-only",
         "name-without-header", "name-not-in-header", "index-past-end", "negative-index",
         "index-beyond-float", "negative-beyond-float", "string-beyond-float",
         "negative-string-beyond-float", "string-of-401-digits"],
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


def test_cell_beyond_csv_field_limit_is_data_error(tmp_path):
    # csv refuses a field longer than 131072 characters with csv.Error
    f = tmp_path / "pts.csv"
    f.write_text("x,label\n" + "1" * 140_000 + ",0\n2,1\n")
    with pytest.raises(DataError, match=re.escape(f"cannot read {f}:") + ".*field limit"):
        load_csv(f, "label")


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


def test_diameter_whose_squares_pass_the_float_range():
    t = np.linspace(0.0, 3e154, 400)  # the span squared is 9e308
    assert Dataset(np.column_stack([t, 0.5 * t])).diameter() == pytest.approx(3e154 * 1.25**0.5)
    with pytest.warns(RuntimeWarning, match="overflow"):  # the diagonal itself is 2e308
        assert Dataset(np.array([[-1e308], [1e308]])).diameter() == np.inf


# away from 0, a coordinate scaled by 2^-1000 stays normal
MODERATE = st.floats(-1e6, 1e6).filter(lambda v: v == 0 or abs(v) >= 1e-3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(MODERATE, min_size=d, max_size=d), min_size=2, max_size=12)
    ),
    st.integers(-1000, 1000),
)
def test_diameter_scales_exactly_by_powers_of_two(rows, e):
    x = np.array(rows)
    scaled = np.ldexp(x, e)
    assert np.all((scaled == 0) | (np.abs(scaled) >= np.finfo(float).tiny))
    assert Dataset(scaled).diameter() == np.ldexp(Dataset(x).diameter(), e)


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


@pytest.mark.parametrize("n", [2, 4096, 4097, 9000])  # around and across a block of rows
def test_points_csv_bytes_equal_savetxt(tmp_path, n):
    from osd.pipeline import write_points_csv

    rng = np.random.default_rng(n)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, np.finfo(float).max, 3.0, -7.0, 1e16]
    points = np.column_stack([rng.normal(size=n), rng.choice(special, n),
                              rng.integers(-1000, 1000, n).astype(float)])
    labels = Labels(rng.integers(0, 2, n))
    for flags, header in ((None, "x0,x1,x2"), (labels, "x0,x1,x2,label")):
        data = points if flags is None else np.column_stack([points, flags.flags])
        np.savetxt(tmp_path / "ref.csv", data, delimiter=",", header=header, comments="",
                   fmt="%.17g")
        write_points_csv(tmp_path / "out.csv", Dataset(points), flags)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_partition_csv_bytes_equal_savetxt(tmp_path):
    from osd.blocks import divide
    from osd.knngraph import build
    from osd.pipeline import write_partition_csv

    ds = Dataset(np.random.default_rng(0).normal(size=(9000, 2)))
    graph = build(ds, 3)
    partition = divide(graph, np.quantile(graph.edge_weights, 0.5))
    assert 1 < partition.n_blocks < partition.n_objects  # more than 4096 rows, mixed ids
    rows = np.column_stack([np.arange(partition.n_objects), partition.assignment])
    np.savetxt(tmp_path / "ref.csv", rows, fmt="%d", delimiter=",",
               header="object_id,block_id", comments="")
    write_partition_csv(tmp_path / "out.csv", partition)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _outcome(load, path, label):
    try:
        ds, labels = load(path, label)
    except DataError as exc:
        return type(exc), str(exc)
    flags = None if labels is None else labels.flags.tobytes()
    return ds.points.shape, ds.points.tobytes(), flags


# Spellings float() and loadtxt may disagree on: underscores, Unicode digits and
# spaces, signs, bare points, exponents, inf/nan, hex, Fortran exponents, quotes.
ODD_CELLS = st.sampled_from([
    "1_0", "1_000.5", "\u0661", "\u0663.\u0665", "\uff11", " 1 ", "\t2\t", "\xa03", "4\xa0",
    "\u30005", "+1", "-2", "+-1", "1.", ".5", "-.5", "1e5", "1E-3", "2e+308", "1e400", "-0",
    "inf", "-Infinity", "+inf", "iNf", "nan", "-NAN", "0x1A", "1d5", "0b1", "1.5j", "1#2", "#1",
    '"1"', '"2,3"', '" 4"', "", " ", "abc", "0", "1", "0.0", "1.0", "2",
])
NUMBERS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.integers(-10**20, 10**20).map(str)
           | st.from_regex(r"[+-]?[0-9]{1,22}(\.[0-9]{0,22})?([eE][+-]?[0-9]{1,3})?",
                           fullmatch=True))
FLAGS = st.sampled_from(["0", "1", "0.0", "1.", "-0", " 1"])
NAMES = st.sampled_from(["x", "y", "label", " label ", '"la,bel"', "1", "nan", ""])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])
WHITESPACE_LINES = st.sampled_from([" ", "\t", "\xa0"])


@st.composite
def csv_texts(draw):
    # Half the files are plain, so that the one-pass parse runs to the end; in
    # the other half one cell in four is odd, and rows may be ragged or blank.
    width = draw(st.integers(1, 3))
    flag_col = draw(st.integers(0, width - 1))  # the column of 0/1 spellings
    odd = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(NAMES, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0 if odd else 2, 6))):
        n = draw(st.sampled_from([width] * 6 + [width - 1, width + 1])) if odd else width
        cells = [draw(ODD_CELLS if odd and draw(st.integers(0, 3)) == 0
                      else FLAGS if c == flag_col else NUMBERS) for c in range(n)]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(WHITESPACE_LINES) if odd and draw(st.booleans()) else ""
        lines.insert(draw(st.integers(0, len(lines))), blank)
    text = "".join(line + draw(ENDS) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # no line end after the last line
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    label = draw(st.sampled_from([None, None, flag_col, flag_col, str(flag_col), "label", "x"]))
    return bom + text, label


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example(("1\n1#2\n", None))  # a comment character is a cell like any other
def test_load_csv_equals_the_row_loop(tmp_path, case):
    # load_csv parses most files in one loadtxt pass and hands the rest to the
    # row loop; either way it must return the row loop's array bit for bit, or
    # raise its exact message.
    text, label = case
    f = tmp_path / "pts.csv"
    f.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, f, label) == _outcome(_load_rows, f, label)


@pytest.mark.parametrize(
    "text, label",
    [("x,y\n1,2\n3,4\n", None), ("1,2\n3,4\n", None), ("\n\nx,label\n\n1,0\n2,1\n", "label"),
     ("x\r\n1\r\n\r\n2\r\n", None), ("x\r1\r2\r", None), ("\ufeff1\n2\n", None),
     ("x,y\n 1 ,\t2\t\n.5,1.\n+1e5,-2E-3\n", None)],
    ids=["header", "no-header", "blank-lines-and-label", "crlf", "bare-cr", "bom", "odd-spacing"],
)
def test_plain_files_never_reach_the_row_loop(tmp_path, monkeypatch, text, label):
    f = tmp_path / "pts.csv"
    f.write_bytes(text.encode("utf-8"))
    expected = _outcome(_load_rows, f, label)

    def refuse(*args):
        raise AssertionError("row loop called")

    monkeypatch.setattr("osd.dataset._load_rows", refuse)
    assert _outcome(load_csv, f, label) == expected
