import csv
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import difference, frames, loads_csv, traced_peak
from _oracles import parse_csv_rows, write_csv_per_value
from gasnorm import SeriesFrame, SplitSpec, load_csv, split, windows, write_csv
from gasnorm.errors import ValidationError
from gasnorm.series import _BLOCK_ROWS


def make_frame(n, k=1, seed=0):
    rng = np.random.default_rng(seed)
    return SeriesFrame(rng.normal(size=(n, k)))


OVER_LIMIT = "9" * (csv.field_size_limit() + 1)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "-4.9e-324", "2.2250738585072014e-308", " 2 ", '"3"']),
)
FAULTS = st.sampled_from(
    ["1e999", "nan", "-inf", "x", "", '"4,5"', '"6\n7"', '"a""b"'] * 4 + [OVER_LIMIT]
)
NAMES = st.sampled_from(["a", "b", " c ", '"d,e"', "nan", "inf"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw, lead=st.just(0)):
    """CSV bytes: a header, then rows of numbers; some files hold faults of any kind.

    ``lead`` draws how many copies of one valid row come right after the
    header; half of the files with such rows turn one of the first
    ``_BLOCK_ROWS`` non-finite.
    """
    width = draw(st.integers(1, 3))
    faulty = draw(st.booleans())
    cells = st.one_of(NUMBERS, FAULTS) if faulty else NUMBERS
    widths = st.one_of(st.just(width), st.integers(0, 4)) if faulty else st.just(width)
    header = st.one_of(NAMES, NAMES, NAMES, cells) if faulty else NAMES
    lines = [draw(st.lists(header, min_size=width, max_size=width, unique=not faulty))]
    for _ in range(draw(st.integers(0, 5))):
        n = draw(widths)
        lines.append(draw(st.lists(cells, min_size=n, max_size=n)))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([[], ["  "]])))  # blank or whitespace-only
    lines = [",".join(line) + draw(LINE_ENDS) for line in lines]
    n = draw(lead)
    if n:
        row = draw(st.lists(NUMBERS, min_size=width, max_size=width))
        lines[1:1] = [",".join(row) + "\n"] * n
        if draw(st.booleans()):
            at = draw(st.integers(1, min(n, _BLOCK_ROWS)))
            bad = draw(st.sampled_from(["nan", "-inf", "1e999"]))
            lines[at] = ",".join([*row[1:], bad]) + "\n"
    data = "".join(lines).encode()
    if faulty and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _outcome(read, path):
    """What reading ``path`` gives: the frame's bits and names, or the error message."""
    try:
        frame = read(path)
    except ValidationError as exc:
        return str(exc)
    return frame.values.shape, frame.values.tobytes(), frame.feature_names


def _oracle_read(path):
    with open(path, newline="") as fh:
        return parse_csv_rows(fh, str(path))


class TestLoadCsv:
    @settings(max_examples=300, deadline=None)
    @given(csv_files())
    @example(b"a,b\n\n1,2\n   \n3,4\n")  # a blank line, then a whitespace-only row
    @example(b"a,b\r\n1,2\r\n\r\n3,4\r\n")
    @example(b'"a,b",c\n"1","2"\n3,"4"\n')
    @example(b"a,b\n1,2\n3\n4,5\n")
    @example(b"a,b\n1,nan\nx,2,3\n")
    @example(b"a\n1\n-inf\n")
    @example(b"a,b\n-0.0,5e-324\n-4.9e-324,2.2250738585072014e-308\n")
    @example(b"a,b\n")
    @example(b"")
    @example(b"1.5,b\nx\n")
    @example(b"a,a\n1,2\n")
    @example(b"a\nx\n1\n\xff\n")
    @example(f"a\nx\n{OVER_LIMIT}\n".encode())
    def test_matches_the_list_based_reader(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(data)
            assert _outcome(load_csv, path) == _outcome(_oracle_read, path)

    @settings(max_examples=60, deadline=None)
    @given(csv_files(st.sampled_from([_BLOCK_ROWS + d for d in (-1, 0, 1, _BLOCK_ROWS)])))
    def test_matches_the_list_based_reader_across_block_edges(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(data)
            assert _outcome(load_csv, path) == _outcome(_oracle_read, path)

    def test_names_the_fault_of_a_file_read_through_a_pipe(self):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(b"a,b\n1,2\n3,x\n")
        path = f"/dev/fd/{read_end}"
        try:
            with pytest.raises(ValidationError) as exc:
                load_csv(path)
        finally:
            os.close(read_end)
        assert str(exc.value) == f"{path}: non-numeric cell at row 1, column 1: 'x'"

    def test_holds_under_three_times_its_values(self, tmp_path):
        # a list of string rows took about 14x
        path = tmp_path / "long.csv"
        write_csv(make_frame(20_000, 3), path)
        frame, peak = traced_peak(load_csv, path)
        assert peak < 3 * frame.values.nbytes

    def test_basic_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        frame = load_csv(p)
        assert frame.feature_names == ["a", "b"]
        assert len(frame) == 3
        np.testing.assert_array_equal(frame.values, [[1, 2], [3, 4], [5, 6]])

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_csv(p)

    def test_nan_cell_errors(self):
        with pytest.raises(ValidationError, match="row 1, column 0"):
            loads_csv("a\n1\nNaN\n")

    def test_inf_cell_errors(self):
        with pytest.raises(ValidationError, match="non-finite"):
            loads_csv("a\n1\ninf\n")

    def test_non_numeric_cell_names_position(self):
        with pytest.raises(ValidationError, match="row 0, column 1"):
            loads_csv("a,b\n1,x\n")

    def test_ragged_rows_error(self):
        with pytest.raises(ValidationError, match="ragged"):
            loads_csv("a,b\n1,2\n3\n")

    @pytest.mark.parametrize(
        "text, first",
        [
            ("a,b\n1,x\n3\n", "non-numeric cell at row 0, column 1"),
            ("a,b\n1,2\n3\n4,x\n", "ragged row 1"),
            ("a,b\n1,2\n3,x,5\n", "ragged row 1"),
            ("a,b\n1,2\n3,4,5\n6\n", "ragged row 1"),
            ("a,b\n1,inf\nx,2\n", "non-finite value at row 0, column 1"),
            ("a,b\nx,inf\n", "non-numeric cell at row 0, column 0"),
            ("a,b\n1,nan\n1,2,3\n", "non-finite value at row 0, column 1"),
            ("a,b\n1,2\nx,inf\n", "non-numeric cell at row 1, column 0"),
            ("a,b\n1,2\n1e999,x\n", "non-finite value at row 1, column 0"),
        ],
    )
    def test_first_of_two_faults_is_named(self, text, first):
        with pytest.raises(ValidationError, match=first):
            loads_csv(text)

    @pytest.mark.parametrize("header", ["1.5,2", "a,-3", "a,1e5"])
    def test_numeric_header_cell_errors(self, header):
        with pytest.raises(ValidationError, match="header cell"):
            loads_csv(header + "\n3,4\n5,6\n")

    def test_non_finite_header_names_load(self):
        assert loads_csv("nan,inf\n3,4\n").feature_names == ["nan", "inf"]

    def test_quoted_names_round_trip(self, tmp_path):
        frame = loads_csv('"a,b",c\n1,2\n')
        assert frame.feature_names == ["a,b", "c"]
        write_csv(frame, tmp_path / "q.csv")
        assert (tmp_path / "q.csv").read_text() == '"a,b",c\n1,2\n'
        assert load_csv(tmp_path / "q.csv").feature_names == ["a,b", "c"]

    @settings(max_examples=40, deadline=None)
    @given(frames())
    def test_write_matches_per_value_oracle(self, frame):
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
            write_csv(frame, new)
            write_csv_per_value(frame.values, frame.feature_names, ref)
            assert new.read_bytes() == ref.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(frames())
    def test_write_then_load_is_bit_exact(self, frame):
        with tempfile.TemporaryDirectory() as tmp:
            write_csv(frame, Path(tmp) / "rt.csv")
            back = load_csv(Path(tmp) / "rt.csv")
        assert back.values.tobytes() == frame.values.tobytes()
        assert back.feature_names == frame.feature_names

    def test_crlf_accepted(self):
        frame = loads_csv("a\r\n1\r\n2\r\n")
        assert len(frame) == 2

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        values = rng.normal(scale=1e3, size=(40, 3)) * 10.0 ** rng.integers(-8, 8, (40, 3))
        frame = SeriesFrame(values, ["a", "b", "c"])
        p = tmp_path / "rt.csv"
        write_csv(frame, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.values, frame.values)
        assert back.feature_names == frame.feature_names


class TestSeriesFrame:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            SeriesFrame(np.array([[1.0], [np.nan]]))

    def test_immutable_values(self):
        frame = make_frame(5)
        with pytest.raises(ValueError):
            frame.values[0, 0] = 7.0

    @pytest.mark.parametrize(
        "names, message",
        [(["x", "x"], "duplicate 'x' feature name in column 1"),
         (["x", ""], "empty feature name in column 1")],
    )
    def test_rejects_duplicate_or_empty_names(self, names, message):
        with pytest.raises(ValidationError, match=message):
            SeriesFrame(np.zeros((3, 2)), names)

    def test_unknown_feature(self):
        with pytest.raises(ValidationError):
            make_frame(5).feature("nope")


class TestDifference:
    def test_hand_case_order_1(self):
        frame = SeriesFrame(np.array([1.0, 3.0, 6.0]))
        np.testing.assert_array_equal(difference(frame, 1).values[:, 0], [2, 3])

    def test_constant_series_zeros(self):
        frame = SeriesFrame(np.full(10, 3.5))
        assert np.all(difference(frame, 1).values == 0)

    def test_order_2_hand_case(self):
        frame = SeriesFrame(np.array([1.0, 3.0, 6.0, 10.0]))
        np.testing.assert_array_equal(difference(frame, 2).values[:, 0], [5, 7])

    def test_order_too_large(self):
        with pytest.raises(ValidationError):
            difference(make_frame(3), 3)

    def test_cumsum_reconstructs(self):
        frame = make_frame(100, 2, seed=1)
        d = difference(frame, 1)
        rebuilt = np.concatenate([frame.values[:1], frame.values[:1] + np.cumsum(d.values, axis=0)])
        np.testing.assert_allclose(rebuilt, frame.values, atol=1e-12)


class TestSplit:
    def test_100_steps(self):
        tr, va, te = split(make_frame(100), SplitSpec(0.6, 0.2))
        assert (len(tr), len(va), len(te)) == (60, 20, 20)

    def test_empty_val_allowed(self):
        tr, va, te = split(make_frame(10), SplitSpec(0.5, 0.0))
        assert (len(tr), len(va), len(te)) == (5, 0, 5)

    def test_floor_rounding_small_series(self):
        tr, va, te = split(make_frame(7), SplitSpec(0.5, 0.25))
        assert (len(tr), len(va), len(te)) == (3, 1, 3)

    def test_empty_train_errors(self):
        with pytest.raises(ValidationError):
            split(make_frame(3), SplitSpec(0.1, 0.2))

    def test_geometry_checked_against_train(self):
        with pytest.raises(ValidationError):
            split(make_frame(20), SplitSpec(0.5, 0.2, context_length=8, horizon=5))

    @given(n=st.integers(10, 300), tf=st.floats(0.2, 0.7), vf=st.floats(0.0, 0.25))
    @settings(max_examples=50, deadline=None)
    def test_segments_concatenate(self, n, tf, vf):
        frame = make_frame(n, seed=3)
        try:
            tr, va, te = split(frame, SplitSpec(tf, vf))
        except ValidationError:
            return
        joined = np.concatenate([tr.values, va.values, te.values])
        np.testing.assert_array_equal(joined, frame.values)

    def test_invalid_fractions(self):
        with pytest.raises(ValidationError):
            SplitSpec(0.8, 0.3)
        with pytest.raises(ValidationError):
            SplitSpec(0.0, 0.2)


class TestWindows:
    def test_count_stride_1(self):
        pairs = windows(make_frame(10), 3, 2, 1)
        assert len(pairs) == 6

    def test_exact_fit_single_window(self):
        pairs = windows(make_frame(5), 3, 2)
        assert len(pairs) == 1

    def test_large_stride_single_window(self):
        pairs = windows(make_frame(10), 3, 2, stride=10)
        assert len(pairs) == 1

    def test_too_long_errors(self):
        with pytest.raises(ValidationError):
            windows(make_frame(4), 3, 2)

    def test_contents_contiguous(self):
        frame = SeriesFrame(np.arange(8.0))
        win = windows(frame, 3, 2, 1)[2]
        ctx, tgt = win[:3], win[3:]
        np.testing.assert_array_equal(ctx[:, 0], [2, 3, 4])
        np.testing.assert_array_equal(tgt[:, 0], [5, 6])

    def test_contents_with_stride(self):
        frame = SeriesFrame(np.arange(24.0).reshape(12, 2))
        win = windows(frame, 3, 2, stride=3)
        assert win.shape == (3, 5, 2)
        # a read-only view of the frame, not a copy of it
        assert np.shares_memory(win, frame.values)
        assert not win.flags.writeable
        for i in range(3):
            np.testing.assert_array_equal(win[i], frame.values[3 * i : 3 * i + 5])

    def test_allocates_no_copy_of_the_windows(self):
        # a copy of these 19,945 windows of 56 x 3 values would take 26.8 MB
        frame = make_frame(20_000, k=3)
        win, peak = traced_peak(windows, frame, 48, 8)
        assert win.shape == (19_945, 56, 3)
        assert peak < 64 * 1024

    @pytest.mark.parametrize("args, name", [
        ((2.5, 1), "context_length"), ((2, 1.0), "horizon"), ((2, 1, 1.5), "stride"),
        ((True, 1), "context_length"), ((2, False), "horizon"), ((2, 1, True), "stride"),
        ((2, "1"), "horizon"),
    ])
    def test_a_size_that_is_no_integer_is_named(self, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            windows(make_frame(10), *args)

    def test_numpy_integer_sizes_are_counts(self):
        assert len(windows(make_frame(10), np.int64(3), np.int32(2), np.int64(2))) == 3

    def test_count_formula(self):
        for n, l, h, s in [(20, 4, 3, 2), (17, 5, 1, 3), (30, 10, 10, 7)]:
            assert len(windows(make_frame(n), l, h, s)) == (n - l - h) // s + 1
