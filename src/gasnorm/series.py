"""Time series containers, CSV ingestion and chronological splits."""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Annotated

import numpy as np

from .errors import Range, ValidationError, check_fields, check_value

_BLOCK_ROWS = 1024  # rows per block read from or written to a CSV file
_COUNT = Range(1)  # a window's length in steps, or the stride between window starts


def as_columns(values) -> np.ndarray:
    """``values`` as a float64 array, a 1-D array read as one feature's (T, 1) series."""
    values = np.asarray(values, dtype=np.float64)
    return values[:, None] if values.ndim == 1 else values


def one_series(values) -> np.ndarray:
    """``values`` as one feature's contiguous 1-D series; only a 1-D or (T, 1) array is one."""
    values = as_columns(values)
    if values.ndim != 2 or values.shape[1] != 1:
        raise ValidationError(f"need one series, 1-D or (T, 1), got shape {values.shape}")
    return np.ascontiguousarray(values[:, 0])


@dataclass(frozen=True)
class SeriesFrame:
    """Immutable multivariate series indexed (time, feature).

    ``values`` is always a 2-D float array with finite entries; names are unique, non-empty.
    """

    values: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        values = as_columns(self.values)
        if values.ndim != 2:
            raise ValidationError(f"values must be 2-D (time, feature), got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("series contains NaN or Inf values")
        object.__setattr__(self, "values", values)

        names = list(self.feature_names) or [f"f{i}" for i in range(values.shape[1])]
        if len(names) != values.shape[1]:
            raise ValidationError(
                f"{len(names)} feature names for {values.shape[1]} columns"
            )
        if "" in names or len(set(names)) < len(names):
            j = next(j for j, n in enumerate(names) if n == "" or n in names[:j])
            what = "empty" if names[j] == "" else f"duplicate {names[j]!r}"
            raise ValidationError(f"{what} feature name in column {j}")
        object.__setattr__(self, "feature_names", names)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def feature(self, name: str) -> np.ndarray:
        """1-D view of one feature column."""
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown feature {name!r}") from None
        return self.values[:, j]

    def slice(self, start: int, stop: int) -> "SeriesFrame":
        return SeriesFrame(self.values[start:stop], self.feature_names)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split fractions plus windowing geometry."""

    train_fraction: Annotated[float, Range(0, 1, low_open=True, high_open=True)]
    val_fraction: Annotated[float, Range(0, 1, high_open=True)] = 0.0
    context_length: Annotated[int, _COUNT] = 1
    horizon: Annotated[int, _COUNT] = 1

    def __post_init__(self):
        check_fields(self)
        if self.train_fraction + self.val_fraction >= 1.0:
            raise ValidationError("train_fraction + val_fraction must be < 1")


def load_csv(path) -> SeriesFrame:
    """Read a comma-separated numeric file into a SeriesFrame.

    Accepts LF or CRLF line endings; the first row is the header of
    feature names, none of them a number. Non-numeric or non-finite cells
    are rejected with the first offending row/column named.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        return _parse_csv(fh, str(path))


def _parse_csv(fh, source: str) -> SeriesFrame:
    """The rows of the open text file ``fh``; ``source`` names it in errors.

    The file is read once, ``_BLOCK_ROWS`` rows at a time, into one float64
    array of 8 bytes a cell. A fault is raised only once the rest of the
    file has been read, so that an unreadable file is named first; then
    come an empty file, a numeric header cell and a header without data,
    then the first ragged row or bad cell, in row-major order.
    """
    rows = filter(None, csv.reader(fh))
    try:
        names, data, fault = _read(rows)
        deque(rows, 0)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{source}: not a readable CSV file ({exc})") from None
    if fault:
        raise ValidationError(f"{source}: {fault}")
    return SeriesFrame(data, names)


def _read(rows) -> tuple[list[str], np.ndarray | None, str | None]:
    """The header's names and the data as (T, k), or the first fault met on the way."""
    header = next(rows, None)
    if header is None:
        return [], None, "empty CSV"
    names = [c.strip() for c in header]
    for j, name in enumerate(names):
        if not _cell_fault(name):
            return names, None, f"header cell {j} is a number ({name!r})"
    values, width = array("d"), None
    blocks = iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])
    for start, block in zip(count(0, _BLOCK_ROWS), blocks):
        width = width or len(block[0])
        # kept whole if every row is `width` finite numbers (float raises ValueError
        # on any other cell); a block that fails is scanned row by row for its fault
        with suppress(ValueError):
            if set(map(len, block)) == {width}:
                values.extend(map(float, chain.from_iterable(block)))
                if np.isfinite(np.frombuffer(values)[-width * len(block) :]).all():
                    block.clear()  # its strings are freed before the next block is read
                    continue
        return names, None, _first_fault(block, start, width)
    if width is None:
        return names, None, "header but no data rows"
    return names, np.frombuffer(values).reshape(-1, width), None


def _first_fault(block, start: int, width: int) -> str:
    """The first ragged row or bad cell of ``block``, whose first row is data row ``start``."""
    for i, row in enumerate(block, start):
        if len(row) != width:
            return f"ragged row {i}: expected {width} cells, got {len(row)}"
        for j, cell in enumerate(row):
            if what := _cell_fault(cell):
                return f"{what} at row {i}, column {j}: {cell!r}"


def _cell_fault(cell: str) -> str | None:
    """What keeps ``cell`` from being a data value, or None if it is a finite number."""
    try:
        return None if math.isfinite(float(cell)) else "non-finite value"
    except ValueError:
        return "non-numeric cell"


def csv_line(cells) -> str:
    """One LF-terminated CSV row, each cell quoted only where it must be."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)  # so a cell holding \r is quoted
    return out.getvalue()[:-2] + "\n"


def write_rows(fh, row_format: str, *columns: np.ndarray) -> None:
    """Write ``row_format`` % (row t of each (T, k) column, interleaved) for every t."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.stack([c[start : start + _BLOCK_ROWS] for c in columns], axis=-1)
        fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def write_csv(frame: SeriesFrame, path) -> None:
    """Emit LF-terminated CSV with a header row and 17-significant-digit reals."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_line(frame.feature_names))
        write_rows(fh, csv_line(["%.17g"] * frame.n_features), frame.values)


def split(frame: SeriesFrame, spec: SplitSpec) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Chronological train/val/test split.

    Boundary rounding: floor on train, floor on val, remainder to test.
    The validation frame may be empty when val_fraction is 0; empty train
    or test segments are an error.
    """
    n = len(frame)
    n_train = int(np.floor(spec.train_fraction * n))
    n_val = int(np.floor(spec.val_fraction * n))
    n_test = n - n_train - n_val
    if n_train == 0 or n_test == 0:
        raise ValidationError(
            f"split of {n} steps with fractions ({spec.train_fraction}, "
            f"{spec.val_fraction}) produces an empty train or test segment"
        )
    if spec.context_length + spec.horizon > n_train:
        raise ValidationError(
            f"context_length + horizon = {spec.context_length + spec.horizon} "
            f"exceeds training length {n_train}"
        )
    return (
        frame.slice(0, n_train),
        frame.slice(n_train, n_train + n_val),
        frame.slice(n_train + n_val, n),
    )


def windows(frame: SeriesFrame, context_length: int, horizon: int, stride: int = 1) -> np.ndarray:
    """Sliding windows starting at stride multiples, as one (W, L+h, k) array.

    ``out[:, :L]`` are the contexts and ``out[:, L:]`` the targets. The
    array is a read-only, strided view that shares the frame's memory, so
    it costs no copy of the (L+h) times larger stack.
    """
    l, h, stride = (check_value(int, value, name, _COUNT) for name, value in
                    (("context_length", context_length), ("horizon", horizon), ("stride", stride)))
    n = len(frame)
    if l + h > n:
        raise ValidationError(f"context + horizon = {l + h} exceeds series length {n}")
    view = np.lib.stride_tricks.sliding_window_view(frame.values, l + h, axis=0)
    return view.transpose(0, 2, 1)[::stride]
