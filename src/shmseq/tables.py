"""shmseq's file formats: the signal CSV, the block CSV writer and JSON.

A signal CSV (`gen`'s data.csv, every input of `run`) has a
`time,sensor_<id>,...` header, times to the microsecond and signals to 12
significant digits. One reader, ``read_signal_blocks``, reads it a block of
rows at a time; ``read_signal_csv`` reads it whole, as its one block.
CSV rows are written in blocks of ``BLOCK_ROWS``, one ``%`` operation per
block: the bytes of numpy's row-at-a-time text writer given the same header,
formats and a comma delimiter, at less cost. JSON is written with sorted
keys, an indent of 2 and a final newline. Every file is read as UTF-8; one
that is not raises a ConfigError naming it and its first bad line.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

BLOCK_ROWS = 4096  # rows per `%` operation: about 0.4 MB of text for a 5-column data.csv
TIME_TOL = 1e-6  # s: `write_signal_csv` prints times to the microsecond


def write_csv(path, header: str, fmts: Sequence[str], *parts: np.ndarray) -> None:
    """Write ``header``, then each row of the table ``parts`` as ``fmts`` joined by commas.

    The table's columns are those of the ``parts`` side by side: 1-D arrays
    and 2-D blocks of columns with one length. Each block of rows is stacked
    from them as it is written, so no copy of the whole table is made. The
    file is written as bytes, with ``\\n`` line ends on every platform.
    """
    row_fmt = (",".join(fmts) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for lo in range(0, len(parts[0]), BLOCK_ROWS):
            block = np.column_stack([part[lo : lo + BLOCK_ROWS] for part in parts])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_signal_csv(path, time: np.ndarray, columns: Sequence[str], signals: np.ndarray) -> None:
    """Write a signal CSV: ``time`` and the (n, len(columns)) ``signals``."""
    write_csv(
        path, ",".join(["time", *columns]), ["%.6f"] + ["%.12g"] * len(columns), time, signals
    )


@dataclass(frozen=True)
class SignalTable:
    """A signal CSV, or a block of its rows; it unpacks as ``time, signals``.

    ``interval`` is the sample interval its time steps were checked against
    (None for a file of one row).
    """

    time: np.ndarray
    signals: dict[str, np.ndarray]
    interval: float | None

    def __iter__(self):
        return iter((self.time, self.signals))


class _BadRow(Exception):
    """Data row ``index`` (0-based; blank rows do not count) is bad, as ``problem`` says."""

    def __init__(self, index: int, problem: str) -> None:
        super().__init__(index, problem)
        self.index, self.problem = index, problem


def read_signal_csv(path, sample_interval: float | None = None) -> SignalTable:
    """The whole signal CSV ``path``: ``read_signal_blocks``' one block."""
    [table] = read_signal_blocks(path, None, sample_interval)
    return table


def read_signal_blocks(path, block_rows: int | None, sample_interval: float | None = None):
    """The signal CSV ``path`` as ``SignalTable``s of ``block_rows`` data rows, or one of all.

    A generator over one open handle, so only a block of the file is held.
    After the header checks each block is one ``np.loadtxt`` call: on the
    handle with ``max_rows``, or, for the whole file, on the path, whose C
    reader is faster. When that raises, warns or finds another column count
    than the header's (as for a header with a quoted line break), the row
    loop reads the file from that block on with ``float``, which also takes
    quoted cells, ``1_0`` and blank lines. The times must be finite and rise
    in steps within ``TIME_TOL`` of ``sample_interval`` (another file's) or,
    without it, of the block's median step, the step from the block before
    included. Errors cite the file row; a bad row raises after the blocks
    before it were yielded. A block's columns are strided views of its array.
    """
    with _open(path) as fh, _decoding(path):
        header = _read_header(path, csv.reader(fh))
        width = len(header)
        reader = None  # the row loop's, from the first block loadtxt cannot parse
        index, before, largest = 0, None, 0.0  # data rows so far, the last time, the largest |time|
        while True:
            if reader is None:
                line = next(fh, "")
                if not line:  # at the end of the file loadtxt would warn that it found no data
                    break
                if block_rows is None:  # the path: faster than the handle for a whole file
                    data = _loadtxt(path, width, skiprows=1, encoding="utf-8-sig")
                else:
                    data = _loadtxt(itertools.chain([line], fh), width, max_rows=block_rows)
                if data is None:
                    reader = (row for _, row in itertools.islice(_data_rows(fh), index, None))
            try:
                if reader is not None:
                    data = _read_rows(reader, width, block_rows)
                if not len(data):  # only blank rows were left
                    break
                time = data[:, 0]
                interval = _check_time(time, sample_interval, before, largest)
            except _BadRow as bad:
                raise _row_error(path, fh, index + bad.index, bad.problem) from None
            index, before = index + len(time), time[-1]
            largest = max(largest, abs(time[0]), abs(before))  # a rising column's ends
            columns = data.T
            yield SignalTable(columns[0], dict(zip(header[1:], columns[1:])), interval)
            if len(time) != block_rows:  # the last block, or the whole file
                break
        if not index:
            raise ConfigError(f"{path}: no data rows")


def _open(path):
    """``path`` opened for reading; a ConfigError naming it if it cannot be."""
    # Universal newlines: loadtxt reads them faster than newline="", and the csv module
    # splits the same records, cells differing by line ends float() strips.
    try:
        return open(path, encoding="utf-8-sig")  # Excel may write a BOM
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err


@contextlib.contextmanager
def _decoding(path):
    """Turn a UnicodeDecodeError into a ConfigError naming ``path`` and its first non-UTF-8 line.

    The error's own position counts from the start of a decoding buffer, not
    of the file, so the file is read again to find the line.
    """
    try:
        yield
    except UnicodeDecodeError as err:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise ConfigError(
                        f"{path}: line {line_no} is not UTF-8: byte {bad.start + 1} is"
                        f" {line[bad.start]:#04x} ({bad.reason})"
                    ) from None
        raise ConfigError(f"{path}: not UTF-8 ({err.reason})") from None  # the file changed


def _read_header(path, reader) -> list[str]:
    """The checked header row of ``reader``, its cells stripped."""
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "time":
        raise ConfigError(f"{path}: row 1: header must be 'time,sensor_<id>,...'")
    for j, name in enumerate(header[1:], start=1):
        if not name.startswith("sensor_") or not name[len("sensor_") :].isdigit():
            raise ConfigError(f"{path}: row 1: bad sensor column name {name!r}")
        if _sensor_id(name) in map(_sensor_id, header[1:j]):
            raise ConfigError(f"{path}: row 1: sensor {_sensor_id(name)} has two columns")
    return header


def _loadtxt(source, width: int, **kwargs) -> np.ndarray | None:
    """The rows ``np.loadtxt`` parses from ``source``, or None for the row loop to read.

    None when it raises, warns (as for no data rows) or finds another column
    count than ``width``.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, dtype=float, **kwargs)
    except Exception:  # anything loadtxt rejects, the row loop cites or accepts
        return None
    return data if data.shape[1] == width else None


def _sample_interval(time: np.ndarray) -> float:
    """The sample interval of a time column: its median step."""
    return float(np.median(np.diff(time)))


def _check_time(
    time: np.ndarray, interval: float | None, before: float | None, largest: float
) -> float | None:
    """The interval ``time`` was checked against; ``_BadRow`` at the first bad time.

    Checked in turn: every time is finite, every step is positive, every step
    lies within ``TIME_TOL`` of ``interval`` (if None: the median step). The
    steps start from ``before``, the time of the row before ``time[0]``,
    unless it is None. The tolerance is widened by a few units in the last place of
    the largest |time|, of ``time`` and ``largest``, for the times' own
    rounding.
    """
    finite = np.isfinite(time)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _BadRow(i, f"time {time[i]} is not a finite number")
    shift = before is not None  # the index in ``time`` of the first step's later time
    if shift:
        time = np.concatenate(([before], time))
    if time.size < 2:
        return interval
    steps = np.diff(time)
    if not (steps > 0).all():
        i = int(np.argmin(steps > 0)) + 1
        raise _BadRow(
            i - shift, f"time {float(time[i])} s does not come after {float(time[i - 1])} s"
        )
    whose = "the training file's sample interval"
    if interval is None:
        whose, interval = "the sample interval", _sample_interval(time)
    largest = max(largest, abs(time[0]), abs(time[-1]))  # a rising column's largest |time|
    tol = TIME_TOL + 4 * float(np.spacing(largest))
    uneven = np.abs(steps - interval) > tol
    if uneven.any():
        i = int(np.argmax(uneven)) + 1
        raise _BadRow(i - shift, (
            f"time step {steps[i - 1]:.9g} s differs from {whose} {interval:.9g} s"
            f" by more than {TIME_TOL:g} s"
        ))
    return interval


def _data_rows(fh):
    """The file row and cells of each data row of ``fh``, read from its start.

    The header is row 1, and blank rows count.
    """
    fh.seek(0)
    rows = enumerate(csv.reader(fh), start=1)
    next(rows)  # the header
    return ((row_no, row) for row_no, row in rows if row)


def _row_error(path, fh, index: int, problem: str) -> ConfigError:
    """The error for data row ``index`` (0-based) of ``fh``, citing its file row."""
    row_no, _ = next(itertools.islice(_data_rows(fh), index, None))
    return ConfigError(f"{path}: row {row_no}: {problem}")


def _read_rows(reader, width: int, max_rows: int | None) -> np.ndarray:
    """The next ``max_rows`` data rows of ``reader``, or all of them, as an (n, width) array.

    Each cell is parsed with ``float``; blank rows are skipped. A row of
    another width, or a cell that is no number, raises ``_BadRow``.
    """
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise _BadRow(len(rows), f"expected {width} fields, got {len(row)}")
        values = []
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise _BadRow(len(rows), f"cannot parse {cell!r} as a number") from None
        rows.append(values)
        if len(rows) == max_rows:
            break
    return np.array(rows).reshape(-1, width)


def _sensor_id(column: str) -> int:
    return int(column[len("sensor_") :])


def read_json(path):
    """The JSON value in the UTF-8 file ``path``; a ConfigError naming it if it cannot be read."""
    try:
        with _decoding(path), open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from err


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
