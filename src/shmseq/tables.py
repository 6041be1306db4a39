"""shmseq's file formats: the signal CSV, the block CSV writer and JSON.

A signal CSV (`gen`'s data.csv, every input of `run`) has a
`time,sensor_<id>,...` header, times to the microsecond and signals to 12
significant digits. CSV rows are written in blocks of ``BLOCK_ROWS``, one
``%`` operation per block: the bytes of numpy's row-at-a-time text writer
given the same header, formats and a comma delimiter, at less cost. JSON is
written with sorted keys, an indent of 2 and a final newline.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
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


def read_signal_csv(
    path, sample_interval: float | None = None
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Strict reader for `time,sensor_<id>,...` files; errors cite the row.

    After the header checks the data rows are parsed by one ``np.loadtxt``
    call on the path, whose C reader takes the file in blocks, skipping its
    first line. When that raises, warns or finds another column count than
    the header's (as for a header with a quoted line break), the file is
    read again row by row with ``float``, which also takes quoted cells,
    ``1_0`` and blank lines, and cites the first bad row.

    The time column must be finite and strictly increasing, and every time
    step must lie within ``TIME_TOL`` of the sample interval: the median
    step, or ``sample_interval`` when given (another file's, which this one
    must match). The returned time and sensor columns are strided views of
    the one parsed array, not copies.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # Excel may write a BOM
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    with fh:
        reader = csv.reader(fh)
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
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(
                    path, delimiter=",", comments=None, ndmin=2, dtype=float,
                    skiprows=1, encoding="utf-8-sig",
                )
        except Exception:  # anything loadtxt rejects, the row loop below cites or accepts
            data = None
        if data is None or data.shape[1] != len(header):
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            data = _read_rows(path, reader, len(header))
        bad = _check_time(data[:, 0], sample_interval)
        if bad is not None:
            index, problem = bad
            raise ConfigError(f"{path}: row {_row_number(fh, index)}: {problem}")
    columns = data.T
    return columns[0], dict(zip(header[1:], columns[1:]))


def _sample_interval(time: np.ndarray) -> float:
    """The sample interval of a time column: its median step."""
    return float(np.median(np.diff(time)))


def _check_time(time: np.ndarray, interval: float | None) -> tuple[int, str] | None:
    """(index of the first bad time, what is wrong), or None for a good column.

    Checked in turn: every time is finite, every step is positive, every step
    lies within ``TIME_TOL`` of ``interval`` (default: the column's own).
    """
    finite = np.isfinite(time)
    if not finite.all():
        i = int(np.argmin(finite))
        return i, f"time {time[i]} is not a finite number"
    if time.size < 2:
        return None
    steps = np.diff(time)
    if not (steps > 0).all():
        i = int(np.argmin(steps > 0)) + 1
        return i, f"time {float(time[i])} s does not come after {float(time[i - 1])} s"
    whose = "the training file's sample interval"
    if interval is None:
        whose, interval = "the sample interval", _sample_interval(time)
    # widened by a few units in the last place of the times, for their own rounding
    tol = TIME_TOL + 4 * float(np.spacing(np.abs(time).max()))
    uneven = np.abs(steps - interval) > tol
    if not uneven.any():
        return None
    i = int(np.argmax(uneven)) + 1
    return i, (
        f"time step {steps[i - 1]:.9g} s differs from {whose} {interval:.9g} s"
        f" by more than {TIME_TOL:g} s"
    )


def _row_number(fh, index: int) -> int:
    """File row of data row ``index`` (0-based): the header is row 1, blank rows count."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    data_rows = (row_no for row_no, row in enumerate(reader, start=2) if row)
    return next(itertools.islice(data_rows, index, None))


def _read_rows(path, reader, width: int) -> np.ndarray:
    """The data rows of ``reader`` as an (n, width) array, parsed cell by cell."""
    rows = []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ConfigError(f"{path}: row {row_no}: expected {width} fields, got {len(row)}")
        values = []
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path}: row {row_no}: cannot parse {cell!r} as a number"
                ) from None
        rows.append(values)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return np.array(rows)


def _sensor_id(column: str) -> int:
    return int(column[len("sensor_") :])


def read_json(path):
    """The JSON value in the file ``path``; a ConfigError naming it if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from err


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
