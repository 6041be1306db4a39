"""The file-format module: the block CSV writer against np.savetxt, the
row-at-a-time writer it replaces, and a guard that no other module encodes
a file."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import shmseq
from shmseq import pipeline, shearsim, tables
from shmseq.errors import ConfigError
from shmseq.pipeline import PipelineConfig
from shmseq.tables import BLOCK_ROWS, write_csv


def savetxt(path, header, fmts, table):
    np.savetxt(path, table, fmt=list(fmts), delimiter=",", header=header, comments="")


def assert_same_bytes(tmp_path, header, fmts, table):
    write_csv(tmp_path / "block.csv", header, fmts, table)
    savetxt(tmp_path / "oracle.csv", header, fmts, table)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_block_edges_match_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
    assert_same_bytes(tmp_path, "time,sensor_1,sensor_2", ["%.6f", "%.12g", "%.12g"], table)


def test_special_values_match_savetxt(tmp_path):
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300]
    table = np.array([values, values[::-1]])
    assert_same_bytes(tmp_path, ",".join(f"c{i}" for i in range(10)), ["%.12g"] * 10, table)
    assert_same_bytes(tmp_path, ",".join(f"c{i}" for i in range(10)), ["%.6f"] * 10, table)


def test_integer_columns_match_savetxt(tmp_path):
    table = np.array([[1.0, 1.0, 0.25], [3.0, 200.0, -1e-7], [12.0, 7.0, np.nan]])
    assert_same_bytes(tmp_path, "sensor_id,step,posterior", ["%d", "%d", "%.12g"], table)


def test_gen_data_csv_matches_savetxt(tmp_path, monkeypatch):
    written, to_csv = [], shearsim.SimulationResult.to_csv

    def keep(result, path):
        written.append(result)
        to_csv(result, path)

    monkeypatch.setattr(shearsim.SimulationResult, "to_csv", keep)
    scenario = {
        "stories": 2,
        "masses": 1000.0,
        "stiffnesses": 328000.0,
        "sensors_per_story": 3,
        "damage": {"story": 1, "r": 0.5, "lambda_chunk": 3},
        "excitation": {"seed": 5, "intensity": 100.0, "fs": 50.0, "duration_s": 100.0},
        "chunk_size": 400,
    }
    paths = pipeline.gen(scenario, str(tmp_path / "gen"))
    [result] = written
    assert result.signals.shape == (5000, 6) and 5000 % BLOCK_ROWS != 0
    savetxt(
        tmp_path / "oracle.csv",
        "time," + ",".join(result.column_names),
        ["%.6f"] + ["%.12g"] * 6,
        np.column_stack((result.time, result.signals)),
    )
    assert Path(paths["data"]).read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def savetxt_steps(path, names, runs, rows):
    """The run tables as np.savetxt wrote them: sensor order, ids and steps as integers."""
    width = len(names) + 1
    blocks = [np.empty((0, width + 1))]
    for r in sorted(runs, key=lambda r: r.sensor_id):
        block = np.asarray(rows(r), dtype=float).reshape(-1, width)
        blocks.append(np.column_stack((np.full(len(block), r.sensor_id), block)))
    savetxt(
        path, ",".join(["sensor_id", "step", *names]),
        ["%d", "%d"] + ["%.12g"] * len(names), np.vstack(blocks),
    )


def test_run_tables_match_savetxt_with_an_errored_sensor(tmp_path, monkeypatch):
    scenario = {
        "stories": 3,
        "masses": 1000.0,
        "stiffnesses": 328000.0,
        "excitation": {"seed": 11, "intensity": 100.0, "fs": 50.0, "duration_s": 240.0},
        "chunk_size": 400,
    }
    pipeline.gen(scenario, str(tmp_path / "train"))
    pipeline.gen(dict(scenario, excitation=dict(scenario["excitation"], seed=12,
                                                duration_s=96.0)), str(tmp_path / "input"))
    rows = (tmp_path / "input" / "data.csv").read_text().splitlines()
    for row in range(401, 801):  # chunk 2 of sensor_2 is dead: that sensor errors
        fields = rows[row].split(",")
        fields[2] = "0.5"
        rows[row] = ",".join(fields)
    (tmp_path / "input" / "data.csv").write_text("\n".join(rows) + "\n")

    written, write_steps = [], pipeline._write_steps

    def both(path, names, runs, rows):
        write_steps(path, names, runs, rows)
        savetxt_steps(path + ".oracle", names, runs, rows)
        written.append(path)

    monkeypatch.setattr(pipeline, "_write_steps", both)
    config = PipelineConfig(
        input_csv=str(tmp_path / "input" / "data.csv"),
        training_csv=str(tmp_path / "train" / "data.csv"),
        output_dir=str(tmp_path / "out"),
        chunk_size=400,
        order=2,
        dump_dsf=True,
        dump_estimates=True,
    )
    result = pipeline.run(config)
    sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
    assert "error" in sensors[2] and "error" not in sensors[1] and "error" not in sensors[3]
    assert sorted(Path(p).name for p in written) == ["dsf.csv", "estimates.csv", "trace.csv"]
    for path in written:
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert set(table[:, 0]) == {1.0, 3.0}  # the errored sensor has no rows
        assert Path(path).read_bytes() == Path(path + ".oracle").read_bytes()


def test_src_has_no_second_csv_writer():
    src = Path(shmseq.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "savetxt" in p.read_text()] == []


def test_only_tables_reads_or_writes_json_and_signal_files():
    src = Path(shmseq.__file__).parent
    marks = ("json.dump", "json.load", "np.loadtxt", '"%.6f"')
    assert [
        p.name for p in sorted(src.glob("*.py"))
        if p.name != "tables.py" and any(mark in p.read_text() for mark in marks)
    ] == []
    assert pipeline.read_signal_csv is tables.read_signal_csv  # the name the benchmark traces


def test_read_signal_csv_returns_views_of_the_parsed_rows(tmp_path):
    n = 80_000  # 3.2 MB of returned arrays, as a benchmark monitored record
    path = tmp_path / "data.csv"
    signals = np.random.default_rng(3).standard_normal((n, 4))
    tables.write_signal_csv(path, np.arange(n) * 0.02, [f"sensor_{i}" for i in range(1, 5)], signals)
    small = tmp_path / "small.csv"
    small.write_text("time,sensor_1\n0.0,1.0\n0.02,2.0\n")
    tables.read_signal_csv(small)  # the reader's one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        time, columns = tables.read_signal_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the columns interleave in one row-major buffer, so their bounds overlap
    assert all(np.may_share_memory(time, col) for col in columns.values())
    assert peak <= 1.85 * 5 * time.nbytes  # a copy of every column would take it past 2
    assert np.array_equal(columns["sensor_3"], np.loadtxt(path, delimiter=",", skiprows=1)[:, 3])


@pytest.mark.parametrize(
    "text, message",
    [("", "file is empty"), ("time,sensor_1\n", "no data rows")],
    ids=["empty", "header-only"],
)
def test_read_signal_csv_rejects_a_file_without_data(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        tables.read_signal_csv(path)


@pytest.mark.parametrize("interval", [None, 0.02])
def test_read_signal_csv_of_one_row(tmp_path, interval):
    path = tmp_path / "data.csv"
    path.write_text("time,sensor_1\n0.0,1.5\n")
    time, columns = tables.read_signal_csv(path, interval)
    assert time.tolist() == [0.0] and list(columns) == ["sensor_1"]
    assert columns["sensor_1"].tolist() == [1.5]


def write_record(path, rows, seed=0, sensors=2):
    """A signal CSV of ``rows`` samples at 50 Hz, as `gen` writes it; returns its text."""
    signals = np.random.default_rng(seed).standard_normal((rows, sensors))
    columns = [f"sensor_{i}" for i in range(1, sensors + 1)]
    tables.write_signal_csv(path, np.arange(rows) * 0.02, columns, signals)
    return Path(path).read_text()


def record_loadtxt(monkeypatch):
    """Record what each later ``np.loadtxt`` call returned (an array) or raised (its type)."""
    outcomes, loadtxt = [], np.loadtxt

    def recording(*args, **kwargs):
        try:
            outcomes.append(loadtxt(*args, **kwargs))
        except Exception as err:
            outcomes.append(type(err))
            raise
        return outcomes[-1]

    monkeypatch.setattr(np, "loadtxt", recording)
    return outcomes


def assert_blocks_equal_the_whole_parse(path, block_rows, sizes):
    """``read_signal_blocks`` yields blocks of ``sizes`` rows, bit for bit the whole-file parse."""
    time, signals = tables.read_signal_csv(path, 0.02)
    blocks = list(tables.read_signal_blocks(path, block_rows, 0.02))
    assert [len(t) for t, _ in blocks] == sizes
    assert np.concatenate([t for t, _ in blocks]).tobytes() == time.tobytes()
    for col in signals:
        assert list(blocks[0].signals) == list(signals)
        assert np.concatenate([s[col] for _, s in blocks]).tobytes() == signals[col].tobytes()


@pytest.mark.parametrize("rows, sizes", [(120, [40, 40, 40]), (137, [40, 40, 40, 17])],
                         ids=["whole-blocks", "partial-last-block"])
def test_blocks_equal_the_whole_file_parse_bit_for_bit(tmp_path, monkeypatch, rows, sizes):
    path = tmp_path / "data.csv"
    write_record(path, rows)
    outcomes = record_loadtxt(monkeypatch)
    assert_blocks_equal_the_whole_parse(path, 40, sizes)
    # one whole-file call, then one per block: none after the last block, where
    # loadtxt would warn that it found no data, and every one parsed its block
    assert [type(o) for o in outcomes] == [np.ndarray] * (1 + len(sizes))
    assert [len(o) for o in outcomes[1:]] == sizes


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[:90] + ["", ""] + lines[90:] + [""],
        lambda lines: edit_row(lines, 91, f'"{lines[90].split(",")[1]}"', 1),
        lambda lines: edit_row(lines, 91, "1_0", 1),
        lambda lines: ["﻿" + lines[0]] + lines[1:],
    ],
    ids=["blank-lines", "quoted-cell", "underscore", "byte-order-mark"],
)
def test_blocks_of_an_edited_file_equal_its_whole_parse(tmp_path, edit):
    path = tmp_path / "data.csv"
    lines = write_record(path, 130).splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")  # row 91 is in block 3
    assert_blocks_equal_the_whole_parse(path, 40, [40, 40, 40, 10])


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_blocks_of_a_file_with_other_line_ends_equal_its_whole_parse(tmp_path, end):
    path = tmp_path / "data.csv"
    text = write_record(path, 130)
    path.write_bytes(text.replace("\n", end).encode())
    assert_blocks_equal_the_whole_parse(path, 40, [40, 40, 40, 10])


def edit_row(lines, row, cell, column=0):
    """``lines`` with cell ``column`` of file row ``row`` (the header is row 1) set to ``cell``."""
    fields = lines[row - 1].split(",")
    fields[column] = cell
    return lines[: row - 1] + [",".join(fields)] + lines[row:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: edit_row(lines, 95, "oops", 2), "row 95: cannot parse 'oops' as a number"),
        (lambda lines: edit_row(lines, 95, "nan"), "row 95: time nan is not a finite number"),
        (lambda lines: edit_row(lines, 95, "1.840000"), "row 95: time 1.84 s does not come after"),
        (lambda lines: lines[:94] + lines[95:], "row 95: time step 0.04 s differs from the"),
        (lambda lines: lines[:81] + lines[82:], "row 82: time step 0.04 s differs from the"),
        (lambda lines: lines[:94] + ["0.0"] + lines[95:], "row 95: expected 3 fields, got 1"),
        (lambda lines: lines[:90] + [""] + edit_row(lines, 95, "nan")[90:],
         "row 96: time nan is not a finite number"),
    ],
    ids=["bad-cell", "nan-time", "repeated-time", "missing-row", "missing-first-row-of-block",
         "short-row", "after-a-blank-line"],
)
def test_a_bad_row_in_the_third_block_raises_the_whole_file_error(tmp_path, edit, message):
    path = tmp_path / "data.csv"
    lines = write_record(path, 130).splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")  # the third block holds rows 82 to 121
    with pytest.raises(ConfigError) as whole:
        tables.read_signal_csv(path, 0.02)
    blocks = tables.read_signal_blocks(path, 40, 0.02)
    assert [len(next(blocks).time) for _ in range(2)] == [40, 40]  # the blocks before it
    with pytest.raises(ConfigError) as streamed:
        next(blocks)
    assert str(streamed.value) == str(whole.value)
    assert str(whole.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("text, message", [("", "file is empty"), ("time,sensor_1\n\n\n", "no data rows")],
                         ids=["empty", "blank-rows-only"])
def test_blocks_of_a_file_without_data_raise_at_the_first(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        next(tables.read_signal_blocks(path, 40))


def test_a_run_holds_one_block_of_the_monitored_record(tmp_path):
    """The traced peak of a run grows far less with the record than the record itself."""
    write_record(tmp_path / "train.csv", 2000, seed=1, sensors=1)
    peaks, record = [], {}
    for chunks in (200, 1000):  # blocks of 40 chunks of 100 samples: 5 and 25 blocks
        path = tmp_path / f"in{chunks}.csv"
        write_record(path, chunks * 100, seed=2, sensors=1)
        config = PipelineConfig(
            input_csv=str(path), training_csv=str(tmp_path / "train.csv"),
            postdamage_csv=str(tmp_path / "train.csv"), mode="known", chunk_size=100, order=2,
            output_dir=str(tmp_path / f"out{chunks}"),
        )
        pipeline.run(config)  # the one-time set-up of each step stays out of the peaks
        tracemalloc.start()
        try:
            pipeline.run(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        record[chunks] = tables.read_signal_csv(path).time.nbytes * 2  # time and sensor_1
    # a run that held the record would grow by more than the 1.28 MB the longer one adds
    assert peaks[1] - peaks[0] < 0.25 * (record[1000] - record[200]), peaks


def test_the_training_sample_interval_is_worked_out_once(tmp_path, monkeypatch):
    write_record(tmp_path / "train.csv", 2000, seed=1, sensors=1)
    write_record(tmp_path / "in.csv", 1000, seed=2, sensors=1)
    calls, median = [], tables._sample_interval
    monkeypatch.setattr(tables, "_sample_interval", lambda time: calls.append(time.size) or median(time))
    training = tables.read_signal_csv(tmp_path / "train.csv")
    assert training.interval == median(training.time) and calls == [2000]
    calls.clear()
    pipeline.run(PipelineConfig(
        input_csv=str(tmp_path / "in.csv"), training_csv=str(tmp_path / "train.csv"),
        postdamage_csv=str(tmp_path / "train.csv"), mode="known", chunk_size=100, order=2,
        output_dir=str(tmp_path / "out"),
    ))
    assert calls == [2000]  # the training file's; the other two are checked against it


NOT_UTF8 = "line 4 is not UTF-8: byte 12 is 0xe9 (invalid continuation byte)"


@pytest.mark.parametrize(
    "read", [tables.read_signal_csv, lambda path: list(tables.read_signal_blocks(path, 1))],
    ids=["whole", "blocks"],
)
def test_a_signal_file_that_is_not_utf8_raises_naming_it_and_its_line(tmp_path, read):
    path = tmp_path / "data.csv"
    lines = write_record(path, 10).encode().splitlines()
    lines[3] = lines[3][:11] + b"\xe9" + lines[3][12:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ConfigError) as err:
        read(path)
    assert str(err.value) == f"{path}: {NOT_UTF8}"


def test_a_json_file_that_is_not_utf8_raises_naming_it_and_its_line(tmp_path):
    path = tmp_path / "metadata.json"
    path.write_bytes(b'{\n  "sensors": [],\n\n  "n": "caf\xe9"\n}\n')
    with pytest.raises(ConfigError) as err:
        tables.read_json(path)
    assert str(err.value) == f"{path}: {NOT_UTF8}"
