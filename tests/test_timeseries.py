import io
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from causalpipe import timeseries
from causalpipe.timeseries import (TIME_COLUMN, CsvFormatError, TimeSeriesBatch, read_csv,
                                   write_atomic, write_csv)


def make_batch(rows, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"v{i}" for i in range(rows.shape[1])]
    return TimeSeriesBatch(variable_names=names, t0=0.0, dt=0.3, rows=rows)


def test_single_row_round_trip_exact(tmp_path):
    batch = make_batch([[0.0, 1.25, -3.5]], names=["time", "a", "b"])
    path = tmp_path / "one.csv"
    write_csv(batch, path)
    back = read_csv(path)
    assert back.variable_names == ["time", "a", "b"]
    np.testing.assert_array_equal(back.rows, batch.rows)


def test_random_round_trip_within_budget(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.normal(scale=[1e-6, 1.0, 1e6], size=(40, 3))
    batch = make_batch(rows)
    path = tmp_path / "rand.csv"
    write_csv(batch, path)
    back = read_csv(path)
    # repr() cells round-trip exactly, well inside the 1e-9 relative budget
    np.testing.assert_array_equal(back.rows, batch.rows)
    rel = np.abs(back.rows - batch.rows) / np.maximum(np.abs(batch.rows), 1e-300)
    assert rel.max() <= 1e-9


def test_time_column_drives_t0_and_dt(tmp_path):
    rows = np.column_stack([np.arange(5) * 0.3 + 1.2, np.arange(5.0)])
    batch = TimeSeriesBatch(["time", "x"], t0=1.2, dt=0.3, rows=rows)
    path = tmp_path / "t.csv"
    write_csv(batch, path)
    back = read_csv(path)
    assert back.t0 == pytest.approx(1.2)
    assert back.dt == pytest.approx(0.3)


def test_analysis_view_drops_time():
    rows = np.ones((3, 3))
    batch = TimeSeriesBatch(["time", "a", "b"], 0.0, 1.0, rows)
    names, data = batch.analysis_view()
    assert names == ["a", "b"]
    assert data.shape == (3, 2)


def test_analysis_view_without_time_keeps_all():
    batch = make_batch(np.zeros((2, 2)), names=["a", "b"])
    names, data = batch.analysis_view()
    assert names == ["a", "b"]
    assert data.shape == (2, 2)


def test_ragged_row_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1.0,2.0,3.0\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_csv(path)


def test_empty_file_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="missing header"):
        read_csv(path)


def test_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("a,b\n1.0,2.0\nfoo,3.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3.*'foo'"):
        read_csv(path)


def test_non_finite_cell_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a\nnan\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "+nan", "Infinity", " -NaN "])
def test_non_finite_cells_rejected_by_their_text(tmp_path, cell):
    path = tmp_path / "inf.csv"
    path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
    with pytest.raises(CsvFormatError,
                       match="^" + re.escape(f"inf.csv: line 3: non-finite cell {cell.strip()!r}") + "$"):
        read_csv(path)


def csv_text_reference(batch):
    """The batch's CSV text written cell by cell over numpy scalars."""
    lines = [",".join(batch.variable_names)]
    for row in batch.rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def test_written_bytes_equal_the_reference(tmp_path):
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
               0.1 + 0.2, 1 / 3, -2 / 3, 123456789.12345678, 1e-7, 1e16, 1e17, 0.30000000000000004,
               9007199254740993.0, -1.0000000000000002]
    rows = np.concatenate([
        np.reshape(special, (-1, 4)),
        rng.normal(scale=[1e-300, 1e-6, 1.0, 1e300], size=(200, 4)),
        rng.integers(-5, 5, size=(20, 4)).astype(float),
    ])
    # no "time" column: these values are no time grid, which read_csv rejects
    batch = make_batch(rows, names=["x", "a", "b", "c"])
    path = tmp_path / "ref.csv"
    write_csv(batch, path)
    assert path.read_bytes() == csv_text_reference(batch).encode("utf-8")
    np.testing.assert_array_equal(read_csv(path).rows, rows)


@pytest.mark.parametrize("times, problem", [
    ([-1e308, 1e308] * 250, "time step inf is not"),  # every step overflows
    ([1e308, -1e308, 1e308], "time step nan is not"),  # the median of -inf and inf
    ([0.6, 0.3, 0.0], "time step -0.3 is not"),
    ([0.3, 0.3, 0.3], "time step 0.0 is not"),
    ([0.0, 6e307, 1.2e308, 0.0], "end past the largest float"),  # t0 + 3 * 6e307
])
def test_an_unusable_time_grid_is_a_format_error(tmp_path, times, problem):
    # a batch's model is published at its end time, which must be a finite
    # time after its start
    path = tmp_path / "steps.csv"
    path.write_text("time,a\n" + "".join(f"{t!r},1.0\n" for t in times), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        with pytest.raises(CsvFormatError, match=re.escape(problem)):
            read_csv(path)


def test_batch_rejects_nonfinite_rows():
    with pytest.raises(ValueError):
        make_batch([[np.nan, 1.0]])


def test_batch_rejects_width_mismatch():
    with pytest.raises(ValueError):
        TimeSeriesBatch(["a"], 0.0, 1.0, np.zeros((2, 2)))


def test_batch_rejects_duplicate_names():
    with pytest.raises(ValueError):
        TimeSeriesBatch(["a", "a"], 0.0, 1.0, np.zeros((2, 2)))


def test_write_is_atomic_no_partials(tmp_path):
    batch = make_batch(np.ones((4, 2)))
    path = tmp_path / "x.csv"
    write_csv(batch, path)
    leftovers = [p for p in tmp_path.iterdir() if p.name != "x.csv"]
    assert leftovers == []


def test_atomic_write_gets_plain_open_permissions(tmp_path):
    # output files stay readable to whoever could read a plainly written file
    plain = tmp_path / "plain.txt"
    plain.write_text("x\n", encoding="utf-8")
    atomic = tmp_path / "atomic.txt"
    write_atomic(atomic, "x\n")
    assert atomic.read_bytes() == plain.read_bytes()
    assert atomic.stat().st_mode == plain.stat().st_mode


# --- the I/O path against text-mode files ---------------------------------------

NON_ASCII = "h_v,h_dg,h_ü\n0.5,-1e-300,∆ 😀\r\nend\rx\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
@pytest.mark.parametrize("text", ["x\n", "", NON_ASCII])
def test_atomic_write_equals_a_text_mode_open(tmp_path, umask, text):
    previous = os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write(text)
        atomic = tmp_path / "atomic.txt"
        written = write_atomic(atomic, text)
    finally:
        os.umask(previous)
    assert atomic.read_bytes() == plain.read_bytes() == written
    assert atomic.stat().st_mode == plain.stat().st_mode


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_atomic_write_leaves_no_part_file(tmp_path, monkeypatch, failing):
    target = tmp_path / "model.json"
    target.write_bytes(b"old\n")

    def fail(*args):
        raise OSError("injected")

    class FailingWriter(io.BufferedWriter):
        write = fail

    if failing == "write":
        # the temp file is created, then writing to it fails
        monkeypatch.setattr(timeseries, "open", raising=False,
                            value=lambda file, mode: FailingWriter(io.FileIO(file, mode)))
    else:
        monkeypatch.setattr(os, failing, fail)
    with pytest.raises(OSError, match="injected"):
        write_atomic(target, NON_ASCII)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
    assert target.read_bytes() == b"old\n"


def read_csv_text_mode(path):
    """read_csv reading the file in text mode; the reference for the lines
    that read_csv takes from the file's bytes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path.name}: not UTF-8 text: {exc}") from None
    if not raw_lines or not raw_lines[0].strip():
        raise CsvFormatError(f"{path.name}: missing header")
    names = [c.strip() for c in raw_lines[0].split(",")]
    if any(not n for n in names):
        raise CsvFormatError(f"{path.name}: line 1: empty header field")
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated is not None:
        raise CsvFormatError(f"{path.name}: line 1: duplicate header name {repeated!r}")
    data = []
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise CsvFormatError(f"{path.name}: line {lineno}: expected {len(names)} "
                                 f"columns, got {len(cells)}")
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path.name}: line {lineno}: non-numeric cell {cell.strip()!r}") from None
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{path.name}: line {lineno}: non-finite cell {cell.strip()!r}")
            row.append(value)
        data.append(row)
    rows = np.asarray(data, dtype=np.float64).reshape(len(data), len(names))
    t0, dt = 0.0, 1.0
    if TIME_COLUMN in names and len(data) >= 1:
        t = rows[:, names.index(TIME_COLUMN)]
        t0 = float(t[0])
        if len(t) >= 2:
            with np.errstate(over="ignore", invalid="ignore"):
                dt = float(np.median(np.diff(t)))
            if not (math.isfinite(dt) and dt > 0.0):
                raise CsvFormatError(f"{path.name}: time step {dt!r} is not a positive "
                                     "finite number")
            if not math.isfinite(t0 + (len(t) - 1) * dt):
                raise CsvFormatError(f"{path.name}: {len(t)} rows at time step {dt!r} "
                                     f"from {t0!r} end past the largest float")
    return TimeSeriesBatch(variable_names=names, t0=t0, dt=dt, rows=rows)


def outcome(read, path):
    """What a reader makes of a file: its batch's exact contents, or its error."""
    try:
        batch = read(path)
    except ValueError as exc:  # CsvFormatError, bad batch
        return type(exc).__name__, str(exc)
    return (batch.variable_names, float(batch.t0).hex(), float(batch.dt).hex(),
            batch.rows.shape, [float(v).hex() for v in batch.rows.ravel()])


number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
junk = st.sampled_from(["", " ", "x", "nan", "-inf", " 1.5 ", "1e400", "ü"])
line_end = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """CSV-like text with mixed line ends and blank lines; most rows parse."""
    name = st.sampled_from([TIME_COLUMN, "h_v", "h_dg", "ü", " b "])
    if draw(st.integers(0, 9)):
        names = draw(st.lists(name, min_size=1, max_size=3, unique=True))
    else:  # an empty or duplicated header field
        names = draw(st.lists(name | st.just(""), min_size=1, max_size=3))
    width = len(names)
    rows = {0: st.lists(number | junk, min_size=width, max_size=width),
            1: st.lists(number, min_size=1, max_size=4)}  # often ragged
    full = st.lists(number, min_size=width, max_size=width)
    parts = [",".join(names), draw(line_end)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 2:
            text = draw(st.sampled_from(["", "  ", "\t"]))  # blank lines are skipped
        else:
            text = ",".join(draw(rows.get(kind, full)))
        parts += [text, draw(line_end)]
    if draw(st.booleans()):
        parts.pop()  # no line end after the last line
    return "".join(parts)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
@example(text="time,a\r\n0.0,1.0\r\n\r0.3,2.0\r\n")
@example(text="time,a\r0.0,1.0\r\r\n0.3,2.0")
@example(text="a,b,a\n1.0,2.0,3.0\n")
def test_read_csv_reads_what_text_mode_reads(tmp_path, text):
    path = tmp_path / "batch.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_csv, path) == outcome(read_csv_text_mode, path)


def test_read_csv_rejects_invalid_utf8_as_text_mode_does(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1.0,2.0\n\xe9,1.0\n")
    assert outcome(read_csv, path) == outcome(read_csv_text_mode, path)
    kind, message = outcome(read_csv, path)
    assert kind == "CsvFormatError"
    assert message.startswith("latin1.csv: not UTF-8 text: 'utf-8' codec can't decode")


def test_read_csv_names_a_repeated_header_name(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("time,a,b,a\n0.0,1.0,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="^twice.csv: line 1: duplicate header name 'a'$"):
        read_csv(path)
