import re

import numpy as np
import pytest

from causalpipe.timeseries import (CsvFormatError, TimeSeriesBatch, read_csv, write_atomic,
                                   write_csv)


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
    batch = make_batch(rows, names=["time", "a", "b", "c"])
    path = tmp_path / "ref.csv"
    write_csv(batch, path)
    assert path.read_bytes() == csv_text_reference(batch).encode("utf-8")
    np.testing.assert_array_equal(read_csv(path).rows, rows)


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
