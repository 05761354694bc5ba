"""Fixed-rate time-series batches and their CSV on-disk format.

CSV format: UTF-8, first line is the comma-separated header, every following
line is one row of full-precision decimal floats, newline-terminated. Cells
are written with repr() so a read-back reproduces the values exactly (well
inside the 1e-9 relative round-trip budget). A column literally named "time"
is carried for traceability and dropped before causal analysis.
"""

from __future__ import annotations

import math
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TIME_COLUMN = "time"


class CsvFormatError(ValueError):
    """A CSV file does not conform to the batch format."""


@dataclass
class TimeSeriesBatch:
    """A table of named variables sampled on a fixed time grid."""

    variable_names: list[str]
    t0: float
    dt: float
    rows: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.variable_names = [str(n) for n in self.variable_names]
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[1] != len(self.variable_names):
            raise ValueError(
                f"row width {rows.shape[1]} does not match "
                f"{len(self.variable_names)} variable names"
            )
        if rows.size and not np.all(np.isfinite(rows)):
            raise ValueError("rows contain non-finite values")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError(f"duplicate variable names: {self.variable_names}")
        self.rows = rows

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    @property
    def n_vars(self) -> int:
        return self.rows.shape[1]

    @property
    def end_time(self) -> float:
        """The time of the last grid point, t0 + (n-1)*dt; t0 when empty."""
        return self.t0 + max(self.n_samples - 1, 0) * self.dt

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.variable_names.index(name)]

    def analysis_view(self) -> tuple[list[str], np.ndarray]:
        """Names and data with the "time" column (if any) dropped."""
        if TIME_COLUMN not in self.variable_names:
            return list(self.variable_names), self.rows
        keep = [i for i, n in enumerate(self.variable_names) if n != TIME_COLUMN]
        return [self.variable_names[i] for i in keep], self.rows[:, keep]


def write_atomic(path: str | Path, text: str) -> bytes:
    """Write `text` as UTF-8 to `path` through a temp file in the same
    directory and a rename, so a reader sees the old file or the whole new
    one, never a part; returns the bytes written. On failure the temp file is
    removed and the old file is untouched. The file gets the permissions a
    plain open() would give it (0o666 less the umask).
    """
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(f".tmp-{secrets.token_hex(8)}.part")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return data


def write_csv(batch: TimeSeriesBatch, path: str | Path) -> None:
    """Write a batch atomically (see write_atomic)."""
    lines = [",".join(batch.variable_names)]
    for row in batch.rows.tolist():
        lines.append(",".join(map(repr, row)))
    write_atomic(path, "\n".join(lines) + "\n")


def read_csv(path: str | Path) -> TimeSeriesBatch:
    """Parse a batch CSV; malformed input (not UTF-8, an empty or repeated
    header name, a bad cell) raises CsvFormatError with the offending line.

    With a "time" column of two or more rows, the batch's dt is the median
    time step. A dt that is not a positive finite number (a column that does
    not increase, or whose steps overflow), or a batch whose end_time is
    past the largest float, is a CsvFormatError: a model is published at its
    batch's end time.
    """
    path = Path(path)
    # text mode would turn "\r\n" and "\r" into "\n" first; splitlines()
    # breaks at all three anyway, so the lines are the same, for fewer
    # system calls than a text wrapper's reads
    try:
        raw_lines = path.read_bytes().decode("utf-8").splitlines()
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
    n_vars = len(names)
    data: list[list[float]] = []
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_vars:
            raise CsvFormatError(
                f"{path.name}: line {lineno}: expected {n_vars} columns, got {len(cells)}"
            )
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path.name}: line {lineno}: non-numeric cell {cell.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{path.name}: line {lineno}: non-finite cell {cell.strip()!r}"
                )
            row.append(value)
        data.append(row)
    rows = np.asarray(data, dtype=np.float64).reshape(len(data), n_vars)
    t0, dt = 0.0, 1.0
    if TIME_COLUMN in names and len(data) >= 1:
        t = rows[:, names.index(TIME_COLUMN)]
        t0 = float(t[0])
        if len(t) >= 2:
            # steps between finite times can overflow, to inf or nan: rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                dt = float(np.median(np.diff(t)))
            if not (math.isfinite(dt) and dt > 0.0):
                raise CsvFormatError(f"{path.name}: time step {dt!r} is not a positive "
                                     "finite number")
    batch = TimeSeriesBatch(variable_names=names, t0=t0, dt=dt, rows=rows)
    if not math.isfinite(batch.end_time):
        raise CsvFormatError(f"{path.name}: {len(data)} rows at time step {dt!r} "
                             f"from {t0!r} end past the largest float")
    return batch
