"""CSV persistence with exact numeric round-trips.

All artifact tables go through one dialect: comma separator, `.` decimal,
LF line endings, mandatory header line. Floats are serialized with 17
significant digits so reading a written file recovers the exact values;
integers and bare strings pass through unchanged. The schemas in use are
small and flat (`x,y` sample clouds, `x,y,value` grid dumps, `i,j,w` edge
lists, `i,x,y,f` labelings, `patch,x,y,u` converged fields, study tables),
so the dialect supports no quoting: cells must not contain separators or
line breaks.

Tables are stored column-major. `write_csv` formats numpy number columns
in bulk and other columns cell by cell, `_CHUNK_ROWS` rows at a time,
interleaves each chunk's cells with their separators in one list, joined
once, and writes it before formatting the next: it never holds the whole
file, a list of all its lines, or row tuples. An integer column whose
value range is no longer than the column (node indices, edge endpoints)
is formatted once per value of that range, and its chunks gather their
cells from those texts, which are at most one per row.

Every artifact, CSV or text, is written by `_fresh_file`: into
`<name>.tmp` beside it, then the old file is unlinked and the new one
renamed into place. A rerun into the same directory thus never truncates
or renames over a just-written file, either of which waits for that file's
writeback on ext4 (about 0.1 s for 5 MB), and a write that fails leaves the
previous artifact whole.
"""

from __future__ import annotations

import contextlib
import os
import re

import numpy as np

from .errors import ValidationError

_INT_CELL = re.compile(r"^[+-]?\d+$")
# rows formatted, joined and written at a time by `write_csv`
_CHUNK_ROWS = 8192


class Table:
    """Rectangular table: a header tuple and one column per header entry.

    `from_columns` keeps numpy columns as they are (no copy); `Table(header,
    rows)` transposes its rows once. `rows` is a read-only tuple of row
    tuples, derived from the columns on each access.
    """

    def __init__(self, header, rows):
        self.header = tuple(str(name) for name in header)
        if not self.header:
            raise ValidationError("table needs at least one column")
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            if len(row) != len(self.header):
                raise ValidationError(
                    f"ragged table: row of width {len(row)}, header of width {len(self.header)}"
                )
        self.columns = tuple(zip(*rows)) if rows else ((),) * len(self.header)

    @classmethod
    def from_columns(cls, header, columns) -> "Table":
        """Build a table from per-column sequences of equal length."""
        table = cls(header, ())
        cols = [c if isinstance(c, np.ndarray) else tuple(c) for c in columns]
        if len(cols) != len(table.header):
            raise ValidationError("one column sequence per header entry required")
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValidationError("columns differ in length")
        table.columns = tuple(cols)
        return table

    @property
    def rows(self) -> tuple:
        return tuple(zip(*self.columns))

    def column(self, name: str) -> list:
        if name not in self.header:
            raise ValidationError(f"no column named {name!r}")
        return list(self.columns[self.header.index(name)])

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        return self.header == other.header and all(
            list(a) == list(b) for a, b in zip(self.columns, other.columns)
        )


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError("boolean cells are not part of the dialect; use 0/1")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = format(float(value), ".17g")
        # keep a float marker so the reader does not narrow whole values to int
        if _INT_CELL.match(text):
            text += ".0"
        return text
    text = str(value)
    if "," in text or "\n" in text or "\r" in text:
        raise ValidationError(f"cell {text!r} contains a separator or line break")
    return text


def _format_column(values) -> list:
    """Cell texts of a column slice, equal to `_format_cell` on each cell."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    if kind in "iu":
        return list(map(str, values.tolist()))
    if kind == "f":
        x = np.asarray(values, dtype=np.float64)
        # a constant column (by bit pattern: 0.0 == -0.0, nan != nan) is
        # formatted once
        bits = x.view(np.uint64)
        if x.size > 1 and bool(np.all(bits == bits[0])):
            return _format_column(x[:1]) * x.size
        text = list(map("%.17g".__mod__, x.tolist()))
        # "%.17g" prints exactly the whole values below 1e17 without a point
        for k in np.flatnonzero((x == np.trunc(x)) & (np.abs(x) < 1e17)).tolist():
            text[k] += ".0"
        return text
    return list(map(_format_cell, values))


def _column_formatter(column):
    """The function that `write_csv` maps each row slice of ``column`` to its
    cell texts with: `_format_column`, or for a numpy integer column whose
    range max - min + 1 is at most its length, a gather from the texts of
    that range, each formatted once."""
    if not (isinstance(column, np.ndarray) and column.dtype.kind in "iu" and column.size):
        return _format_column
    lo, hi = column.min(), column.max()
    if int(hi) - int(lo) >= column.size:
        return _format_column
    texts = np.array(list(map(str, range(int(lo), int(hi) + 1))), dtype=object)
    # the offsets lie in [0, 2^bits) but may wrap in a signed dtype, so they
    # are read back unsigned
    unsigned = np.dtype(f"u{column.itemsize}")
    return lambda values: texts[(values - lo).view(unsigned)].tolist()


def _parse_cell(text: str):
    if _INT_CELL.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


@contextlib.contextmanager
def _fresh_file(path):
    """Text file handle whose contents replace ``path`` once the block ends.

    The block writes `<path>.tmp`; on success the old ``path`` is unlinked
    and the temp file renamed to it, on an exception the temp file is
    removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    os.rename(tmp, path)


def _write_text(path, text: str) -> None:
    """Write a text artifact (manifest, config dump, chart) by `_fresh_file`."""
    with _fresh_file(path) as fh:
        fh.write(text)


def write_csv(table: Table, path) -> None:
    """Write a table; `read_csv` reproduces it exactly.

    A bad cell raises before ``path`` is touched: a file already there is
    kept whole and no temp file is left behind.
    """
    with _fresh_file(path) as fh:
        fh.write(",".join(map(_format_cell, table.header)) + "\n")
        formatters = [_column_formatter(c) for c in table.columns]
        # a row's cells at the even places of 2 * width texts, each followed
        # by a comma, or a line break after the last
        stride = 2 * len(table.columns)
        for start in range(0, len(table.columns[0]), _CHUNK_ROWS):
            texts = [fmt(c[start:start + _CHUNK_ROWS])
                     for fmt, c in zip(formatters, table.columns)]
            parts = [","] * (stride * len(texts[0]))
            parts[stride - 1::stride] = ["\n"] * len(texts[0])
            for k, cells in enumerate(texts):
                parts[2 * k::stride] = cells
            fh.write("".join(parts))


def read_csv(path) -> Table:
    """Read a table written by `write_csv` (header line mandatory)."""
    with open(path, newline="\n") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0]:
        raise ValidationError(f"{path}: missing header line")
    header = tuple(lines[0].split(","))
    width = len(header)
    rows = []
    for k, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(f"{path}:{k}: expected {width} cells, found {len(cells)}")
        rows.append(tuple(_parse_cell(c) for c in cells))
    return Table(header, tuple(rows))
