"""CSV input and output, columnar and ``BLOCK_ROWS`` rows at a time: the
strings alive at once are bounded by a block, so CSV I/O needs little memory
beyond the float columns themselves."""

from __future__ import annotations

import csv
import io
import math
from operator import itemgetter
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

BLOCK_ROWS = 4096


class DataLines:
    """The lines of a text file, opened as UTF-8, that do not start with '#'
    (comments), for a ``csv`` reader.

    ``lineno`` is the physical number of the last line handed out, not of a
    comment read past it.  Input that is not UTF-8 raises ``error`` naming
    the file but no line: the file is decoded in chunks, so the line being
    read is not the one that failed.
    """

    def __init__(self, fh, path: str, error):
        self.lineno = 0
        self._fh, self._path, self._error = fh, path, error

    def __iter__(self):
        try:
            for n, line in enumerate(self._fh, start=1):
                if not line.startswith("#"):
                    self.lineno = n
                    yield line
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end]
            raise self._error(f"{self._path}: not UTF-8 text ({exc.reason}: {bad!r})") from exc


def read_columns(path: str, required: Sequence[str], optional: Callable, positive: Collection[str], error):
    """``(names, columns, linenos)`` of a CSV file: ``names`` is ``required``
    followed by ``optional(header)``, ``columns`` one float array per name and
    ``linenos`` the physical line of each row.

    The grammar is ``csv.DictReader``'s over the lines not starting with
    '#' (comments): the first row is the header, blank rows are skipped, a
    duplicated column name takes its last occurrence, extra fields are
    ignored and a short row has missing values.  Every value of a column in
    ``positive`` must be positive and finite.  A fault in the text raises
    ``error`` naming the file, and for a bad value its physical line, column
    and text; a file that cannot be read raises ``OSError``.  A table with
    no data rows gives empty columns.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = DataLines(fh, path, error)
        reader = csv.reader(lines)
        try:
            header = next(reader, [])
            for col in required:
                if col not in header:
                    raise error(f"{path}: missing required column '{col}'")
            names = [*required, *optional(header)]
            last = {c: i for i, c in enumerate(header)}
            index = [last[c] for c in names]
            blocks, rows, linenos = [], [], []
            for fields in reader:
                if fields:
                    rows.append(fields)
                    linenos.append(lines.lineno)
                if len(rows) == BLOCK_ROWS:
                    blocks.append(_float_block(path, rows, linenos, names, index, positive, error))
                    rows = []
        except csv.Error as exc:
            raise error(f"{path}: line {lines.lineno}: {exc}") from exc
        if rows or not blocks:
            blocks.append(_float_block(path, rows, linenos, names, index, positive, error))
    return names, [np.concatenate(col) for col in zip(*blocks)], linenos


def _float_block(path, rows, linenos, names, index, positive, error) -> list[np.ndarray]:
    """One float array per column ``names[j]``, field ``index[j]`` of each row.
    ``linenos`` holds the physical line of every row read so far, these rows
    the last ``len(rows)`` of them.

    A block that does not convert, or has a value of a ``positive`` column
    that is not positive and finite, is checked again row by row and column
    by column, so the ``error`` names the first bad value in file order.
    """
    try:
        block = [np.fromiter(map(float, map(itemgetter(i), rows)), float, len(rows)) for i in index]
        for col, values in zip(names, block):
            if col in positive and not np.all((values > 0) & (values < math.inf)):
                raise ValueError(col)
        return block
    except (ValueError, IndexError):
        for fields, lineno in zip(rows, linenos[-len(rows) :]):
            for col, i in zip(names, index):
                raw = fields[i] if i < len(fields) else ""
                if raw == "":
                    raise error(f"{path}: line {lineno}: missing value in column '{col}'")
                try:
                    value = float(raw)
                except ValueError as exc:
                    raise error(f"{path}: line {lineno}: column '{col}': not a number: {raw!r}") from exc
                if col in positive and not 0 < value < math.inf:
                    raise error(f"{path}: line {lineno}: column '{col}': not positive and finite: {raw!r}")
        raise


def _csv_row(values: list) -> str:
    """``values`` as ``csv.writer`` spells them as one row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


def _cells(block: np.ndarray):
    """The CSV fields of one block of a column: floats as their shortest
    round-trip ``repr``, anything else as ``csv.writer`` spells it as one
    field of a row (None as ''), once per distinct value."""
    values = block.tolist()
    if block.dtype.kind == "f":
        return map(float.__repr__, values)
    spelled = {v: _csv_row([v, None])[: -len(",\n")] for v in set(values)}
    return map(spelled.__getitem__, values)


def csv_text(header_comments: list[str], columns: dict[str, np.ndarray]) -> Iterator[str]:
    """The text of a CSV file in pieces: '# ' comment lines and a header row,
    then the equal-length columns of ``columns``, ``BLOCK_ROWS`` rows at a
    time."""
    yield "".join(f"# {line}\n" for line in header_comments) + _csv_row(list(columns))
    n = len(next(iter(columns.values())))
    for start in range(0, n, BLOCK_ROWS):
        cells = [_cells(col[start : start + BLOCK_ROWS]) for col in columns.values()]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_csv(path: str, header_comments: list[str], columns: dict[str, np.ndarray]):
    """Write ``csv_text(header_comments, columns)`` to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(csv_text(header_comments, columns))
