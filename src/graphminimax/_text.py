"""The one text format of every CSV file and report line the package writes.

A CSV is a header line, then one line per row, each ending in a newline.
Each column's format is fixed by its value in the first row: floats (numpy's
too) to 12 significant digits (``.12g``, so ``nan`` and ``inf`` as such),
bools as ``true``/``false``, and ints and strings as written.  Rows are
sequences of Python values; pass arrays through ``tolist()``.
"""
from __future__ import annotations

from itertools import chain


def format_rows(rows, sep: str = ",") -> list[str]:
    """One line per row: its values in their column formats, joined by sep."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return []
    template = sep.join("{:.12g}" if isinstance(v, float) else "{}" for v in first)
    flags = [i for i, v in enumerate(first) if isinstance(v, bool)]
    rows = chain([first], rows)
    if flags:
        rows = ([str(v).lower() if i in flags else v for i, v in enumerate(row)] for row in rows)
    return [template.format(*row) for row in rows]


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row (see ``format_rows``)."""
    return "\n".join([header, *format_rows(rows)]) + "\n"
