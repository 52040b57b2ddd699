"""One report record per command, and the one renderer for JSON, CSV and Markdown.

A command describes its output once, as a ``Report``: a title, the table
columns, the rows, and the JSON document. ``render`` formats it:

* JSON is the payload, indented by two spaces.
* CSV is the columns as a header and one line per row.
* Markdown is ``# title``, a blank line, and either the rows as a table or,
  where the report sets it, its own body lines.

Every integer travels as a decimal string, so consumers never face 64-bit
overflow. In JSON, booleans are booleans and a missing value is null; in CSV
and Markdown they are ``true``/``false`` and an empty cell, and a list cell is
joined with spaces. The README lists every command's JSON keys and CSV
columns. The same report rendered twice yields identical bytes.

This module imports no other module of the package: ``harness`` builds the
``Report`` of a sweep or a table from its own records, and the CLI hands
every command's ``Report`` to ``render``. ``csv`` is imported only to render
CSV, so a JSON report does not load it.
"""

from __future__ import annotations

import io
import json
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple


class Report(NamedTuple):
    """One command's output.

    ``rows`` are dicts keyed by ``columns``, with str, bool, None or
    list-of-str cells; ``payload`` is the JSON document. ``markdown``, when
    set, holds the Markdown body lines used in place of the table. ``rows``
    and ``markdown`` are iterated once, and only by the formats that use
    them, so either may be a generator.
    """

    title: str
    columns: tuple[str, ...]
    rows: Iterable[dict]
    payload: object
    markdown: Iterable[str] | None = None


def record_cells(record) -> dict:
    """A named tuple's fields as report cells: bool and None kept, anything else as str."""
    return {
        k: v if v is None or isinstance(v, bool) else str(v)
        for k, v in zip(record._fields, record)
    }


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return " ".join(value)


def _markdown_table(columns, rows):
    yield "| " + " | ".join(columns) + " |"
    yield "|" + "|".join(" --- " for _ in columns) + "|"
    for row in rows:
        yield "| " + " | ".join(_cell(row[k]) for k in columns) + " |"


def render(report: Report, fmt: str) -> str:
    """Render a Report as json, csv or markdown."""
    if fmt not in ("json", "csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}; expected one of ('json', 'csv', 'markdown')")
    if fmt == "json":
        return json.dumps(report.payload, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows([_cell(row[k]) for k in report.columns] for row in report.rows)
        return buf.getvalue()
    body = _markdown_table(report.columns, report.rows) if report.markdown is None else report.markdown
    return "\n".join([f"# {report.title}", "", *body]) + "\n"


def write_text(text: str, destination: str | Path | None) -> None:
    """Write to a file, or to stdout when destination is None or '-'."""
    if destination is None or destination == "-":
        sys.stdout.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
