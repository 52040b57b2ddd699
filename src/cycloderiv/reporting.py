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
joined with spaces. ``render`` also takes a ``SweepReport`` or a
``TableArtifact`` and converts it first; the README lists every command's
JSON keys and CSV columns. The same report rendered twice yields identical
bytes. ``csv`` and ``harness`` are imported only by the renderings that use
them, so rendering a command's own ``Report`` as JSON loads neither.
"""

from __future__ import annotations

import io
import json
import sys
from collections.abc import Iterable
from itertools import chain
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


def _sweep_report(report: SweepReport) -> Report:
    from .harness import PairRecord

    form = report.form
    rows = [record_cells(rec) for rec in report.records]
    payload = {
        "ring": {
            "n": str(form.n),
            "form": form.kind,
            "params": {k: str(v) for k, v in form.params().items()},
        },
        "pairs": rows,
        "summary": {
            "pairs": str(len(rows)),
            "matches": str(report.matches),
            "seed": str(report.seed),
            "version": report.version,
        },
    }
    summary = (f"{len(rows)} pairs, {report.matches} matches, "
               f"seed {report.seed}, version {report.version}")
    columns = PairRecord._fields
    markdown = chain(_markdown_table(columns, rows), ("", summary))
    return Report(f"Sweep: n = {form.n}, form {form.label()}", columns, rows, payload, markdown)


def _tables_markdown(blocks: list[dict], version: str):
    for blk in blocks:
        yield f"## pair ({blk['u']}, {blk['v']})"
        yield ""
        yield f"det = {blk['det']} (|det| = {blk['det_abs']})"
        yield ""
        yield "matrix rows:"
        for r in blk["matrix"]:
            yield "    " + " ".join(f"{x:>4}" for x in r)
        yield ""
        yield "solution template (coefficients of c_0..c_{d-1} over denominator):"
        for s in blk["solution"]:
            nums = " ".join(f"{x:>4}" for x in s["coeffs"])
            yield f"    ( {nums} ) / {s['denominator']}"
        yield ""
    yield f"version {version}"


def _tables_report(artifact: TableArtifact) -> Report:
    n = str(artifact.n)
    blocks = [
        {
            "u": str(b.u),
            "v": str(b.v),
            "det": str(b.det),
            "det_abs": str(abs(b.det)),
            "matrix": [[str(x) for x in b.matrix.row(i)] for i in range(b.matrix.rows)],
            "solution": [
                {"coeffs": [str(x) for x in row.numerators], "denominator": str(row.denominator)}
                for row in b.solution_rows
            ],
        }
        for b in artifact.blocks
    ]
    # CSV and Markdown read the JSON blocks, one CSV line per block: matrix
    # rows joined by " ; ", solution rows by " | "
    rows = (
        {
            "n": n,
            "u": blk["u"],
            "v": blk["v"],
            "det": blk["det"],
            "det_abs": blk["det_abs"],
            "matrix": " ; ".join(" ".join(r) for r in blk["matrix"]),
            "solution": " | ".join(
                " ".join(s["coeffs"]) + f" / {s['denominator']}" for s in blk["solution"]
            ),
        }
        for blk in blocks
    )
    return Report(
        f"Multiplier tables: n = {n}",
        ("n", "u", "v", "det", "det_abs", "matrix", "solution"),
        rows,
        {"n": n, "version": artifact.version, "blocks": blocks},
        _tables_markdown(blocks, artifact.version),
    )


def render(report, fmt: str) -> str:
    """Render a Report, SweepReport or TableArtifact as json, csv or markdown."""
    if fmt not in ("json", "csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}; expected one of ('json', 'csv', 'markdown')")
    if not isinstance(report, Report):
        from .harness import SweepReport, TableArtifact

        if isinstance(report, SweepReport):
            report = _sweep_report(report)
        elif isinstance(report, TableArtifact):
            report = _tables_report(report)
        else:
            raise TypeError(f"cannot render objects of type {type(report).__name__}")
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
