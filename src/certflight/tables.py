"""The CSV and JSON writers of every table certflight prints, and the reader
of every table a user hands in. A table is a header of column names and rows
of values in header order; both writers stream, writing each row as soon as
it is read. The sweep renders its CSV from parts that csv_line writes."""

import csv
import io
import json


def write_csv(out, header, rows) -> None:
    """Write the header and one line per row to the text file out. csv writes
    floats with repr, so values round-trip exactly, and None as an empty field."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def csv_line(values) -> str:
    """The values as write_csv writes them on one line, without the line terminator.
    The writer keeps write_csv's terminator: csv quotes a field that holds any of its
    characters."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(values)
    return out.getvalue()[:-1]


# json's C encoder with the separators of indent=2 at an object's depth: the
# body of one row object, which write_json frames by hand.
_encode_row = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False).encode


def write_json(out, header, rows) -> None:
    """Write the rows to the text file out as an array of objects keyed by the
    header, one object at a time, byte for byte as json.dumps(objects, indent=2) + "\n"."""
    sep = "[\n"
    for row in rows:
        body = _encode_row(dict(zip(header, row)))[1:-1]
        out.write(f"{sep}  {{\n    {body}\n  }}")
        sep = ",\n"
    out.write("[]\n" if sep == "[\n" else "\n]\n")


def csv_cells(line: str) -> list[str]:
    """The cells of one CSV line; csv.Error if csv refuses it (a quote left open)."""
    return next(csv.reader((line,), strict=True))


def read_rows(path, parse, header=False):
    """Yield parse(line) for each line of the user table at path: UTF-8 text,
    a leading BOM dropped. Blank lines, lines of commas and blanks only (as
    spreadsheets export) and '#' lines are skipped. With header, a first line
    that parse refuses and that holds no digit names the columns and is skipped.
    Any other line parse refuses (ValueError or csv.Error) is an error that
    starts path:line:, and a byte that is not UTF-8 one that starts path:."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        try:
            for n, line in enumerate(f, 1):
                if not line.replace(",", "").strip() or line.lstrip().startswith("#"):
                    continue
                first, header = header, False
                try:
                    row = parse(line)
                except (ValueError, csv.Error) as e:
                    if first and not any(c.isdigit() for c in line):
                        continue
                    raise ValueError(f"{path}:{n}: {e}") from None
                yield row
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
