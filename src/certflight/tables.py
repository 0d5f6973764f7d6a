"""The CSV and JSON writers of every table certflight prints. A table is a
header of column names and rows of values in header order; both writers
stream, writing each row as soon as it is read."""

import csv
import json


def write_csv(out, header, rows) -> None:
    """Write the header and one line per row to the text file out. csv writes
    floats with repr, so values round-trip exactly, and None as an empty field."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# json's C encoder with the separators of indent=2 at an object's depth: the
# body of one row object, which write_json frames by hand.
_encode_row = json.JSONEncoder(separators=(",\n    ", ": ")).encode


def write_json(out, header, rows) -> None:
    """Write the rows to the text file out as an array of objects keyed by the
    header, one object at a time, byte for byte as json.dumps(objects, indent=2) + "\n"."""
    sep = "[\n"
    for row in rows:
        body = _encode_row(dict(zip(header, row)))[1:-1]
        out.write(f"{sep}  {{\n    {body}\n  }}")
        sep = ",\n"
    out.write("[]\n" if sep == "[\n" else "\n]\n")
