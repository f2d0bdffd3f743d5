"""The artifact formats. CSV: an optional ``# config_hash: <hash>`` line,
the header and the rows, with LF line endings and csv's minimal quoting
(``adam(0.9,0.999)`` is quoted), and floats with 17 significant digits so
they round-trip exactly. JSON: strict JSON, with a non-finite float written
as null."""

import csv
import io
import json
import math

import numpy as np

_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}


def _cell(text: str, width: int) -> str:
    """text as csv.writer writes it in a row of width cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text] + [""] * (width - 1))
    return buf.getvalue()[:-width]


def write_csv(path, header, columns, config_hash: str = "") -> None:
    """Write the header and the table's rows to path, every line from one
    %-template built from the column types.

    columns has one entry per header name: a 1-D float array (cells written
    %.17g, as format(v, ".17g")), integer array (%d) or str array (each
    cell as csv.writer writes it), or one str or int, rendered into the
    template once and the same on every row. The arrays share one length,
    the row count, and there is at least one.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for the {len(header)} header names {list(header)}")
    width = len(header)
    parts, cells, n_rows = [], [], None
    for name, col in zip(header, columns):
        if isinstance(col, (str, int)) and not isinstance(col, bool):
            parts.append(_cell(str(col), width).replace("%", "%%"))
            continue
        kind = col.dtype.kind if isinstance(col, np.ndarray) and col.ndim == 1 else None
        if kind not in _FORMATS:
            raise ValueError(f"column {name!r} must be a 1-D float, integer or str array, or one str or int")
        if n_rows is not None and len(col) != n_rows:
            raise ValueError(f"column {name!r} has {len(col)} rows, the columns before it {n_rows}")
        n_rows = len(col)
        parts.append(_FORMATS[kind])
        cells.append([_cell(v, width) for v in col.tolist()] if kind == "U" else col.tolist())
    if n_rows is None:
        raise ValueError(f"columns {list(header)} hold no array to count the rows of")
    template = ",".join(parts) + "\n"
    lines = [f"# config_hash: {config_hash}\n"] if config_hash else []
    lines.append(",".join(_cell(h, width) for h in header) + "\n")
    lines += [template % row for row in zip(*cells)]
    with open(path, "w", newline="") as f:
        f.write("".join(lines))


def json_text(obj, **kwargs) -> str:
    """json.dumps of obj with NaN and ±inf floats, which JSON cannot hold,
    written as null; text without them is json.dumps's own."""

    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(obj), allow_nan=False, **kwargs)
