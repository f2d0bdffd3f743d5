"""The artifact formats. CSV: an optional ``# config_hash: <hash>`` line,
the header and the rows, with LF line endings and csv's minimal quoting
(``adam(0.9,0.999)`` is quoted), and floats with 17 significant digits so
they round-trip exactly. JSON: strict JSON, with a non-finite float written
as null."""

import csv
import json
import math


def write_csv(path, header, rows, config_hash: str = "") -> None:
    """Write the header and rows (sequences of cells) to path."""
    with open(path, "w", newline="") as f:
        if config_hash:
            f.write(f"# config_hash: {config_hash}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)


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
