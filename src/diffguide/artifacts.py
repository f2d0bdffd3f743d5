"""The one CSV artifact format: an optional ``# config_hash: <hash>`` line,
the header and the rows, with LF line endings and csv's minimal quoting
(``adam(0.9,0.999)`` is quoted), and floats with 17 significant digits so
they round-trip exactly."""

import csv


def write_csv(path, header, rows, config_hash: str = "") -> None:
    """Write the header and rows (sequences of cells) to path."""
    with open(path, "w", newline="") as f:
        if config_hash:
            f.write(f"# config_hash: {config_hash}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)
