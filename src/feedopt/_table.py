"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

import numpy as np

# cell format by NumPy dtype kind: bools and integers, floats, strings
_CELL = {"b": "{:d}", "i": "{:d}", "u": "{:d}", "f": "{:.15g}", "U": "{}"}


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, one row per line.

    Integers are written as ``{:d}``, floats with 15 significant digits and
    strings as they are, so a string cell must hold no comma, quote or line
    break.  Lines end in ``\\n``.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join(_CELL[col.dtype.kind] for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row.format(*r) for r in zip(*(col.tolist() for col in columns)))
