"""The one CSV writer behind every table the package writes.

A cell's format follows its column's NumPy dtype kind: bools and integers
``%d``, floats ``%.15g`` (15 significant digits; ``nan``, ``inf``, ``-inf``
and ``-0`` as Python prints them) and strings ``%s``.  A table's row
template joins its columns' formats and is applied to each row with ``%``.
"""

from __future__ import annotations

import numpy as np

# cell format by NumPy dtype kind: bools and integers, floats, strings
_CELL = {"b": "%d", "i": "%d", "u": "%d", "f": "%.15g", "U": "%s"}


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, one row per line, in
    the module's cell formats.  A string cell must hold no comma, quote or
    line break.  Lines end in ``\\n``.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join(_CELL[col.dtype.kind] for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % r for r in zip(*(col.tolist() for col in columns)))
