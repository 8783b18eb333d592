"""The CSV writer: its ``%`` row templates write what ``str.format`` templates wrote."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from feedopt import _table

# the cell formats the writer used before its ``%`` templates, by dtype kind
FORMAT_CELL = {"b": "{:d}", "i": "{:d}", "u": "{:d}", "f": "{:.15g}", "U": "{}"}

SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.5e-310, 1e308]


def column(kind, n):
    """A strategy for one ``n``-cell column of the given kind."""
    if kind == "float":
        cell = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
        return st.lists(cell, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n)
    if kind == "numpy bool":
        return st.lists(st.booleans().map(np.bool_), min_size=n, max_size=n)
    if kind == "int8":
        return st.lists(st.integers(-128, 127), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int8)
        )
    if kind == "int64":
        return st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    if kind == "uint64":
        return st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint64)
        )
    text = st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\n\r'), max_size=8
    )
    return st.lists(text, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=str))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_row_templates_write_what_str_format_wrote(n, data):
    kinds = data.draw(st.lists(
        st.sampled_from(["float", "bool", "numpy bool", "int8", "int64", "uint64", "str"]),
        min_size=1, max_size=6,
    ))
    columns = [data.draw(column(kind, n)) for kind in kinds]
    header = [f"c{j}" for j in range(len(columns))]
    arrays = [np.asarray(col) for col in columns]
    row = ",".join(FORMAT_CELL[a.dtype.kind] for a in arrays) + "\n"
    want = ",".join(header) + "\n" + "".join(
        row.format(*r) for r in zip(*(a.tolist() for a in arrays))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        _table.write_csv(path, header, columns)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == want
