"""Arbitrary text in each CSV file the command line reads.

Whatever the text, ``main`` exits 0, 2 (input error) or 3 (unconverged)
and never raises.  Each case writes one file from the text and keeps the
other inputs of the call well-formed, so the text meets the reader it is
aimed at.  The text is free text, rows of typical cells, or a well-formed
file with a few cells replaced, so that many examples get past the first
checks and reach the solvers and the indicators.
"""

import datetime
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph.cli import EXIT_NONCONVERGED, EXIT_OK, EXIT_VALIDATION, main

_PRICES = "date,A,B,C\n" + "".join(
    f"2020-01-{d:02d},{100 + d},{100 - d * d % 11},{100 + d * d % 7}\n" for d in range(1, 11)
)
_MATRIX = "A,B,C\n2,-1,-1\n-1,2,-1\n-1,-1,2\n"
_WINDOWS = "window,start_date,end_date\n0,2020-01-01,2020-01-10\n"
_INDICATORS = ("date,algebraic_connectivity,spectral_radius,time_consistency\n"
               "2020-01-03,0.5,2.0,\n2020-01-04,1.5,3.0,0.25\n2020-01-05,0.75,2.5,0.5\n")

# the file the text goes to and its well-formed content, the other files, the arguments
TARGETS = {
    "price file": ("p.csv", _PRICES, {}, "learn --input {d}/p.csv"),
    "stored matrix": ("run/laplacian_0000.csv", _MATRIX, {"run/windows.csv": _WINDOWS},
                      "indicators --input {d}/run"),
    "windows.csv": ("run/windows.csv", _WINDOWS, {"run/laplacian_0000.csv": _MATRIX},
                    "indicators --input {d}/run"),
    "indicators file": ("ind.csv", _INDICATORS, {"p.csv": _PRICES},
                        "backtest --input {d}/p.csv --indicators {d}/ind.csv"),
}

_cells = st.one_of(
    st.sampled_from(["date", "window", "A", "B", "", " ", "nan", "inf", "-inf", "0", "-1", "1e308"]),
    st.dates(datetime.date(2019, 12, 25), datetime.date(2020, 1, 15)).map(datetime.date.isoformat),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.text(max_size=4),
)
_csv_like = st.lists(st.lists(_cells, max_size=5).map(",".join), max_size=8).map("\n".join)


def _edited(template: str):
    """``template`` with up to three cells replaced (or appended to a row) and maybe a row dropped."""
    grid = [line.split(",") for line in template.splitlines()]
    edits = st.lists(st.tuples(st.integers(0, len(grid) - 1), st.integers(0, 5), _cells), max_size=3)

    def apply(case):
        cells, drop = case
        rows = [list(row) for row in grid]
        for i, j, cell in cells:
            if j < len(rows[i]):
                rows[i][j] = cell
            else:
                rows[i].append(cell)
        if drop is not None:
            del rows[drop]
        return "".join(",".join(row) + "\n" for row in rows)

    return st.tuples(edits, st.none() | st.integers(0, len(grid) - 1)).map(apply)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=60)
@given(data=st.data())
def test_any_text_exits_cleanly(target, data):
    name, template, others, command = TARGETS[target]
    text = data.draw(st.one_of(st.text(), _csv_like, _edited(template)), label="text")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for path, content in [*others.items(), (name, text)]:
            (d / path).parent.mkdir(parents=True, exist_ok=True)
            (d / path).write_text(content, encoding="utf-8")
        argv = command.format(d=d).split() + ["--output-dir", str(d / "out")]
        assert main(argv) in (EXIT_OK, EXIT_VALIDATION, EXIT_NONCONVERGED)
