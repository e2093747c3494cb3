import re

import numpy as np
import pytest

from dghlab import artifacts
from dghlab.invariants import relative_drift


def _rows_reference(header, *columns):
    """One f-string of repr(float(v)) cells per row, as the writers once built them."""
    lines = [header]
    for row in zip(*(np.asarray(c) for c in columns)):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 5e-324, 1e300, float("nan"), -1e-300, 0.1, 1, -7]

COLUMNS = {
    "edge_values": (EDGE_VALUES, EDGE_VALUES[::-1], np.arange(len(EDGE_VALUES))),
    "float32": tuple(
        np.asarray(c, dtype=np.float32) for c in ([0.1, -0.0, 3.4e38], [1e-45, 2.5, -1.0], [0, 1, 2])
    ),
    "empty": ([], [], []),
}


@pytest.mark.parametrize("case", sorted(COLUMNS))
def test_csv_writers_are_byte_identical_to_per_cell_formatting(case, tmp_path):
    x, u, m = COLUMNS[case]
    snap = artifacts.write_snapshot_csv(tmp_path / "snap.csv", x, u, m)
    assert snap.read_bytes() == _rows_reference("x,u,m", x, u, m).encode()
    series = artifacts.write_series_csv(tmp_path / "series.csv", x, u)
    expected = _rows_reference("t,value,drift", x, u, relative_drift(u))
    assert series.read_bytes() == expected.encode()
    if case == "empty":
        assert series.read_text() == "t,value,drift\n"


@pytest.mark.parametrize(
    "write, columns",
    [
        (artifacts.write_series_csv, ([0.0, 0.1, 0.2], [1.0, 2.0])),
        (artifacts.write_series_csv, ([0.0, 0.1], [1.0, 2.0, 3.0])),
        (artifacts.write_snapshot_csv, ([0.0, 0.5, 1.0], [1.0, 2.0, 3.0], [1.0, 2.0])),
        (artifacts.write_snapshot_csv, ([0.0, 0.5], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])),
    ],
)
def test_csv_writers_reject_columns_of_unequal_length(write, columns, tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write(path, *columns)
    assert not path.exists()


def _polylines_reference(series):
    """The points of each polyline, one f-string per point, as the writer once built them."""
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return 70 + (x - x_lo) / (x_hi - x_lo) * (800 - 70 - 20)

    def py(y):
        return 500 - 50 - (y - y_lo) / (y_hi - y_lo) * (500 - 40 - 50)

    return [
        " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        for x, y in series.values()
    ]


def _svg_cases():
    rng = np.random.default_rng(2701)
    x = np.sort(rng.uniform(-3.0, 5.0, 257))
    return {
        "random": {
            "a": (x, rng.normal(scale=1e-3, size=x.size)),
            "b": (x[:100].astype(np.float32), rng.uniform(-2e-3, 0.0, 100)),
            "c": (np.arange(5), [1, 0, -1, 0, 1]),
        },
        "flat": {"a": ([2.0, 2.0], [0.5, 0.5])},
        "empty_series": {"a": ([0.0, 1.0], [3.0, 4.0]), "b": ([], [])},
    }


@pytest.mark.parametrize("case", sorted(_svg_cases()))
def test_svg_polylines_are_byte_identical_to_per_point_formatting(case, tmp_path):
    series = _svg_cases()[case]
    text = artifacts.write_svg_lineplot(tmp_path / "p.svg", series).read_text()
    assert re.findall(r'<polyline points="([^"]*)"', text) == _polylines_reference(series)


def test_svg_points_format_like_per_point_f_strings():
    rng = np.random.default_rng(2702)
    px, py = rng.uniform(-1e3, 1e4, (2, 513))
    px[[0, 40]] = np.nan, -0.0
    py[[7, 300, 512]] = np.nan, np.inf, -0.004
    expected = " ".join(f"{float(a):.2f},{float(b):.2f}" for a, b in zip(px, py))
    assert artifacts._points(px, py) == expected
    assert artifacts._points(px[:0], py[:0]) == ""


def test_svg_rejects_series_of_unequal_length(tmp_path):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match="'b' has 3 x values and 2 y values"):
        artifacts.write_svg_lineplot(path, {"a": ([0, 1], [0, 1]), "b": ([0, 1, 2], [0, 1])})
    assert not path.exists()
