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
