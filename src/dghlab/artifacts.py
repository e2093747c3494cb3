"""Run artifacts: metadata JSON, CSV tables, and minimal SVG line plots.

Numeric tables are written with shortest round-trip float formatting so that
identical configurations produce bit-identical files.  The SVG writer is a
small deterministic polyline plotter; images are presentation-only.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .invariants import relative_drift

__all__ = [
    "write_metadata",
    "write_series_csv",
    "write_snapshot_csv",
    "write_svg_lineplot",
]


def _csv(header: str, *columns) -> str:
    """CSV text: the header, then one row per index of the float columns.

    ValueError when the columns differ in length.
    """
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells, strict=True))]) + "\n"


def write_metadata(path: Path, payload: dict) -> Path:
    """payload as strict JSON: a NaN or infinite float raises ValueError, and
    the file is not touched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False)
    path.write_text(text + "\n")
    return path


def write_series_csv(path: Path, times, values) -> Path:
    """Time series with columns t, value, drift; ValueError, and no file, when
    times and values differ in length."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_csv("t,value,drift", times, values, relative_drift(values)))
    return path


def write_snapshot_csv(path: Path, x, u, m) -> Path:
    """Field snapshot with columns x, u, m; ValueError, and no file, when the
    columns differ in length."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_csv("x,u,m", x, u, m))
    return path


_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = np.ceil(lo / step) * step
    return list(np.arange(first, hi + 0.5 * step, step))


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """Space-separated "px,py" pixel pairs at two decimals.

    One format call over the interleaved pairs: the bytes of a per-point
    f"{px:.2f},{py:.2f}" join, several times faster.
    """
    return " ".join(["%.2f,%.2f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())


def write_svg_lineplot(
    path: Path,
    series: dict[str, tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Plot named (x, y) series as SVG polylines with simple axes.

    ValueError, and no file, when a series' x and y differ in length or
    hold a NaN or an infinity.
    """
    for name, (x, y) in series.items():
        if len(x) != len(y):
            raise ValueError(f"series {name!r} has {len(x)} x values and {len(y)} y values")
        if not np.isfinite(np.asarray((x, y), dtype=float)).all():
            raise ValueError(f"series {name!r} holds a NaN or an infinite value")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    ax = f'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {ax}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {ax}/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{_H - _MB}" x2="{px(t):.2f}" y2="{_H - _MB + 5}" {ax}/>'
            f'<text x="{px(t):.2f}" y="{_H - _MB + 20}" text-anchor="middle" font-size="11">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(t):.2f}" x2="{_ML}" y2="{py(t):.2f}" {ax}/>'
            f'<text x="{_ML - 8}" y="{py(t):.2f}" text-anchor="end" dominant-baseline="middle" '
            f'font-size="11">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>'
    )
    for i, (name, (x, y)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = _points(px(np.asarray(x, dtype=float)), py(np.asarray(y, dtype=float)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
