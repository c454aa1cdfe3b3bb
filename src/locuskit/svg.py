"""Deterministic SVG 1.1 emission for the experiment drivers.

Byte-identical output for identical inputs: every float goes through %.6g,
no timestamps, fixed palette and layout.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import InvalidParameter
from .dataio import atomic_write

__all__ = ["emit_svg"]

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = 40.0
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)
_CHUNK_POINTS = 1024  # mapped points formatted and written at a time


def _fmt(x) -> str:
    return "%.6g" % float(x)


class _Frame:
    """Affine map from data space to the drawing area (y flipped), on whole arrays; the operations keep
    the one-point order, so each coordinate rounds as if mapped alone."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0:
            raise InvalidParameter("nothing to draw")
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        self.x_lo, self.x_span = x_lo, (x_hi - x_lo) or 1.0
        self.y_lo, self.y_span = y_lo, (y_hi - y_lo) or 1.0

    def x(self, v):
        return _MARGIN + (np.asarray(v, dtype=float) - self.x_lo) / self.x_span * (_WIDTH - 2 * _MARGIN)

    def y(self, v):
        return _HEIGHT - _MARGIN - (np.asarray(v, dtype=float) - self.y_lo) / self.y_span * (_HEIGHT - 2 * _MARGIN)


def _document(elements):
    """The document as byte chunks: the head, each chunk of elements, the tail."""
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">\n'
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>\n'
    ).encode("utf-8")
    for chunk in elements:
        yield chunk.encode("utf-8")
    yield b"</svg>\n"


def _polylines(x, y, bounds, width, colors=_PALETTE):
    """One ``<polyline>`` per run ``bounds[i]:bounds[i + 1]`` of the mapped points ``x``, ``y``, coloured in
    turn by ``colors``; formatted in runs of whole polylines, at most ``_CHUNK_POINTS`` points or one polyline each."""
    bounds = np.asarray(bounds)
    per = max(1, _CHUNK_POINTS // max(int(np.diff(bounds).max()), 1))
    for first in range(0, len(bounds) - 1, per):
        b = bounds[first : first + per + 1]
        points = list(map("%.6g,%.6g".__mod__, zip(x[b[0] : b[-1]].tolist(), y[b[0] : b[-1]].tolist())))
        b = (b - b[0]).tolist()
        yield "".join(
            f'<polyline fill="none" stroke="{colors[(first + i) % len(colors)]}" stroke-width="{width}" '
            f'points="{" ".join(points[lo:hi])}"/>\n'
            for i, (lo, hi) in enumerate(zip(b, b[1:]))
        )


def _circles(x, y, r, colors):
    """One ``<circle>`` per mapped point, coloured in turn by ``colors``; ``_CHUNK_POINTS`` at a time."""
    template = '<circle cx="%.6g" cy="%.6g" r="' + _fmt(r) + '" fill="%s"/>\n'
    for s in range(0, len(x), _CHUNK_POINTS):
        rows = slice(s, s + _CHUNK_POINTS)
        yield "".join(map(template.__mod__, zip(x[rows].tolist(), y[rows].tolist(), colors[rows])))


def emit_svg(kind: str, data: dict, path) -> None:
    """Render one of {scatter, line, curve+argmin, trajectories} to ``path``.

    scatter: ``points`` (N, 2) plus optional integer ``labels`` for color.
    line: ``series`` as a list of (x, y) array pairs.
    curve+argmin: ``x``, ``y`` arrays; the minimum gets a marker.
    trajectories: ``trajectories`` as a list of (steps, 2) arrays or one
    (n, steps, 2) array, one polyline each.
    Points are mapped on whole arrays, then formatted and written in chunks of whole elements.
    """
    if kind == "scatter":
        pts = np.atleast_2d(np.asarray(data["points"], dtype=float))
        if pts.shape[1] == 1:
            pts = np.hstack([pts, np.zeros_like(pts)])
        labels = data.get("labels")
        frame = _Frame(pts[:, 0], pts[:, 1])
        n = len(pts)
        colors = [_PALETTE[0]] * n if labels is None else [_PALETTE[int(labels[i]) % len(_PALETTE)] for i in range(n)]
        body = _circles(frame.x(pts[:, 0]), frame.y(pts[:, 1]), 3.0, colors)
    elif kind == "line":
        series = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for xs, ys in data["series"]]
        if not series:
            raise InvalidParameter("nothing to draw")
        if any(len(xs) != len(ys) for xs, ys in series):
            raise InvalidParameter("each series needs as many x values as y values")
        all_x = np.concatenate([xs for xs, _ in series])
        all_y = np.concatenate([ys for _, ys in series])
        frame = _Frame(all_x, all_y)
        body = _polylines(frame.x(all_x), frame.y(all_y), np.cumsum([0] + [len(xs) for xs, _ in series]), "1.5")
    elif kind == "curve+argmin":
        xs = np.asarray(data["x"], dtype=float)
        ys = np.asarray(data["y"], dtype=float)
        frame = _Frame(xs, ys)
        k = int(np.argmin(ys))
        body = chain(
            _polylines(frame.x(xs), frame.y(ys), [0, len(xs)], "1.5"),
            _polylines(frame.x(xs[[k, k]]), frame.y([ys.max(), ys.min()]), [0, 2], "1", (_PALETTE[1],)),
            _circles(frame.x(xs[k : k + 1]), frame.y(ys[k : k + 1]), 4.0, [_PALETTE[1]]),
        )
    elif kind == "trajectories":
        trajs = [np.atleast_2d(np.asarray(t, dtype=float)) for t in data["trajectories"]]
        if not trajs:
            raise InvalidParameter("nothing to draw")
        trajs = [np.hstack([t, np.zeros_like(t)]) if t.shape[1] == 1 else t for t in trajs]
        all_pts = np.concatenate(trajs)
        frame = _Frame(all_pts[:, 0], all_pts[:, 1])
        bounds = np.cumsum([0] + [len(t) for t in trajs])
        body = _polylines(frame.x(all_pts[:, 0]), frame.y(all_pts[:, 1]), bounds, "1")
    else:
        raise InvalidParameter(f"unknown figure kind {kind!r}")
    atomic_write(path, _document(body))
