"""Deterministic SVG 1.1 emission for the experiment drivers.

Byte-identical output for identical inputs: every float goes through %.6g,
no timestamps, fixed palette and layout.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import InvalidParameter
from .dataio import atomic_write_text

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

    def points(self, xs, ys):
        """The mapped points as ``"x,y"`` strings, both coordinates ``%.6g``."""
        return map("%.6g,%.6g".__mod__, zip(self.x(xs).tolist(), self.y(ys).tolist()))


def _document(body: list) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">\n'
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _polyline(points, color, width="1.5"):
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{" ".join(points)}"/>'


def _circles(frame, xs, ys, r, colors):
    """One ``<circle>`` per mapped point, coloured in turn by ``colors``."""
    template = '<circle cx="%.6g" cy="%.6g" r="' + _fmt(r) + '" fill="%s"/>'
    return list(map(template.__mod__, zip(frame.x(xs).tolist(), frame.y(ys).tolist(), colors)))


def emit_svg(kind: str, data: dict, path) -> None:
    """Render one of {scatter, line, curve+argmin, trajectories} to ``path``.

    scatter: ``points`` (N, 2) plus optional integer ``labels`` for color.
    line: ``series`` as a list of (x, y) array pairs.
    curve+argmin: ``x``, ``y`` arrays; the minimum gets a marker.
    trajectories: ``trajectories`` as a list of (steps, 2) arrays or one
    (n, steps, 2) array, one polyline each.
    """
    body = []
    if kind == "scatter":
        pts = np.atleast_2d(np.asarray(data["points"], dtype=float))
        if pts.shape[1] == 1:
            pts = np.hstack([pts, np.zeros_like(pts)])
        labels = data.get("labels")
        frame = _Frame(pts[:, 0], pts[:, 1])
        n = len(pts)
        colors = [_PALETTE[0]] * n if labels is None else [_PALETTE[int(labels[i]) % len(_PALETTE)] for i in range(n)]
        body = _circles(frame, pts[:, 0], pts[:, 1], 3.0, colors)
    elif kind == "line":
        series = data["series"]
        if not series:
            raise InvalidParameter("nothing to draw")
        all_x = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
        all_y = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
        frame = _Frame(all_x, all_y)
        for i, (xs, ys) in enumerate(series):
            body.append(_polyline(frame.points(xs, ys), _PALETTE[i % len(_PALETTE)]))
    elif kind == "curve+argmin":
        xs = np.asarray(data["x"], dtype=float)
        ys = np.asarray(data["y"], dtype=float)
        frame = _Frame(xs, ys)
        body.append(_polyline(frame.points(xs, ys), _PALETTE[0]))
        k = int(np.argmin(ys))
        body.append(_polyline(frame.points(xs[[k, k]], [ys.max(), ys.min()]), _PALETTE[1], width="1"))
        body += _circles(frame, xs[k : k + 1], ys[k : k + 1], 4.0, [_PALETTE[1]])
    elif kind == "trajectories":
        trajs = [np.atleast_2d(np.asarray(t, dtype=float)) for t in data["trajectories"]]
        if not trajs:
            raise InvalidParameter("nothing to draw")
        trajs = [np.hstack([t, np.zeros_like(t)]) if t.shape[1] == 1 else t for t in trajs]
        all_pts = np.concatenate(trajs)
        frame = _Frame(all_pts[:, 0], all_pts[:, 1])
        points = frame.points(all_pts[:, 0], all_pts[:, 1])
        for i, t in enumerate(trajs):
            body.append(_polyline(islice(points, len(t)), _PALETTE[i % len(_PALETTE)], width="1"))
    else:
        raise InvalidParameter(f"unknown figure kind {kind!r}")
    atomic_write_text(path, _document(body))
