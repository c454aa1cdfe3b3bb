"""CSV and SVG emission pinned byte for byte against per-cell and per-point references.

``write_csv`` formats a table column by column and ``emit_svg`` maps whole
coordinate arrays at once.  The references below spell out the rules those
writers must reproduce: each CSV cell formatted on its own by its type, and
each SVG coordinate mapped as a Python float and formatted with ``%.6g``.
"""

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from locuskit import dataio, svg
from locuskit.dataio import Columns, ingest_csv, write_csv
from locuskit.errors import InvalidParameter
from locuskit.svg import emit_svg

PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def per_cell_csv(header, rows) -> str:
    """Reference: strings verbatim, Python and numpy integers (and Python bools) as ints, any other cell
    (numpy bools included) through ``float`` and ``%.17g``."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append("%.17g" % float(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(params=["one-chunk", "chunks-of-2-rows"])
def chunk_rows(request, monkeypatch):
    """Runs a test with the writer's own chunk size and again with chunks of 2 rows, so tables span several."""
    if request.param == "chunks-of-2-rows":
        monkeypatch.setattr(dataio, "_CHUNK_ROWS", 2)


def written(tmp_path, header, rows) -> str:
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    return path.read_bytes().decode("utf-8")


SPECIAL_FLOATS = [-0.0, 5e-324, 1e300, np.inf, -np.inf, 0.1, -1.5e-310, 2.0**53 + 1]
BIG_INTS = [10**17, 10**17 + 1, 2**63 - 1, -(2**63), 12345678901234567890]

ROW_TABLES = {
    "every-cell-kind": (
        ["s", "int", "i64", "bool", "np-bool", "float", "f32"],
        [
            ["a", 1, np.int64(-7), True, np.bool_(False), 0.1, np.float32(0.1)],
            ["bc", 10**17 + 1, np.int64(2**62), False, np.bool_(True), -0.0, np.float32(-2.5)],
            ["", -3, np.int64(0), True, np.bool_(True), 1e300, np.float32(3.4e38)],
        ],
    ),
    "special-floats": (["x"], [[v] for v in SPECIAL_FLOATS]),
    "big-int-column": (["n", "x"], [[n, float(i)] for i, n in enumerate(BIG_INTS)]),
    "mixed-int-float-column": (["m"], [[1], [2.5], [10**17 + 1], [np.int64(3)], [np.float32(0.25)], [True], [-0.0]]),
    "mixed-str-number-column": (["m", "x"], [["a", 1.0], [2, 2.0], [1e300, 3.0], [np.bool_(True), 4.0]]),
    "list-of-lists": (["t", "v"], [[i, v] for i, v in enumerate([0.5, -1.25, 1e-7, 3.0])]),
    "list-of-tuples": (["h", "loss"], [(0.2, 1.5), (np.float64(0.5), 0.25)]),
    "list-of-row-arrays": (["a", "b"], list(np.random.default_rng(3).normal(size=(4, 2)))),
    "no-rows": (["a", "b"], []),
}


@pytest.mark.parametrize("header, rows", list(ROW_TABLES.values()), ids=list(ROW_TABLES))
def test_rows_match_the_per_cell_rule(tmp_path, chunk_rows, header, rows):
    assert written(tmp_path, header, rows) == per_cell_csv(header, rows)


def test_a_row_generator_matches_the_per_cell_rule(tmp_path):
    rows = [[i, 0.1 * i, "s%d" % i] for i in range(5)]
    assert written(tmp_path, ["i", "x", "s"], (r for r in rows)) == per_cell_csv(["i", "x", "s"], rows)


@pytest.mark.parametrize(
    "rows", [[[1.0, 2.0], [3.0]], [["a"], ["b", 1.5]], [[1.0, None]]], ids=["short", "long", "none"]
)
def test_a_ragged_row_or_none_cell_raises_and_writes_nothing(tmp_path, rows):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert not (tmp_path / "t.csv").exists()


def test_tables_of_several_chunks_match_the_per_cell_rule(tmp_path):
    c = dataio._CHUNK_ROWS
    # a list column whose chunks differ in kind: ints, then ints and floats, then strings and floats
    mixed = [*range(c), *([i, 0.5 * i][i % 2] for i in range(c, 2 * c)),
             *(["s%d" % i, 0.1 * i][i % 2] for i in range(2 * c, 5 * c // 2))]
    n = len(mixed)
    X = np.random.default_rng(7).normal(size=(n, 2))
    rows = [[m, *x, i] for m, x, i in zip(mixed, X, range(n))]
    header = ["m", "x0", "x1", "i"]
    want = per_cell_csv(header, rows)
    assert written(tmp_path, header, rows) == want
    assert written(tmp_path, header, iter(rows)) == want
    assert written(tmp_path, header, Columns((mixed, X, np.arange(n)))) == want
    assert written(tmp_path, ["x0", "x1"], X) == per_cell_csv(["x0", "x1"], X)


@pytest.mark.parametrize("late", [[3.0], [3.0, 4.0, 5.0], [3.0, None]], ids=["short", "long", "none"])
@pytest.mark.parametrize("whole_chunk", [False, True], ids=["amid-a-chunk", "a-chunk-of-its-own"])
def test_a_ragged_row_after_the_first_chunk_raises_and_leaves_no_file(tmp_path, late, whole_chunk):
    good = [[1.0, 2.0]] * dataio._CHUNK_ROWS
    rows = good + ([late] * dataio._CHUNK_ROWS if whole_chunk else [[1.0, 2.0], late, [1.0, 2.0]])
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []  # neither the target nor a .tmp- file


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"])
def test_written_files_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "t.csv", ["a"], [[1.0]])
        emit_svg("scatter", {"points": np.eye(2)}, tmp_path / "f.svg")
        dataio.write_json(tmp_path / "m.json", {"a": 1})
    finally:
        os.umask(old)
    for name in ("t.csv", "f.svg", "m.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name


ARRAYS = {
    "float64": np.random.default_rng(0).normal(size=(6, 3)) * 1e7,
    "float32": np.random.default_rng(1).normal(size=(5, 2)).astype(np.float32),
    "int64": np.array([[0, -1], [10**17 + 1, 2**63 - 1]]),
    "uint64": np.array([[2**64 - 1], [7]], dtype=np.uint64),
    "bool": np.array([[True, False], [False, True]]),
    "special": np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]]).T,
    "strings": np.array([["a", "bb"], ["", "c"]]),
}


@pytest.mark.parametrize("table", list(ARRAYS.values()), ids=list(ARRAYS))
def test_a_2d_array_matches_the_per_cell_rule_of_its_rows(tmp_path, chunk_rows, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    assert written(tmp_path, header, table) == per_cell_csv(header, table)


def test_columns_match_the_rows_they_stand_for(tmp_path, chunk_rows):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 2))
    labels = rng.integers(-3, 9, size=7)
    flags = rng.random(7) < 0.5
    names = [f"w{i}" for i in range(7)]
    small = X[:, 0].astype(np.float32)
    big = np.array(BIG_INTS + [1, 2])
    header = ["name", "x0", "x1", "label", "flag", "small", "big", "symbol"]
    table = Columns((names, X, labels, flags, small, big, np.array(names)))
    rows = [[n, *x, l, f, s, b, n] for n, x, l, f, s, b in zip(names, X, labels, flags, small, big)]
    assert written(tmp_path, header, table) == per_cell_csv(header, rows)


def test_columns_of_a_3d_path_array(tmp_path, chunk_rows):
    paths = np.random.default_rng(6).normal(size=(4, 3, 2))  # (queries, steps, p)
    n, steps = paths.shape[:2]
    table = Columns((np.repeat(np.arange(n), steps), np.tile(np.arange(steps), n), paths.reshape(n * steps, -1)))
    rows = [[i, t, *paths[i, t]] for i in range(n) for t in range(steps)]
    header = ["query", "iteration", "x0", "x1"]
    assert written(tmp_path, header, table) == per_cell_csv(header, rows)


CELLS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(alphabet="abc xyz%", max_size=4),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(CELLS, min_size=w, max_size=w), max_size=6)))
def test_any_table_of_cells_matches_the_per_cell_rule(tmp_path_factory, rows):
    width = len(rows[0]) if rows else 1
    header = [f"c{j}" for j in range(width)]
    assert written(tmp_path_factory.mktemp("csv"), header, rows) == per_cell_csv(header, rows)


# signed zero, the smallest and largest subnormals, the smallest normal and the largest finite floats
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
FINITE = st.one_of(
    st.sampled_from(EDGE_FLOATS + [-v for v in EDGE_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(lambda shape: arrays(float, shape, elements=FINITE)))
def test_a_float_table_round_trips_bit_for_bit(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, [f"x{j}" for j in range(table.shape[1])], table)
    back = ingest_csv(path, "features-only").X
    np.testing.assert_array_equal(back.view(np.uint64), table.view(np.uint64))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

WIDTH, HEIGHT, MARGIN = 640.0, 480.0, 40.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")


class ScalarFrame:
    """Reference map from data space to the drawing area, one Python float at a time."""

    def __init__(self, xs, ys):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        self.x_lo, self.x_span = float(xs.min()), (float(xs.max()) - float(xs.min())) or 1.0
        self.y_lo, self.y_span = float(ys.min()), (float(ys.max()) - float(ys.min())) or 1.0

    def x(self, v):
        return MARGIN + (float(v) - self.x_lo) / self.x_span * (WIDTH - 2 * MARGIN)

    def y(self, v):
        return HEIGHT - MARGIN - (float(v) - self.y_lo) / self.y_span * (HEIGHT - 2 * MARGIN)


def fmt(v) -> str:
    return "%.6g" % float(v)


def polyline(points, color, width="1.5"):
    coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>'


def circle(x, y, r, color):
    return f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(r)}" fill="{color}"/>'


def per_point_svg(kind, data) -> str:
    """Reference document: every point mapped by ``ScalarFrame`` and formatted on its own."""
    body = []
    if kind == "scatter":
        pts = np.atleast_2d(np.asarray(data["points"], dtype=float))
        if pts.shape[1] == 1:
            pts = np.hstack([pts, np.zeros_like(pts)])
        labels = data.get("labels")
        frame = ScalarFrame(pts[:, 0], pts[:, 1])
        for i, (x, y) in enumerate(pts[:, :2]):
            color = PALETTE[0] if labels is None else PALETTE[int(labels[i]) % len(PALETTE)]
            body.append(circle(frame.x(x), frame.y(y), 3.0, color))
    elif kind == "line":
        series = data["series"]
        frame = ScalarFrame(np.concatenate([s[0] for s in series]), np.concatenate([s[1] for s in series]))
        for i, (xs, ys) in enumerate(series):
            pts = [(frame.x(x), frame.y(y)) for x, y in zip(np.asarray(xs), np.asarray(ys))]
            body.append(polyline(pts, PALETTE[i % len(PALETTE)]))
    elif kind == "curve+argmin":
        xs, ys = np.asarray(data["x"], dtype=float), np.asarray(data["y"], dtype=float)
        frame = ScalarFrame(xs, ys)
        body.append(polyline([(frame.x(x), frame.y(y)) for x, y in zip(xs, ys)], PALETTE[0]))
        k = int(np.argmin(ys))
        marker = [(frame.x(xs[k]), frame.y(ys.max())), (frame.x(xs[k]), frame.y(ys.min()))]
        body.append(polyline(marker, PALETTE[1], "1"))
        body.append(circle(frame.x(xs[k]), frame.y(ys[k]), 4.0, PALETTE[1]))
    else:
        trajs = [np.atleast_2d(np.asarray(t, dtype=float)) for t in data["trajectories"]]
        trajs = [np.hstack([t, np.zeros_like(t)]) if t.shape[1] == 1 else t for t in trajs]
        all_pts = np.concatenate(trajs)
        frame = ScalarFrame(all_pts[:, 0], all_pts[:, 1])
        for i, t in enumerate(trajs):
            body.append(polyline([(frame.x(x), frame.y(y)) for x, y in t[:, :2]], PALETTE[i % len(PALETTE)], "1"))
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="480" viewBox="0 0 640 480">\n'
        '<rect width="640" height="480" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


_RNG = np.random.default_rng(11)
_CHUNK = svg._CHUNK_POINTS
_PTS = _RNG.normal(size=(40, 2)) * [1e-3, 1e4] + [5.0, -2e4]
_CURVE_X = np.log10(np.geomspace(0.05, 1.0, 17))
# Mapped to within an ulp of a %.6g rounding midpoint (x 100.1315, 100.3935; y 100.2625, 100.3935), so a map
# that scales by a precomputed 560 / span or 400 / span, or multiplies before dividing, writes other digits.
_TIES = np.array([[0.0, 0.0], [3.0, 3.0], [0.32213303571428564, 2.5480312499999997], [0.32353660714285715, 2.54704875]])

FIGURES = {
    "scatter": ("scatter", {"points": _PTS}),
    "scatter-labels": ("scatter", {"points": _PTS, "labels": _RNG.integers(-4, 20, size=40)}),
    "scatter-one-column": ("scatter", {"points": _RNG.normal(size=(9, 1))}),
    "scatter-constant-x": ("scatter", {"points": np.column_stack([np.full(6, 2.5), np.arange(6.0)])}),
    "scatter-rounding-ties": ("scatter", {"points": _TIES}),
    "trajectories-rounding-ties": ("trajectories", {"trajectories": [_TIES[:2], _TIES[2:]]}),
    "scatter-one-point": ("scatter", {"points": np.array([[1.0, 2.0]])}),
    "line": ("line", {"series": [(np.arange(30), _RNG.normal(size=30)), (np.arange(12) * 2.5, _RNG.normal(size=12))]}),
    "line-constant-y": ("line", {"series": [(np.linspace(0.0, 1.0, 8), np.full(8, -3.0))]}),
    "curve+argmin": ("curve+argmin", {"x": _CURVE_X, "y": (_CURVE_X + 0.6) ** 2 + 1e-9 * _RNG.normal(size=17)}),
    "curve+argmin-constant": ("curve+argmin", {"x": _CURVE_X, "y": np.full(17, 0.25)}),
    "trajectories": ("trajectories", {"trajectories": [_RNG.normal(size=(k, 2)) for k in (1, 5, 11)]}),
    "trajectories-array": ("trajectories", {"trajectories": _RNG.normal(size=(25, 7, 3))}),
    "trajectories-one-column": ("trajectories", {"trajectories": _RNG.normal(size=(4, 6, 1))}),
    "trajectories-constant": ("trajectories", {"trajectories": np.ones((3, 4, 2))}),
    # several chunks of the writer's own size: whole polylines per chunk, one polyline longer than a chunk
    "trajectories-several-chunks": ("trajectories", {"trajectories": _RNG.normal(size=(_CHUNK // 4, 11, 2))}),
    "trajectories-longer-than-a-chunk": (
        "trajectories", {"trajectories": [_RNG.normal(size=(k, 2)) for k in (3, _CHUNK + 5, 1, _CHUNK // 2, 700)]}
    ),
    "scatter-several-chunks": (
        "scatter", {"points": _RNG.normal(size=(5 * _CHUNK // 2, 2)), "labels": np.arange(5 * _CHUNK // 2) % 11 - 3}
    ),
    "line-several-chunks": (
        "line", {"series": [(np.arange(k), _RNG.normal(size=k)) for k in (2 * _CHUNK, 30, _CHUNK)]}
    ),
}


@pytest.mark.parametrize("kind, data", list(FIGURES.values()), ids=list(FIGURES))
def test_svg_matches_the_per_point_reference(tmp_path, kind, data):
    emit_svg(kind, data, tmp_path / "f.svg")
    assert (tmp_path / "f.svg").read_text(encoding="utf-8") == per_point_svg(kind, data)


@pytest.mark.parametrize(
    "kind, data",
    [("line", {"series": []}), ("trajectories", {"trajectories": []}), ("scatter", {"points": np.empty((0, 2))})],
    ids=["no-series", "no-trajectories", "no-points"],
)
def test_nothing_to_draw_is_rejected(tmp_path, kind, data):
    with pytest.raises(InvalidParameter, match="nothing to draw"):
        emit_svg(kind, data, tmp_path / "f.svg")
    assert not (tmp_path / "f.svg").exists()


def test_a_series_with_more_x_than_y_values_is_rejected(tmp_path):
    with pytest.raises(InvalidParameter, match="as many x values as y values"):
        emit_svg("line", {"series": [(np.arange(5), np.arange(5)), (np.arange(4), np.arange(3))]}, tmp_path / "f.svg")
    assert list(tmp_path.iterdir()) == []
