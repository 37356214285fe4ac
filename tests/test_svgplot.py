"""The SVG renderer on inputs the golden CLI pass never draws.

Every file must parse as XML and carry only finite coordinates; the
dashed markers, error-bar lines and legend entries are counted.
"""

import math
import xml.etree.ElementTree as ET

import pytest

from chaoscontrol.svgplot import _PALETTE, errorbar_chart, line_chart

NS = "{http://www.w3.org/2000/svg}"
NAN, INF = float("nan"), float("inf")
COORDS = ("x", "y", "x1", "y1", "x2", "y2", "width", "height")

# (chart, series, markers) -> (dashed markers, marker labels, bar lines,
# points per polyline, legend labels)
CASES = {
    "errorbar-nan-inf": (
        errorbar_chart,
        [
            ("a", [1, 2, 3, 4, 5], [1.0, NAN, INF, 2.0, 3.0], [0.1, 0.1, 0.1, NAN, INF]),
            ("b", [1, INF, 3], [1.0, 2.0, 3.0], [0.2, 0.2, 0.2]),
        ],
        [(1.5, "target climate"), (2.5, "")],
        (2, ["target climate"], 9, [3, 2], ["a", "b"]),
    ),
    "errorbar-all-nan-series": (
        errorbar_chart,
        [("a", [1, 2], [NAN, NAN], [0.1, 0.1]), ("b", [1, 2], [1.0, 2.0], [NAN, NAN])],
        [],
        (0, [], 0, [0, 2], ["a", "b"]),
    ),
    "errorbar-no-series": (errorbar_chart, [], [], (0, [], 0, [], [])),
    "errorbar-one-point": (
        errorbar_chart, [("a", [250], [0.6], [0.0])], [(0.6, "target climate")],
        (1, ["target climate"], 3, [1], ["a"]),
    ),
    "line-nan-inf": (
        line_chart,
        [("x", [0.0, 0.1, 0.2, INF], [1.0, NAN, -INF, 2.0]), ("y", [0.0, 0.1], [3.0, 4.0])],
        [(0.1, "washout end"), (0.15, "")],
        (2, ["washout end"], 0, [1, 2], ["x", "y"]),
    ),
    "line-all-nan-series": (
        line_chart,
        [("x", [0.0, 1.0], [NAN, NAN]), ("", [0.0, 1.0], [1.0, 2.0]), ("z", [0.0], [5.0])],
        [],
        (0, [], 0, [0, 2, 1], ["x", "z"]),
    ),
    "line-no-series": (line_chart, [], [(0.5, "warmup end")], (1, ["warmup end"], 0, [], [])),
    "line-one-point": (line_chart, [("x", [5.0], [2.0])], [], (0, [], 0, [1], ["x"])),
}


def _draw(path, chart, series, markers):
    if chart is line_chart:
        line_chart(path, series, title="t", xlabel="x", ylabel="y", vlines=markers)
    else:
        errorbar_chart(path, series, title="t", xlabel="x", ylabel="y", hlines=markers)


@pytest.mark.parametrize("name", sorted(CASES))
def test_chart_elements(tmp_path, name):
    chart, series, markers, want = CASES[name]
    path = tmp_path / f"{name}.svg"
    _draw(path, chart, series, markers)
    root = ET.parse(path).getroot()

    for el in root.iter():
        for attr in COORDS:
            if attr in el.attrib:
                assert math.isfinite(float(el.get(attr))), (el.tag, attr, el.get(attr))
    polylines = root.findall(f"{NS}polyline")
    points = [el.get("points").split() for el in polylines]
    for pts in points:
        for pair in pts:
            assert all(math.isfinite(float(v)) for v in pair.split(","))

    lines = root.findall(f"{NS}line")
    texts = root.findall(f"{NS}text")
    got = (
        sum(1 for el in lines if el.get("stroke-dasharray")),
        [el.text for el in texts if el.get("fill") == "#555"],
        sum(1 for el in lines if el.get("stroke-width") == "1.2"),
        [len(pts) for pts in points],
        [el.text for el in texts if el.get("font-size") == "12"],
    )
    assert got == want
    # a series keeps its palette colour whether or not it has a legend entry
    assert [el.get("stroke") for el in polylines] == list(_PALETTE[:len(series)])


def test_one_point_sits_at_the_centre(tmp_path):
    path = tmp_path / "one.svg"
    line_chart(path, [("x", [5.0], [2.0])])
    (polyline,) = ET.parse(path).getroot().findall(f"{NS}polyline")
    assert polyline.get("points") == "384.00,234.00"


# CASES plus a point with a finite y but a non-finite error, a marker beyond
# the data and a non-finite marker: each must widen the axes or stay undrawn
FRAME_CASES = {
    **{name: case[:3] for name, case in CASES.items()},
    "errorbar-nan-marker": (errorbar_chart, [("a", [1, 2], [1.0, 2.0], [0.1, 0.1])], [(NAN, "m")]),
    "errorbar-finite-y-nan-error": (
        errorbar_chart, [("a", [1, 2], [1.0, 10.0], [0.1, NAN])], [],
    ),
    "line-vline-outside-data": (line_chart, [("a", [0.0, 1.0], [0.0, 1.0])], [(5, "")]),
}


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_everything_drawn_lies_inside_the_frame(tmp_path, name):
    chart, series, markers = FRAME_CASES[name]
    path = tmp_path / f"{name}.svg"
    _draw(path, chart, series, markers)
    root = ET.parse(path).getroot()
    (rect,) = root.findall(f"{NS}rect")
    x0, y0 = float(rect.get("x")), float(rect.get("y"))
    x1, y1 = x0 + float(rect.get("width")), y0 + float(rect.get("height"))

    drawn = [
        tuple(map(float, pair.split(",")))
        for el in root.findall(f"{NS}polyline")
        for pair in el.get("points").split()
    ]
    for el in root.findall(f"{NS}line"):
        # bars and dashed markers; ticks and legend swatches sit outside by design
        if el.get("stroke-width") == "1.2" or el.get("stroke-dasharray"):
            drawn += [(float(el.get("x1")), float(el.get("y1"))),
                      (float(el.get("x2")), float(el.get("y2")))]
    outside = [(x, y) for x, y in drawn if not (x0 <= x <= x1 and y0 <= y <= y1)]
    assert outside == []
