"""Report emission: CSV and JSON tables plus SVG configuration drawings.

Each file is built as text and written by one primitive, _write, as
bytes through os.open/os.write/os.ftruncate/os.close, in place over the
file an earlier run left; re-running a configuration gives byte-identical
files (timing stays out of the JSON).
``report.json`` holds ``json.dumps(report_to_dict(report), indent=2,
sort_keys=True)`` with non-finite floats in the margin and the solution
rows as null. The json module encodes with ``indent`` in pure Python, so
only layouts go through it: json.dumps makes one layout per shape of the
envelope's fields and count of solution rows, and each report fills it in
one %-format with the texts of its scalars, which json's C encoder writes
in one call. The SVG is written without an XML tree, from points as
(x, y) tuples of floats: each drawn pose is the pose_points floats of its
real (L, beta).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from pathlib import Path

from .analysis import AnalysisReport
from .geometry import Point2, unit_vector
from .mechanism import pose_frame, pose_points
from .solutions import EquilibriumSolution

CSV_HEADER = ("index,beta_re,beta_im,L_re,L_im,residual_force,"
              "residual_moment,real_flag,accepted_flag")
_CSV_ROW = "%d,%.6f,%.6f,%.6f,%.6f,%.6e,%.6e,%d,%d"

SPRING_COLORS = ("#b22222", "#2e8b57", "#6a5acd")
SOLUTION_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                   "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")
_POINT_NAMES = ("O1", "A1", "O2", "A2", "P")
_DRAWING = re.compile(r"solution_\d+\.svg")
# a drawing's margin and the least half-length of its surface line (before
# the 1.2 stretch), as fractions of its extent, the longer side of the box
# around its points, so that a drawing does not depend on the unit of length
_PAD = 0.1
_SURFACE_MIN = 0.35


# the keys of a solution row of report.json, in the order of _row_values
_ROW_KEYS = ("index", "beta_re", "beta_im", "L_re", "L_im", "residual_force",
             "residual_moment", "rel_residual", "squared_residual", "real",
             "accepted", "note")
_SORTED_ROW_KEYS = sorted(_ROW_KEYS)


def _row_values(index: int, s: EquilibriumSolution) -> tuple:
    return (index, s.beta.real, s.beta.imag, s.length.real, s.length.imag,
            s.residual_force, s.residual_moment, s.rel_residual,
            s.squared_residual, s.is_real, s.accepted, s.note)


def _report_fields(report: AnalysisReport) -> dict:
    """report_to_dict without its solution rows, a non-finite margin
    value as None."""
    margin = report.margin and {
        key: value if value is None or math.isfinite(value) else None
        for key, value in report.margin.items()}
    return {
        "contact": report.contact,
        "case": report.config.case,
        "point_E": list(_xy(report.config.params.point_e)),
        "free_pose": report.free_pose,
        "counts": report.counts,
        "margin": margin,
        "notes": report.notes,
        "params": report.config.to_dict(),
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-ready view of the report (timing excluded for determinism)."""
    fields = _report_fields(report)
    fields["solutions"] = [dict(zip(_ROW_KEYS, _row_values(i, s)))
                           for i, s in enumerate(report.solutions, start=1)]
    return fields


def _walk(value, shape: list, leaves: list) -> None:
    """Append the shape of a JSON value to shape and its scalars to leaves,
    in the order json.dumps with sort_keys writes them: a dict as the tuple
    of its sorted keys, a list as its length, each followed by its items,
    and a scalar as None."""
    if isinstance(value, dict):
        keys = sorted(value)
        shape.append(tuple(keys))
        for key in keys:
            _walk(value[key], shape, leaves)
    elif isinstance(value, (list, tuple)):
        shape.append(len(value))
        for item in value:
            _walk(item, shape, leaves)
    else:
        shape.append(None)
        leaves.append(value)


def _skeleton(shape):
    """The JSON value of the shape, an iterator over _walk's entries, each
    scalar the string NUL."""
    entry = next(shape)
    if entry is None:
        return "\0"
    if isinstance(entry, int):
        return [_skeleton(shape) for _ in range(entry)]
    return {key: _skeleton(shape) for key in entry}


@functools.lru_cache(maxsize=64)
def _layout(shape: tuple, rows: int) -> str:
    """%-format template of json.dumps(value, indent=2, sort_keys=True)
    plus a newline, for every value whose fields have the shape and whose
    "solutions" are rows solution rows, one %s per scalar; no key holds a
    NUL."""
    value = _skeleton(iter(shape))
    value["solutions"] = [dict.fromkeys(_ROW_KEYS, "\0")] * rows
    text = json.dumps(value, indent=2, sort_keys=True)
    return text.replace("%", "%%").replace('"\\u0000"', "%s") + "\n"


# the JSON texts of a list of scalars joined by NUL, which none holds (a
# string's control characters are escaped), with json.dumps's errors: a
# ValueError for a non-finite float, a TypeError for a type json cannot
# encode. Without indent the json module encodes in C
_SCALARS = json.JSONEncoder(separators=("\0", ": "), allow_nan=False).encode


def _write(path: str, text: str) -> str:
    """Write text to path, UTF-8 encoded, in place: a new file is made with
    0o666 less the umask, an existing one is overwritten from its start
    and then cut to the new length, so it keeps its inode, mode and hard
    links, and a symlink is written through. Nothing truncates the file to
    size 0 first, so ext4 does not flush a rewrite when it is closed; a
    power loss before writeback can leave a mix of old and new pages."""
    data = text.encode()
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)
    return path


def _output_dir(out_dir) -> str:
    """out_dir as a str, made with its parents when it is not a directory;
    the files are joined to it as strings."""
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    return os.fspath(out_dir)


def emit_tables(report: AnalysisReport, out_dir,
                formats=("json", "csv")) -> list[Path]:
    """Write solutions.csv and report.json, their rows formatted from the
    columns of the solution table."""
    out = _output_dir(out_dir)
    written = []
    (beta, length, force, moment, rel, real, accepted, squared,
     note) = zip(*report.solutions)
    index = range(1, len(beta) + 1)
    beta_re, beta_im = [b.real for b in beta], [b.imag for b in beta]
    length_re, length_im = [v.real for v in length], [v.imag for v in length]
    if "csv" in formats:
        lines = [CSV_HEADER]
        lines += map(_CSV_ROW.__mod__, zip(
            index, beta_re, beta_im, length_re, length_im, force, moment,
            real, accepted))
        written.append(_write(os.path.join(out, "solutions.csv"),
                              "\n".join(lines) + "\n"))
    if "json" in formats:
        columns = dict(zip(_ROW_KEYS, (
            index, *([v if v - v == 0 else None for v in column]
                     for column in (beta_re, beta_im, length_re, length_im,
                                    force, moment, rel, squared)),
            real, accepted, note)))
        shape, leaves = [], []
        _walk(_report_fields(report), shape, leaves)
        for row in zip(*[columns[key] for key in _SORTED_ROW_KEYS]):
            leaves += row
        text = _layout(tuple(shape), len(beta)) % tuple(
            _SCALARS(leaves)[1:-1].split("\0"))
        written.append(_write(os.path.join(out, "report.json"), text))
    return list(map(Path, written))


# --- SVG rendering -------------------------------------------------------
# Every attribute value and text is a number, a colour or a fixed name, so
# nothing needs XML escaping. Points are (x, y) tuples of floats.

_LEAD = 0.15                 # straight lead-in at each end of a spring
_WIDTH_RATIO = 0.08          # zigzag amplitude over spring length
# (fraction along the spring, side) of each of its six zigzag vertices
_COILS = tuple((_LEAD + (1 - 2 * _LEAD) * (i + 0.5) / 6,
                1.0 if i % 2 == 0 else -1.0) for i in range(6))


def _xy(p: Point2) -> tuple[float, float]:
    return p.x, p.y


def _mechanism_points(frame: tuple, o1, a1, solution: EquilibriumSolution):
    """The named points of a drawn pose, in _POINT_NAMES order, and the
    world coordinates of its three spring zigzags, which every drawing of
    the pose shares; frame is the mechanism's pose_frame."""
    beta = solution.beta.real
    px, py, o2x, o2y, a2x, a2y = pose_points(
        frame, solution.length.real, math.cos(beta), math.sin(beta))
    o2, a2 = (o2x, o2y), (a2x, a2y)
    return (o1, a1, o2, a2, (px, py)), [
        _spring_points(*ends) for ends in ((o1, o2), (o1, a2), (a1, a2))]


def _spring_points(p_from, p_to) -> list[tuple[float, float]]:
    """Zigzag of 10 points between two points, with straight lead-in
    segments, in world coordinates. Each zigzag vertex is offset across the
    spring by the amplitude times the unit normal, side * _WIDTH_RATIO *
    (-dy, dx), so a spring of zero length is its 10 points at one place."""
    (x, y), (x_to, y_to) = p_from, p_to
    dx, dy = x_to - x, y_to - y
    return [p_from, (x + _LEAD * dx, y + _LEAD * dy),
            *[(x + t * dx - side * _WIDTH_RATIO * dy,
               y + t * dy + side * _WIDTH_RATIO * dx) for t, side in _COILS],
            (x + (1 - _LEAD) * dx, y + (1 - _LEAD) * dy), p_to]


def _open_drawing(params, canvas_pts, surface_pts, e):
    """The world-to-SVG mapping of a drawing over canvas_pts, with a
    flipped y axis, as (x0, y1, scale), and the drawing's first fragments:
    the XML declaration, the svg start tag, the surface through M over 1.2
    times the extent of surface_pts and point E."""
    xs, ys = zip(*canvas_pts)
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    pad = _PAD * extent
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = 640.0 / ((x1 - x0) or 1.0)
    width, height = (x1 - x0) * scale, (y1 - y0) * scale
    xs, ys = zip(*surface_pts)
    span = max(max(xs) - min(xs), max(ys) - min(ys),
               _SURFACE_MIN * extent) * 1.2
    dx = math.cos(params.surface_angle) * span
    dy = math.sin(params.surface_angle) * span
    mx, my = _xy(params.surface_point)
    (ax, ay), (bx, by) = [((x - x0) * scale, (y1 - y) * scale)
                          for x, y in ((mx - dx, my - dy), (mx + dx, my + dy))]
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n"
             f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 '
             f'{width:.1f} {height:.1f}" width="{width:.0f}" '
             f'height="{height:.0f}"><line x1="{ax:.2f}" y1="{ay:.2f}" x2='
             f'"{bx:.2f}" y2="{by:.2f}" stroke="#000000" stroke-width="5" />']
    x, y = (e[0] - x0) * scale, (y1 - e[1]) * scale
    parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
                 f'fill="#555555" /><text x="{x + 6:.2f}" '
                 f'y="{y - 6:.2f}" font-size="13" fill="#555555" '
                 'font-family="sans-serif">E</text>')
    return (x0, y1, scale), parts


@functools.cache
def _pose_template(color: str, label_points: bool) -> str:
    """%-format template of one drawn pose: the base line O1-A1, the
    platform triangle O2, A2, P, the three springs of 10 points each and
    the named points."""
    line = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{}" '
            'stroke-width="{}" />')
    parts = [line.format("#333333", "4")] + [line.format(color, "3")] * 3
    points = " ".join(["%.2f,%.2f"] * 10)
    for scolor in SPRING_COLORS:
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{scolor}" stroke-width="1.5" />')
    for name in _POINT_NAMES:
        parts.append('<circle cx="%.2f" cy="%.2f" r="3.5" fill="#000000" />')
        if label_points:
            parts.append('<text x="%.2f" y="%.2f" font-size="13" '
                         f'fill="#000000" font-family="sans-serif">{name}'
                         '</text>')
    return "".join(parts)


def _draw_solution(parts, canvas, pose, color="#1f77b4", label_points=True):
    """Append a pose, (points, springs) from _mechanism_points, in one
    format of its template."""
    points, springs = pose
    x0, y1, scale = canvas
    o1, a1, o2, a2, p = mapped = [((x - x0) * scale, (y1 - y) * scale)
                                  for x, y in points]
    # the base line, then the top platform triangle
    values = [*o1, *a1, *o2, *a2, *o2, *p, *a2, *p]
    for spring in springs:
        for x, y in spring:
            values += ((x - x0) * scale, (y1 - y) * scale)
    for x, y in mapped:
        values += (x, y, x + 6, y - 6) if label_points else (x, y)
    parts.append(_pose_template(color, label_points) % tuple(values))


def _remove_stale_drawings(out: str, written: list[str]) -> None:
    """Delete the drawings solution_<k>.svg in out that are not among the
    files just written, left there by an earlier run."""
    keep = {os.path.basename(path) for path in written}
    with os.scandir(out) as entries:
        stale = [entry.path for entry in entries
                 if entry.name not in keep and _DRAWING.fullmatch(entry.name)
                 and not entry.is_dir(follow_symlinks=False)]
    for path in stale:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def render_svg(report: AnalysisReport, out_dir) -> list[Path]:
    """One drawing per real accepted solution plus an overview that
    overlays them, grouped by which side of the surface holds the top
    platform origin. Drawings of an earlier run in out_dir that this run
    does not rewrite are deleted once the new files are written."""
    out = _output_dir(out_dir)
    params = report.config.params
    o1, a1, m = map(_xy, (params.base_origin, params.a1_fixed,
                          params.surface_point))
    written = []
    real_accepted = [(i, s) for i, s in enumerate(report.solutions, start=1)
                     if s.accepted and s.is_real]
    e = _xy(params.point_e)
    frame = pose_frame(params, params.point_e)
    poses = {i: _mechanism_points(frame, o1, a1, s) for i, s in real_accepted}
    world = [o1, a1, m, e] + [p for pts, _ in poses.values() for p in pts]

    for idx, sol in real_accepted:
        pts = poses[idx][0]
        canvas, parts = _open_drawing(params, [*pts, o1, a1, e, m], pts, e)
        _draw_solution(parts, canvas, poses[idx])
        parts.append(f"<title>solution {idx}: beta={sol.beta.real:.4f}, "
                     f"L={sol.length.real:.4f}</title>")
        written.append(_write(os.path.join(out, f"solution_{idx}.svg"),
                              "".join(parts) + "</svg>"))

    canvas, parts = _open_drawing(params, world, world, e)
    # O2's side of the surface: the sign of O2 . n + offset, n the surface
    # direction turned by -pi/2 and offset = -M . n, zero on the surface
    n = unit_vector(params.surface_angle - math.pi / 2)
    offset = -params.surface_point.dot(n)
    sides = {"positive": [], "negative": []}
    for k, (idx, sol) in enumerate(real_accepted):
        pose = poses[idx]
        x, y = pose[0][2]
        side = "positive" if x * n.x + y * n.y + offset > 0 else "negative"
        sides[side].append((idx, pose,
                            SOLUTION_COLORS[k % len(SOLUTION_COLORS)]))
    for side, members in sides.items():
        parts.append(f'<g id="side_{side}" data-solutions="{len(members)}"'
                     + (">" if members else " />"))
        for idx, pose, color in members:
            parts.append(f'<g id="solution_{idx}" class="solution">')
            _draw_solution(parts, canvas, pose, color=color,
                           label_points=False)
            parts.append("</g>")
        if members:
            parts.append("</g>")
    written.append(_write(os.path.join(out, "overview.svg"),
                          "".join(parts) + "</svg>"))
    _remove_stale_drawings(out, written)
    return list(map(Path, written))
