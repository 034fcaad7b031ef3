"""Report emission: CSV and JSON tables plus SVG configuration drawings.

Each file is built as text and written in one call; re-running a
configuration gives byte-identical files (timing stays out of the JSON).
``report.json`` holds ``json.dumps(report_to_dict(report), indent=2,
sort_keys=True)`` with non-finite floats as null. The json module encodes
with ``indent`` in pure Python, so here each flat object or array goes
through its C encoder in one call with the indentation as item separator,
and each solution row is one %-format of a cached template. The SVG is
written without an XML tree.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .analysis import AnalysisReport
from .geometry import Point2, make_plane, unit_vector
from .mechanism import MechanismParams, pose_from
from .solutions import EquilibriumSolution

CSV_HEADER = ("index,beta_re,beta_im,L_re,L_im,residual_force,"
              "residual_moment,real_flag,accepted_flag")
_CSV_ROW = "%d,%.6f,%.6f,%.6f,%.6f,%.6e,%.6e,%d,%d"

SPRING_COLORS = ("#b22222", "#2e8b57", "#6a5acd")
SOLUTION_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                   "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")
_POINT_NAMES = ("O1", "A1", "O2", "A2", "P")
_DRAWING = re.compile(r"solution_\d+\.svg")


def _number(value) -> str:
    """JSON text of a number: its repr, or null when it is not finite."""
    return repr(value) if math.isfinite(value) else "null"


_boolean = ("false", "true").__getitem__

# the keys of a solution row of report.json, in the order of _row_values,
# each with the function that writes its value as JSON text
_ROW_KEYS = (("index", repr), ("beta_re", _number), ("beta_im", _number),
             ("L_re", _number), ("L_im", _number),
             ("residual_force", _number), ("residual_moment", _number),
             ("rel_residual", _number), ("squared_residual", _number),
             ("real", _boolean), ("accepted", _boolean),
             ("note", encode_basestring_ascii))
_SORTED_ROW = sorted(range(len(_ROW_KEYS)), key=lambda k: _ROW_KEYS[k][0])
_pick_sorted = operator.itemgetter(*_SORTED_ROW)
_ROW_WRITERS = [_ROW_KEYS[k][1] for k in _SORTED_ROW]
# a solution row as report.json nests it, two levels deep: one %s per key,
# in sorted order
_ROW_TEMPLATE = ("{\n      " + ",\n      ".join(
    f'"{key}": %s' for key, _ in sorted(_ROW_KEYS)) + "\n    }")


def _row_values(index: int, s: EquilibriumSolution) -> tuple:
    return (index, s.beta.real, s.beta.imag, s.length.real, s.length.imag,
            s.residual_force, s.residual_moment, s.rel_residual,
            s.squared_residual, s.is_real, s.accepted, s.note)


def _report_fields(report: AnalysisReport, solutions: list) -> dict:
    """report_to_dict with the given solution rows."""
    e = report.point_e
    return {
        "contact": report.contact,
        "case": report.case,
        "point_E": None if e is None else [e.x, e.y],
        "free_pose": report.free_pose,
        "counts": report.counts,
        "margin": report.margin,
        "solutions": solutions,
        "notes": report.notes,
        "params": report.config.to_dict(),
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-ready view of the report (timing excluded for determinism)."""
    keys = [key for key, _ in _ROW_KEYS]
    return _report_fields(report, [
        dict(zip(keys, _row_values(i, s)))
        for i, s in enumerate(report.solutions, start=1)])


class _Encoded(str):
    """JSON text that _json writes as it is."""


# the types _json does not pass to the C encoder as values
_CONTAINERS = frozenset((dict, list, tuple, _Encoded))


def _flat(values) -> bool:
    return _CONTAINERS.isdisjoint(map(type, values))


def _finite_copy(obj):
    """Flat object or array with non-finite floats as None (valid JSON)."""
    if isinstance(obj, dict):
        return {k: None if isinstance(v, float) and not math.isfinite(v)
                else v for k, v in obj.items()}
    return [None if isinstance(v, float) and not math.isfinite(v) else v
            for v in obj]


@functools.cache
def _flat_encoder(depth: int):
    """C encoder of a scalar or of a flat object or array at ``depth``."""
    return json.JSONEncoder(sort_keys=True,
                            separators=(",\n" + "  " * depth, ": ")).encode


def _json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with non-finite
    floats as null, for ``obj`` nested ``depth`` levels deep. Containers
    must be plain dicts, lists or tuples, as ``report_to_dict`` builds;
    _Encoded text is written as it is."""
    if type(obj) is _Encoded:
        return obj
    if type(obj) not in _CONTAINERS:
        return _flat_encoder(0)(_finite_copy([obj])[0])
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    is_dict = isinstance(obj, dict)
    indent = "  " * (depth + 1)
    if _flat(obj.values() if is_dict else obj):
        body = _flat_encoder(depth + 1)(_finite_copy(obj))[1:-1]
    else:
        items = ([f"{_json(k)}: {_json(v, depth + 1)}"
                  for k, v in sorted(obj.items())] if is_dict
                 else [_json(v, depth + 1) for v in obj])
        body = f",\n{indent}".join(items)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{indent}{body}\n{'  ' * depth}{closing}"


def emit_tables(report: AnalysisReport, out_dir,
                formats=("json", "csv")) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = out / "solutions.csv"
        lines = [CSV_HEADER]
        lines += [_CSV_ROW % (i, s.beta.real, s.beta.imag, s.length.real,
                              s.length.imag, s.residual_force,
                              s.residual_moment, s.is_real, s.accepted)
                  for i, s in enumerate(report.solutions, start=1)]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    if "json" in formats:
        path = out / "report.json"
        rows = [_Encoded(_ROW_TEMPLATE % tuple([write(v) for write, v in zip(
                    _ROW_WRITERS, _pick_sorted(_row_values(i, s)))]))
                for i, s in enumerate(report.solutions, start=1)]
        path.write_text(_json(_report_fields(report, rows)) + "\n")
        written.append(path)
    return written


# --- SVG rendering -------------------------------------------------------
# Every attribute value and text is a number, a colour or a fixed name, so
# nothing needs XML escaping.

def _mechanism_points(params: MechanismParams, solution: EquilibriumSolution,
                      e: Point2):
    """The named points of a drawn pose and the world coordinates of its
    three spring zigzags, which every drawing of the pose shares."""
    pose = pose_from(solution.length.real, solution.beta.real, params, e)
    o1, a1 = params.base_origin, params.a1_fixed
    points = dict(zip(_POINT_NAMES, (o1, a1, pose.o2, pose.a2, pose.p)))
    return points, [_spring_points(s_from, s_to) for s_from, s_to in
                    ((o1, pose.o2), (o1, pose.a2), (a1, pose.a2))]


def _spring_points(p_from: Point2, p_to: Point2, coils: int = 6,
                   width_ratio: float = 0.08) -> list[tuple[float, float]]:
    """Zigzag between two points with straight lead-in segments, in world
    coordinates rounded to 4 decimals."""
    dx, dy = p_to.x - p_from.x, p_to.y - p_from.y
    length = math.hypot(dx, dy)
    if length == 0:
        return [(p_from.x, p_from.y)]
    nx, ny = -dy / length, dx / length
    amp = width_ratio * length
    lead = 0.15
    pts = [(p_from.x, p_from.y), (p_from.x + lead * dx, p_from.y + lead * dy)]
    for i in range(coils):
        t = lead + (1 - 2 * lead) * (i + 0.5) / coils
        side = 1.0 if i % 2 == 0 else -1.0
        pts.append((p_from.x + t * dx + side * amp * nx,
                    p_from.y + t * dy + side * amp * ny))
    pts += [(p_from.x + (1 - lead) * dx, p_from.y + (1 - lead) * dy),
            (p_to.x, p_to.y)]
    return [(round(x, 4), round(y, 4)) for x, y in pts]


class _Canvas:
    """World-to-SVG mapping with a flipped y axis."""

    def __init__(self, points: list[Point2], pad: float = 1.5):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        self.x0, self.x1 = min(xs) - pad, max(xs) + pad
        self.y0, self.y1 = min(ys) - pad, max(ys) + pad
        self.scale = 640.0 / max(self.x1 - self.x0, 1e-9)
        self.height = (self.y1 - self.y0) * self.scale

    def map(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.x0) * self.scale, (self.y1 - y) * self.scale)


def _draw_line(parts, canvas, p1, p2, stroke, width="2"):
    x1, y1 = canvas.map(p1.x, p1.y)
    x2, y2 = canvas.map(p2.x, p2.y)
    parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                 f'y2="{y2:.2f}" stroke="{stroke}" stroke-width="{width}" />')


def _draw_point(parts, canvas, p, color="#000000", label=None):
    x, y = canvas.map(p.x, p.y)
    parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
                 f'fill="{color}" />')
    if label:
        parts.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="13" '
                     f'fill="{color}" font-family="sans-serif">{label}</text>')


def _surface_segment(params: MechanismParams, canvas_pts: list[Point2]):
    m = params.surface_point
    d = unit_vector(params.surface_angle)
    span = max((max(p.x for p in canvas_pts) - min(p.x for p in canvas_pts)),
               (max(p.y for p in canvas_pts) - min(p.y for p in canvas_pts)),
               5.0) * 1.2
    return m - span * d, m + span * d


def _open_drawing(params, canvas_pts, surface_pts, e):
    """Canvas and first fragments of a drawing: the XML declaration, the
    svg start tag, the surface and, when there is one, point E."""
    canvas = _Canvas(canvas_pts)
    width = (canvas.x1 - canvas.x0) * canvas.scale
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n"
             f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 '
             f'{width:.1f} {canvas.height:.1f}" width="{width:.0f}" '
             f'height="{canvas.height:.0f}">']
    _draw_line(parts, canvas, *_surface_segment(params, surface_pts),
               "#000000", "5")
    if e is not None:
        _draw_point(parts, canvas, e, "#555555", "E")
    return canvas, parts


def _write_svg(path: Path, parts: list[str]) -> Path:
    parts.append("</svg>")
    path.write_text("".join(parts), encoding="utf-8")
    return path


@functools.cache
def _pose_template(color: str, label_points: bool, counts: tuple) -> str:
    """%-format template of one drawn pose, as _draw_line and _draw_point
    draw it: the base line O1-A1, the platform triangle O2, A2, P, the
    three springs with their point counts and the named points."""
    line = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{}" '
            'stroke-width="{}" />')
    parts = [line.format("#333333", "4")] + [line.format(color, "3")] * 3
    for scolor, count in zip(SPRING_COLORS, counts):
        points = " ".join(["%.2f,%.2f"] * count)
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
    x0, y1, scale = canvas.x0, canvas.y1, canvas.scale
    o1, a1, o2, a2, p = mapped = [canvas.map(pt.x, pt.y)
                                  for pt in points.values()]
    # the base line, then the top platform triangle
    values = [*o1, *a1, *o2, *a2, *o2, *p, *a2, *p]
    for spring in springs:
        for x, y in spring:
            values += ((x - x0) * scale, (y1 - y) * scale)
    for x, y in mapped:
        values += (x, y, x + 6, y - 6) if label_points else (x, y)
    parts.append(_pose_template(color, label_points,
                                tuple(map(len, springs)))
                 % tuple(values))


def _remove_stale_drawings(out: Path, written: list[Path]) -> list[Path]:
    """Delete the drawings solution_<k>.svg in out that are not among the
    files just written, left there by an earlier run; the written files
    are returned."""
    keep = {path.name for path in written}
    with os.scandir(out) as entries:
        stale = [entry.path for entry in entries
                 if entry.name not in keep and _DRAWING.fullmatch(entry.name)
                 and not entry.is_dir(follow_symlinks=False)]
    for path in stale:
        Path(path).unlink(missing_ok=True)
    return written


def render_svg(report: AnalysisReport, out_dir) -> list[Path]:
    """One drawing per real accepted solution plus an overview that
    overlays them, grouped by which side of the surface holds the top
    platform origin. Drawings of an earlier run in out_dir that this run
    does not rewrite are deleted once the new files are written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = report.config.params
    e = report.point_e
    written: list[Path] = []
    real_accepted = [(i, s) for i, s in enumerate(report.solutions, start=1)
                     if s.accepted and s.is_real]
    if e is None:
        # no contact solve ran; nothing but an empty overview to draw
        _, parts = _open_drawing(
            params, [params.base_origin, params.a1_fixed,
                     params.surface_point],
            [params.base_origin, params.surface_point], None)
        return _remove_stale_drawings(
            out, [_write_svg(out / "overview.svg", parts)])

    poses = {i: _mechanism_points(params, s, e) for i, s in real_accepted}
    world = [params.base_origin, params.a1_fixed, params.surface_point, e]
    world += [p for pts, _ in poses.values() for p in pts.values()]
    plane = make_plane(params.surface_angle, params.surface_point)

    for idx, sol in real_accepted:
        pts = list(poses[idx][0].values())
        canvas, parts = _open_drawing(
            params, pts + [params.base_origin, params.a1_fixed, e,
                           params.surface_point], pts, e)
        _draw_solution(parts, canvas, poses[idx])
        parts.append(f"<title>solution {idx}: beta={sol.beta.real:.4f}, "
                     f"L={sol.length.real:.4f}</title>")
        written.append(_write_svg(out / f"solution_{idx}.svg", parts))

    canvas, parts = _open_drawing(params, world, world, e)
    sides = {"positive": [], "negative": []}
    for k, (idx, sol) in enumerate(real_accepted):
        pose = poses[idx]
        side = "positive" if plane.evaluate(pose[0]["O2"]) > 0 else "negative"
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
    written.append(_write_svg(out / "overview.svg", parts))
    return _remove_stale_drawings(out, written)
