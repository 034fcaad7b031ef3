import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from _support import REFERENCE_CONFIG, random_params, reference_params

import spring_platform
from spring_platform import (Point2, RunConfig, config_from_dict, emit_tables,
                             render_svg, report_to_dict, run_analysis)
from spring_platform.errors import LostRoots
from spring_platform.mechanism import MechanismParams, point_e, pose_from
from spring_platform.output import CSV_HEADER

SVG = {"svg": "http://www.w3.org/2000/svg"}


def _report(l0=(0.0, 0.0, 0.0)):
    return run_analysis(config_from_dict(dict(REFERENCE_CONFIG, L0=list(l0))))


def _balanced_pin_report():
    # the pin where the zero case's force residual loses beta: two rows
    # with infinite beta_im and a NaN length
    k1, k2, k3 = REFERENCE_CONFIG["k"]
    x = (k2 + k3) * REFERENCE_CONFIG["P_A2_in2"][0] / (k1 + k2 + k3)
    report = run_analysis(config_from_dict(
        dict(REFERENCE_CONFIG, P_P_in2=[x, 0.0])))
    assert any(s.note == "no finite beta" and math.isinf(s.beta.imag)
               and math.isnan(s.length.real) for s in report.solutions)
    return report


def _quoted_note_report():
    # a note with quotes, which report.json must escape
    report = _report((1.0, 0.0, 0.0))
    return report._replace(notes=report.notes + ['a "quoted" note'])


def _pin_at_anchor_report():
    # a degenerate one-nonzero mechanism whose rows include the notes
    # "repeated root" and "refinement not converged"
    params = reference_params(l01=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LostRoots)
        report = run_analysis(RunConfig(params=dataclasses.replace(
            params, p_in_top=params.a2_in_top)))
    notes = {s.note for s in report.solutions}
    assert {"repeated root", "refinement not converged"} <= notes
    return report


def _non_finite_margin_report():
    # a margin of NaN and infinities, which report.json writes as nulls
    report = _report((1.0, 0.0, 0.0))
    return report._replace(margin={"max_accepted_residual": math.nan,
                                   "min_rejected_residual": math.inf,
                                   "ratio": -math.inf})


def _corpus_report(seed, index, one_nonzero):
    """Report of mechanism index of a seed: L01 ~ U(0.2, 2) drawn first
    for one-nonzero mechanisms, all free lengths zero otherwise."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        params = (random_params(rng, l01=float(rng.uniform(0.2, 2.0)))
                  if one_nonzero else random_params(rng))
    return run_analysis(RunConfig(params=params))


def _null_non_finite(obj):
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


def _csv_line(i, s):
    return ",".join([
        str(i),
        f"{s.beta.real:.6f}", f"{s.beta.imag:.6f}",
        f"{s.length.real:.6f}", f"{s.length.imag:.6f}",
        f"{s.residual_force:.6e}", f"{s.residual_moment:.6e}",
        str(int(s.is_real)), str(int(s.accepted))])


TABLE_REPORTS = {
    "reference-zero": _report,
    "reference-one": lambda: _report((1.0, 0.0, 0.0)),
    "no-finite-beta": _balanced_pin_report,
    "quoted-note": _quoted_note_report,
    "pin-at-anchor": _pin_at_anchor_report,
    "non-finite-margin": _non_finite_margin_report,
}
for _k in range(5):
    TABLE_REPORTS[f"seed-2026-one-{_k}"] = (
        lambda k=_k: _corpus_report(2026, k, one_nonzero=True))
    TABLE_REPORTS[f"seed-59-zero-{_k}"] = (
        lambda k=_k: _corpus_report(59, k, one_nonzero=False))


@pytest.mark.parametrize("name", TABLE_REPORTS)
def test_tables_match_json_module_and_csv_format(tmp_path, name):
    report = TABLE_REPORTS[name]()
    json_path, csv_path = (tmp_path / "report.json",
                           tmp_path / "solutions.csv")
    assert emit_tables(report, tmp_path, ("csv", "json")) == [csv_path,
                                                                json_path]
    expected = json.dumps(_null_non_finite(report_to_dict(report)),
                          indent=2, sort_keys=True) + "\n"
    text = json_path.read_text()
    assert text == expected
    # strict JSON: a NaN, Infinity or -Infinity token fails the parse
    data = json.loads(text, parse_constant=_reject_constant)
    assert len(data["solutions"]) == len(report.solutions)
    lines = [CSV_HEADER] + [_csv_line(i, s) for i, s in
                            enumerate(report.solutions, start=1)]
    assert csv_path.read_text() == "\n".join(lines) + "\n"


def test_import_loads_no_xml_tree():
    src = Path(spring_platform.__file__).resolve().parents[1]
    code = ("import sys, spring_platform; "
            "print('xml.etree.ElementTree' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout.strip() == "False"


def test_csv_rows_and_columns(tmp_path):
    report = _report()
    files = emit_tables(report, tmp_path, ("csv",))
    text = files[0].read_text().strip().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + 4
    row = text[1].split(",")
    assert len(row) == 9
    float(row[1])  # beta_re parses
    assert row[7] in ("0", "1") and row[8] in ("0", "1")


def test_csv_one_nonzero_rows(tmp_path):
    report = _report((1.0, 0.0, 0.0))
    files = emit_tables(report, tmp_path, ("csv",))
    lines = files[0].read_text().strip().splitlines()
    assert len(lines) == 1 + 48
    accepted = sum(1 for line in lines[1:] if line.split(",")[8] == "1")
    assert accepted == report.counts["accepted"]


def test_json_structure(tmp_path):
    report = _report()
    files = emit_tables(report, tmp_path, ("json",))
    data = json.loads(files[0].read_text())
    assert data["case"] == "zero-free-lengths"
    assert data["counts"]["total"] == 4
    assert len(data["solutions"]) == 4
    assert data["point_E"] is not None
    assert "timing" not in data  # deterministic output carries no timing
    assert data["params"]["k"] == [1.5, 1.85, 1.45]


def test_json_deterministic(tmp_path):
    a = emit_tables(_report(), tmp_path / "a", ("json", "csv"))
    b = emit_tables(_report(), tmp_path / "b", ("json", "csv"))
    for fa, fb in zip(a, b):
        assert fa.read_bytes() == fb.read_bytes()


def test_report_dict_counts_match():
    report = _report((1.0, 0.0, 0.0))
    data = report_to_dict(report)
    assert data["counts"]["accepted"] == \
        sum(1 for s in data["solutions"] if s["accepted"])


def _near(p, q):
    # two coordinates each rounded to 0.01 px
    return max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= 0.01 + 1e-9


def _points(polyline):
    return [tuple(map(float, pair.split(",")))
            for pair in polyline.get("points").split()]


@pytest.mark.parametrize("l0, drawings", [((0.0, 0.0, 0.0), 2),
                                          ((1.0, 0.0, 0.0), 2)],
                         ids=["l00", "l01"])
def test_svg_structure(tmp_path, l0, drawings):
    report = _report(l0)
    emit_tables(report, tmp_path, ("csv",))
    csv_rows = (tmp_path / "solutions.csv").read_text().splitlines()[1:]
    files = render_svg(report, tmp_path)
    solutions = [f for f in files if f.name.startswith("solution_")]
    # one drawing per real accepted solution
    assert len(solutions) == report.counts["real"] == drawings
    for path in solutions:
        root = ET.parse(path).getroot()
        assert len(root.findall("svg:line", SVG)) == 5
        circles = [(float(c.get("cx")), float(c.get("cy")))
                   for c in root.findall("svg:circle", SVG)]
        assert len(circles) == 6
        # each label sits 6 px right of and above its circle
        at = {}
        for t in root.findall("svg:text", SVG):
            x, y = float(t.get("x")) - 6, float(t.get("y")) + 6
            at[t.text] = next(c for c in circles if _near(c, (x, y)))
        assert set(at) == {"O1", "A1", "O2", "A2", "P", "E"}
        polylines = root.findall("svg:polyline", SVG)
        assert len(polylines) == 3
        for line, (a, b) in zip(polylines,
                                (("O1", "O2"), ("O1", "A2"), ("A1", "A2"))):
            pts = _points(line)
            assert len(pts) == 10
            assert _near(pts[0], at[a]) and _near(pts[-1], at[b])
        index = int(path.stem.split("_")[1])
        row = csv_rows[index - 1].split(",")
        title = root.find("svg:title", SVG).text
        assert title.startswith(f"solution {index}: ")
        beta, length = (float(part.split("=")[1])
                        for part in title.split(": ")[1].split(", "))
        assert abs(beta - float(row[1])) <= 5.1e-5
        assert abs(length - float(row[3])) <= 5.1e-5
    assert tmp_path / "overview.svg" in files
    overview = ET.parse(tmp_path / "overview.svg").getroot()
    sides = {g.get("id"): int(g.get("data-solutions"))
             for g in overview.findall("svg:g", SVG)
             if g.get("id", "").startswith("side_")}
    assert set(sides) == {"side_positive", "side_negative"}
    assert sum(sides.values()) == report.counts["real"]
    # the positive side holds the poses whose O2 lies where the surface
    # direction turned by -pi/2 points, seen from the surface line
    params = report.config.params
    alpha = params.surface_angle
    normal = Point2(math.sin(alpha), -math.cos(alpha))
    positive = {
        f"solution_{i}" for i, s in enumerate(report.solutions, start=1)
        if s.accepted and s.is_real and normal.dot(pose_from(
            s.length.real, s.beta.real, params, params.point_e).o2
            - params.surface_point) > 0}
    group = next(g for g in overview.findall("svg:g", SVG)
                 if g.get("id") == "side_positive")
    assert {g.get("id") for g in group.findall("svg:g", SVG)} == positive
    assert 0 < len(positive) < report.counts["real"]


def test_svg_rerun_removes_stale_drawings(tmp_path):
    # the two configs draw different solution indices; a second run into
    # the same directory leaves only its own drawings, and files that are
    # not drawings stay
    other = tmp_path / "solution_3.svg.txt"
    other.write_text("kept")
    first = render_svg(_report(), tmp_path)
    second = render_svg(_report((1.0, 0.0, 0.0)), tmp_path)
    assert {path.name for path in first} - {path.name for path in second}
    assert sorted(tmp_path.iterdir()) == sorted(second + [other])


def test_svg_zero_length_spring_is_one_point(tmp_path):
    # a pose with O2 exactly on O1: the surface is y = 0, E lies on it,
    # beta = 0 and L = -E.x put the pin at (0, 0) and O2 at O1 = (0, 2).
    # Every spring is drawn as a polyline of 10 points: the spring O1-O2
    # as 10 points all at O1, the others as zigzags
    params = MechanismParams(
        surface_point=Point2(0.0, 0.0), surface_angle=0.0,
        a1_in_base=Point2(3.0, 0.0), a2_in_top=Point2(1.5, 0.0),
        p_in_top=Point2(0.0, 2.0), base_origin=Point2(0.0, 2.0),
        base_angle=-math.pi / 2, stiffness=(1.0, 1.0, 1.0),
        free_lengths=(0.0, 0.0, 0.0))
    e = point_e(params)
    assert e.y == 0.0
    pose = pose_from(-e.x, 0.0, params, e)
    assert (pose.o2.x, pose.o2.y) == (0.0, 2.0)
    report = _report()
    solution = report.solutions[0]._replace(
        beta=0j, length=complex(-e.x), is_real=True, accepted=True)
    report = report._replace(
        config=RunConfig(params=params), solutions=[solution])
    render_svg(report, tmp_path)
    for name in ("solution_1.svg", "overview.svg"):
        root = ET.parse(tmp_path / name).getroot()
        springs = [_points(line)
                   for line in root.findall(".//svg:polyline", SVG)]
        assert list(map(len, springs)) == [10, 10, 10]
        # each point of the first is O1's circle
        circles = [(float(c.get("cx")), float(c.get("cy")))
                   for c in root.findall(".//svg:circle", SVG)]
        assert all(_near(point, circles[-5]) for point in springs[0])


# --- the write path: every file is written with the flags and mode of
# open(path, "w")

def _write_all(report, out):
    return emit_tables(report, out) + render_svg(report, out)


def test_shorter_rewrite_leaves_only_its_bytes(tmp_path):
    # the zero report's files written over the longer files of the
    # one-nonzero report read as the zero report's files written alone
    names = ("report.json", "solutions.csv", "overview.svg")
    _write_all(_report(), tmp_path / "alone")
    _write_all(_report((1.0, 0.0, 0.0)), tmp_path / "over")
    longer = [(tmp_path / "over" / name).stat().st_size for name in names]
    _write_all(_report(), tmp_path / "over")
    for name, size in zip(names, longer):
        alone = (tmp_path / "alone" / name).read_bytes()
        assert len(alone) < size
        assert (tmp_path / "over" / name).read_bytes() == alone


def test_new_files_get_the_mode_of_open_w(tmp_path):
    umask = os.umask(0o002)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        files = _write_all(_report(), tmp_path)
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert {stat.S_IMODE(path.stat().st_mode) for path in files} == {mode}


def test_symlink_at_an_output_is_written_through(tmp_path):
    expected = emit_tables(_report(), tmp_path / "alone", ("json",))[0]
    target = tmp_path / "target.json"
    target.write_text("an older and longer file " * 1000)
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").symlink_to(target)
    emit_tables(_report(), out, ("json",))
    assert (out / "report.json").is_symlink()
    assert target.read_bytes() == expected.read_bytes()


WRITERS = {"emit_tables": emit_tables, "render_svg": render_svg}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_missing_nested_output_directory_is_made(tmp_path, write):
    out = tmp_path / "a" / "b" / "c"
    files = write(_report(), str(out))
    assert files and all(path.parent == out and path.is_file()
                         for path in files)


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_output_path_that_is_a_file_raises(tmp_path, write):
    out = tmp_path / "out"
    out.write_text("a file")
    with pytest.raises(OSError):
        write(_report(), out)
    assert out.read_text() == "a file"
