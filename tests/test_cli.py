import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from _support import REFERENCE_CONFIG

from spring_platform import (MechanismError, config_from_dict, load_config,
                             solve_equilibria)
from spring_platform.cli import main

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, overrides=None, name="run.json"):
    data = dict(REFERENCE_CONFIG)
    data.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_zero_case_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out),
                 "--format", "json,csv,svg"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "total=4" in captured
    assert (out / "solutions.csv").exists()
    assert (out / "report.json").exists()
    svgs = list(out.glob("solution_*.svg"))
    assert len(svgs) == 2
    assert (out / "overview.svg").exists()


def test_module_entry_point_is_solve(tmp_path, capsys):
    # python -m spring_platform is the solve command: the same lines on
    # stdout but the elapsed time, for the same arguments
    args = ["--config", str(ROOT / "configs" / "all_zero_free_lengths.json"),
            "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "spring_platform", *args],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert main(args) == 0

    def timeless(text):
        return [line for line in text.splitlines()
                if not line.startswith("elapsed:")]

    assert timeless(run.stdout) == timeless(capsys.readouterr().out)
    assert "wrote" in run.stdout


def test_missing_config_is_validation_exit(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_invalid_config_exit(tmp_path):
    cfg = write_config(tmp_path, {"L0": [0.0, 0.5, 0.0]})
    assert main(["--config", str(cfg)]) == 2


# finite values whose products overflow an eliminant: stiffness 1e160 on
# either committed config, a far base origin and a huge free length; and
# two whose one-nonzero eliminant is finite but its quotient by the known
# double roots is not: a pin 1e-200 off the top origin, a stiffness 1e22
OVERFLOWS = {"k1 zero": {"k": [1e160, 1.85, 1.45]},
             "k3 one": {"k": [1.5, 1.85, 1e160], "L0": [1.0, 0.0, 0.0]},
             "P_O1 zero": {"P_O1": [1e200, 3.5]},
             "P_O1 one": {"P_O1": [1e200, 3.5], "L0": [1.0, 0.0, 0.0]},
             "L01": {"L0": [1e300, 0.0, 0.0]},
             "P_P quotient": {"P_P_in2": [1e-200, 0.0],
                              "L0": [1.0, 0.0, 0.0]},
             "k1 quotient": {"k": [1e22, 1.85, 1.45], "L0": [1.0, 0.0, 0.0]}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflowing_eliminant_exit_3(tmp_path, capsys, monkeypatch,
                                      overrides):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, overrides)
    assert main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: solve-{load_config(cfg).case}: the eliminant "
        "in z overflows floating point\n")
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_pin_at_top_origin_exit_3(tmp_path, capsys, monkeypatch):
    # the solve's own error, named with the case the free lengths pick
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"P_P_in2": [0.0, 0.0],
                                  "L0": [1.0, 0.0, 0.0]})
    assert main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: solve-one-nonzero: the pin is at the top-frame "
        "origin: O2 does not turn with beta, so the eliminants in z lose "
        "their structural degree\n")
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_lost_roots_warning_is_one_line(tmp_path, capsys):
    # at L01 = 1e-9 fewer than the 14 same-sign roots of the reference
    # converge: the run succeeds and says so on one stderr line
    cfg = write_config(tmp_path, {"L0": [1e-9, 0.0, 0.0]})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"warning: LostRoots: \d+ of the 14 same-sign roots "
                        r"converged\n", captured.err)
    assert captured.out.startswith("contact: assumed\n")


@pytest.mark.parametrize("overrides", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflowing_eliminant_raises(tmp_path, overrides):
    # the library says it with the one MechanismError and no numpy warning
    params = load_config(write_config(tmp_path, overrides)).params
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MechanismError):
            solve_equilibria(params)


def test_config_errors_exit_2(tmp_path, capsys):
    # a file that is not UTF-8, a number json reads as NaN and a key given
    # twice are configuration errors, reported on one error line
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"output_dir": "\xff"}')
    nan = write_config(tmp_path, {"P_M": [float("nan"), 6.25]})
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0]))
                     [:-1] + ', "L0": [0.0, 0.0, 0.0]}')
    for cfg in (not_utf8, nan, twice):
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_parallel_base_exit_2(tmp_path, capsys, monkeypatch):
    # a base X axis parallel to the surface has no point E: the params are
    # invalid, reported on one error line before anything is written
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"phi1_deg": 150.0})
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: params: ")
    assert err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_case_flag_conflict(tmp_path, capsys):
    # the free lengths pick the case; a "case" key that names the other
    # one is a configuration error
    cfg = write_config(tmp_path, {"case": "one-nonzero"})
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: case: ")
    assert err.count("\n") == 1


def test_bad_format_flag(tmp_path, capsys, monkeypatch):
    # an empty override is rejected like any other bad value, before the
    # solve, so nothing is written: not even to the config's own "out"
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    for flags in (["--format", "pdf"], ["--format", ""], ["--format=,"],
                  ["--out="], ["--out=o\0ut"]):
        assert main(["--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_tolerance_flag(tmp_path, capsys):
    # the one-nonzero acceptance level is fixed, and the output directory
    # and formats are the command line's; a config that sets one is
    # rejected as having an unknown key
    for key, value in (("tolerances", {"accept": 1e-6}),
                       ("output_dir", "out"), ("formats", ["json"])):
        cfg = write_config(tmp_path, {"L0": [1.0, 0.0, 0.0], key: value})
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {key}: unknown key\n"


def test_report_does_not_depend_on_output_options(tmp_path):
    # report.json is the same wherever, and in whichever formats, it is
    # written, and its params block loads as the config it was run from
    cfg = ROOT / "configs" / "one_nonzero_free_length.json"
    assert main(["--config", str(cfg), "--out", str(tmp_path / "A"),
                 "--format", "json"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "B")]) == 0
    report = (tmp_path / "A" / "report.json").read_bytes()
    assert report == (tmp_path / "B" / "report.json").read_bytes()
    assert (config_from_dict(json.loads(report)["params"])
            == load_config(cfg))


def test_csv_only_writes_no_svg(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "csvonly"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--format", "csv"]) == 0
    assert (out / "solutions.csv").exists()
    assert not list(out.glob("*.svg"))
    assert not (out / "report.json").exists()


def test_unwritable_output_exit_2(tmp_path, capsys):
    # an output path that is a regular file, or lies under one, is a
    # configuration error for the tables and for the drawings alike
    cfg = write_config(tmp_path)
    regular = tmp_path / "regular"
    regular.write_text("")
    for out in (regular, regular / "out"):
        for formats in ("json,csv", "svg"):
            assert main(["--config", str(cfg), "--out", str(out),
                         "--format", formats]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
    assert regular.read_text() == ""
