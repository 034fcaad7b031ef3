"""Run configuration: the JSON schema boundary.

Angles enter in degrees and are converted to radians exactly once, here.
The file schema is strict: the full given-quantity list is required and
unknown keys are rejected. The free lengths pick the solver case; the
optional "case" key only asserts it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .geometry import Point2
from .mechanism import MechanismParams

CASE_AUTO = "auto"
CASE_ZERO = "zero-free-lengths"
CASE_ONE = "one-nonzero"
FORMATS = ("json", "csv", "svg")

REQUIRED_KEYS = ("P_M", "alpha_deg", "P_A1_in1", "P_A2_in2", "P_P_in2",
                 "P_O1", "phi1_deg", "k", "L0")
OPTIONAL_KEYS = ("case", "output_dir", "formats")


@dataclass(frozen=True)
class RunConfig:
    params: MechanismParams
    output_dir: str = "out"
    formats: tuple[str, ...] = FORMATS

    def __post_init__(self):
        """Checks that config files, the CLI's overrides and direct
        construction share: the free lengths fit a solver case, the
        formats are a nonempty subset of FORMATS and the output directory
        is named."""
        if self.case is None:
            raise UnsupportedFreeLengthPattern()
        if not self.formats or any(f not in FORMATS for f in self.formats):
            raise ValidationError(
                "formats", f"must be a nonempty subset of {FORMATS}")
        if not self.output_dir:
            raise ValidationError("output_dir", "must not be empty")

    @property
    def case(self) -> str | None:
        """The solver case the free lengths imply."""
        return free_length_case(self.params.free_lengths)

    def to_dict(self) -> dict:
        p = self.params
        return {
            "P_M": [p.surface_point.x, p.surface_point.y],
            "alpha_deg": math.degrees(p.surface_angle),
            "P_A1_in1": [p.a1_in_base.x, p.a1_in_base.y],
            "P_A2_in2": [p.a2_in_top.x, p.a2_in_top.y],
            "P_P_in2": [p.p_in_top.x, p.p_in_top.y],
            "P_O1": [p.base_origin.x, p.base_origin.y],
            "phi1_deg": math.degrees(p.base_angle),
            "k": list(p.stiffness),
            "L0": list(p.free_lengths),
            "case": self.case,
            "output_dir": self.output_dir,
            "formats": list(self.formats),
        }


# the free-length pattern of each solver case, as free_length_case tests it
CASE_PATTERNS = {CASE_ZERO: "L01 = L02 = L03 = 0",
                 CASE_ONE: "L01 > 0 and L02 = L03 = 0"}


class UnsupportedFreeLengthPattern(ValidationError):
    """Free-length pattern fits neither supported solver case."""

    def __init__(self):
        super().__init__("L0", "unsupported free-length pattern (need "
                         + ", or ".join(CASE_PATTERNS.values()) + ")")


def free_length_case(free_lengths) -> str | None:
    """Solver case implied by the free-length pattern, or None."""
    l01, l02, l03 = free_lengths
    if l01 == 0 and l02 == 0 and l03 == 0:
        return CASE_ZERO
    if l01 > 0 and l02 == 0 and l03 == 0:
        return CASE_ONE
    return None


def _is_number(value) -> bool:
    # finite: json passes NaN and Infinity on; an int can overflow a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _floats(data, key, count: int) -> tuple[float, ...]:
    value = data[key]
    if (not isinstance(value, (list, tuple)) or len(value) != count
            or not all(_is_number(v) for v in value)):
        raise ValidationError(key, f"expected {count} finite numbers")
    return tuple(map(float, value))


def _number(data, key) -> float:
    value = data[key]
    if not _is_number(value):
        raise ValidationError(key, "expected a finite number")
    return float(value)


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - set(REQUIRED_KEYS) - set(OPTIONAL_KEYS)
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown key")
    missing = [k for k in REQUIRED_KEYS if k not in data]
    if missing:
        raise ValidationError(missing[0], "required key missing")

    try:
        params = MechanismParams(
            surface_point=Point2(*_floats(data, "P_M", 2)),
            surface_angle=math.radians(_number(data, "alpha_deg")),
            a1_in_base=Point2(*_floats(data, "P_A1_in1", 2)),
            a2_in_top=Point2(*_floats(data, "P_A2_in2", 2)),
            p_in_top=Point2(*_floats(data, "P_P_in2", 2)),
            base_origin=Point2(*_floats(data, "P_O1", 2)),
            base_angle=math.radians(_number(data, "phi1_deg")),
            stiffness=_floats(data, "k", 3),
            free_lengths=_floats(data, "L0", 3),
        )
    except ValueError as exc:
        raise ValidationError("params", str(exc)) from exc

    formats = data.get("formats", FORMATS)
    if not isinstance(formats, (list, tuple)):
        raise ValidationError("formats", "expected a list")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ValidationError("output_dir", "must be a string")

    config = RunConfig(params=params, output_dir=output_dir,
                       formats=tuple(formats))
    case = data.get("case", CASE_AUTO)
    if case not in (CASE_AUTO, config.case):
        raise ValidationError(
            "case", f"free lengths {params.free_lengths} do not "
                    f"match requested case {case!r}")
    return config


def _object(pairs) -> dict:
    """json's hook for an object, at any depth: a repeated key is an error."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
    return dict(pairs)


def load_config(path) -> RunConfig:
    """Read and validate a run configuration file (JSON)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=_object)
    except ValueError as exc:  # not UTF-8, not JSON or a duplicate key
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return config_from_dict(data)
