"""Run configuration: the JSON schema boundary.

A config file gives the mechanism and nothing else; where a run writes
its report, and in which file types, is the command line's. Angles enter in
degrees and are converted to radians exactly once, here. The file schema
is strict: the full given-quantity list is required and unknown keys are
rejected. The free lengths pick the solver case; the optional "case" key
only asserts it.
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

# each mechanism key of a config file, in reading order, with the
# MechanismParams field it sets and its count of numbers: 2 for a point, 3
# per spring, and 1 for an angle, in degrees in the file, radians in params
MECHANISM_KEYS = (
    ("P_M", "surface_point", 2), ("alpha_deg", "surface_angle", 1),
    ("P_A1_in1", "a1_in_base", 2), ("P_A2_in2", "a2_in_top", 2),
    ("P_P_in2", "p_in_top", 2), ("P_O1", "base_origin", 2),
    ("phi1_deg", "base_angle", 1), ("k", "stiffness", 3),
    ("L0", "free_lengths", 3))
REQUIRED_KEYS = tuple(key for key, _, _ in MECHANISM_KEYS)
OPTIONAL_KEYS = ("case",)
_KNOWN_KEYS = frozenset(REQUIRED_KEYS + OPTIONAL_KEYS)


@dataclass(frozen=True)
class RunConfig:
    params: MechanismParams

    def __post_init__(self):
        """The free lengths fit a solver case, for a config file and for
        direct construction alike."""
        if self.case is None:
            raise UnsupportedFreeLengthPattern()

    @property
    def case(self) -> str | None:
        """The solver case the free lengths imply."""
        return free_length_case(self.params.free_lengths)

    def to_dict(self) -> dict:
        """The config file of this mechanism, with its resolved case."""
        data = {key: _echo(getattr(self.params, field), count)
                for key, field, count in MECHANISM_KEYS}
        data["case"] = self.case
        return data


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


def _read(data, key, count: int):
    """The value of a mechanism key as its MechanismParams field holds it."""
    value = data[key]
    if count == 1:
        if not _is_number(value):
            raise ValidationError(key, "expected a finite number")
        return math.radians(float(value))
    if (not isinstance(value, (list, tuple)) or len(value) != count
            or not all(_is_number(v) for v in value)):
        raise ValidationError(key, f"expected {count} finite numbers")
    values = tuple(map(float, value))
    return Point2(*values) if count == 2 else values


def _echo(value, count: int):
    """A MechanismParams field as its config key writes it: _read's inverse."""
    if count == 1:
        return math.degrees(value)
    return [value.x, value.y] if count == 2 else list(value)


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown key")
    missing = [k for k in REQUIRED_KEYS if k not in data]
    if missing:
        raise ValidationError(missing[0], "required key missing")

    fields = {field: _read(data, key, count)
              for key, field, count in MECHANISM_KEYS}
    try:
        params = MechanismParams(**fields)
    except ValueError as exc:
        raise ValidationError("params", str(exc)) from exc

    config = RunConfig(params=params)
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
