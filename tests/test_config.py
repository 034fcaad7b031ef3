import dataclasses
import json
import math

import pytest

from _support import REFERENCE_CONFIG

from spring_platform import (ParseError, RunConfig,
                             UnsupportedFreeLengthPattern, ValidationError,
                             config_from_dict, dump_config, load_config)
from spring_platform.config import CASE_ONE, CASE_ZERO


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_reference_config_resolves_zero_case(tmp_path):
    cfg = load_config(write_config(tmp_path, dict(REFERENCE_CONFIG)))
    assert cfg.case == CASE_ZERO
    assert cfg.params.stiffness == (1.5, 1.85, 1.45)
    assert abs(cfg.params.surface_angle - math.radians(150.0)) < 1e-15
    assert abs(cfg.params.base_angle - math.radians(20.0)) < 1e-15


def test_one_nonzero_resolves(tmp_path):
    data = dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])
    cfg = load_config(write_config(tmp_path, data))
    assert cfg.case == CASE_ONE


def test_unsupported_pattern_rejected(tmp_path):
    data = dict(REFERENCE_CONFIG, L0=[0.0, 0.5, 0.0])
    with pytest.raises(UnsupportedFreeLengthPattern):
        load_config(write_config(tmp_path, data))


def test_explicit_case_mismatch_rejected(tmp_path):
    data = dict(REFERENCE_CONFIG, case="one-nonzero")
    with pytest.raises(ValidationError):
        load_config(write_config(tmp_path, data))


def test_unknown_key_rejected(tmp_path):
    data = dict(REFERENCE_CONFIG, surprise=1)
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.field == "surprise"


def test_missing_key_rejected(tmp_path):
    data = dict(REFERENCE_CONFIG)
    del data["k"]
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.field == "k"


def test_bad_shape_rejected():
    data = dict(REFERENCE_CONFIG, P_M=[1.0])
    with pytest.raises(ValidationError):
        config_from_dict(data)


def test_bad_values_rejected():
    with pytest.raises(ValidationError):
        config_from_dict(dict(REFERENCE_CONFIG, k=[0.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        config_from_dict(dict(REFERENCE_CONFIG, P_A1_in1=[5.5, 0.3]))


def test_parse_error(tmp_path):
    # not JSON, not UTF-8, and a key given twice, at the top level and
    # nested; without its second copy each of the last two loads, and
    # json.loads alone would keep the second value
    one = dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])
    tolerance = dict(one, tolerances={"accept": 1e-6})
    for valid in (one, tolerance):
        assert load_config(write_config(tmp_path, valid)).case == CASE_ONE
    path = tmp_path / "broken.json"
    for text in (b"{not json", json.dumps(REFERENCE_CONFIG).encode()[:-1]
                 + b'\xff}',
                 json.dumps(one).encode()[:-1] + b', "L0": [0, 0, 0]}',
                 json.dumps(tolerance).encode()[:-2] + b', "accept": 1}}'):
        path.write_bytes(text)
        with pytest.raises(ParseError):
            load_config(path)


# every number a config reads, as (key, index in its list or None, the
# config it is set in); json reads NaN, Infinity and -Infinity as floats,
# and an int past the float range overflows float()
NUMBER_KEYS = [(key, index, REFERENCE_CONFIG)
               for key, value in REFERENCE_CONFIG.items()
               for index in (range(len(value)) if isinstance(value, list)
                             else [None])]
NUMBER_KEYS.append(("accept", None, dict(
    REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0], tolerances={"accept": 1e-6})))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "10**400"])
@pytest.mark.parametrize(
    "key, index, config", NUMBER_KEYS,
    ids=[key if index is None else f"{key}[{index}]"
         for key, index, _ in NUMBER_KEYS])
def test_non_finite_numbers_rejected(tmp_path, key, index, config, value):
    data = json.loads(json.dumps(config))
    holder = data["tolerances"] if key == "accept" else data
    if index is None:
        holder[key] = value
    else:
        holder[key][index] = value
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.field == key


def test_tolerance_override():
    one = dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])
    cfg = config_from_dict(dict(one, tolerances={"accept": 1e-8}))
    assert cfg.accept_tol == 1e-8
    assert config_from_dict(dict(one, tolerances={})).accept_tol is None
    # a value that is not an object is an error, not "no tolerance"
    for tolerances in ({"accept": -1}, {"other": 1}, {"accept": "1e-8"},
                       [], 0, False, None):
        with pytest.raises(ValidationError) as err:
            config_from_dict(dict(one, tolerances=tolerances))
        assert err.value.field in ("tolerances", "accept")
    # only the one-nonzero solver takes a tolerance: the zero case rejects
    # one whether it comes from the file, a replace or the constructor
    with pytest.raises(ValidationError):
        config_from_dict(dict(REFERENCE_CONFIG, tolerances={"accept": 1e-8}))
    zero = config_from_dict(REFERENCE_CONFIG)
    with pytest.raises(ValidationError):
        dataclasses.replace(zero, accept_tol=1e-8)
    with pytest.raises(ValidationError):
        RunConfig(params=zero.params, accept_tol=1e-8)


def test_formats_validated():
    cfg = config_from_dict(dict(REFERENCE_CONFIG, formats=["csv"]))
    assert cfg.formats == ("csv",)
    with pytest.raises(ValidationError):
        config_from_dict(dict(REFERENCE_CONFIG, formats=["pdf"]))


def test_round_trip(tmp_path):
    original = config_from_dict(dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0],
                                     formats=["json", "csv"],
                                     tolerances={"accept": 2e-7},
                                     output_dir="results"))
    path = tmp_path / "echo.json"
    dump_config(original, path)
    loaded = load_config(path)
    assert loaded == original
