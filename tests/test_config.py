import json
import math

import pytest

from _support import REFERENCE_CONFIG

from spring_platform import (ParseError, UnsupportedFreeLengthPattern,
                             ValidationError, config_from_dict, load_config)
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
    # the "case" key only asserts the case the free lengths imply
    one = dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])
    assert config_from_dict(dict(one, case="one-nonzero")).case == CASE_ONE
    for case in ("one-nonzero", "zero", None, 1):
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, dict(REFERENCE_CONFIG,
                                                    case=case)))
        assert err.value.field == "case"
    # a pattern with no case is named first, then the key
    with pytest.raises(UnsupportedFreeLengthPattern):
        config_from_dict(dict(REFERENCE_CONFIG, L0=[0.0, 1.0, 0.0],
                              case="zero"))
    with pytest.raises(ValidationError) as err:
        config_from_dict(dict(REFERENCE_CONFIG, case="zero"))
    assert err.value.field == "case"


def test_unknown_key_rejected(tmp_path):
    # the one-nonzero acceptance level is fixed, so "tolerances" is unknown
    for key, value in (("surprise", 1), ("tolerances", {"accept": 1e-6})):
        data = dict(REFERENCE_CONFIG, **{key: value})
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, data))
        assert err.value.field == key


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
    # nested; without its second copy the first loads and the second
    # parses (it fails only as an unknown key), and json.loads alone would
    # keep the second value
    one = dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])
    nested = dict(one, surprise={"accept": 1e-6})
    assert load_config(write_config(tmp_path, one)).case == CASE_ONE
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, nested))
    assert err.value.field == "surprise"
    path = tmp_path / "broken.json"
    for text in (b"{not json", json.dumps(REFERENCE_CONFIG).encode()[:-1]
                 + b'\xff}',
                 json.dumps(one).encode()[:-1] + b', "L0": [0, 0, 0]}',
                 json.dumps(nested).encode()[:-2] + b', "accept": 1}}'):
        path.write_bytes(text)
        with pytest.raises(ParseError):
            load_config(path)
    # valid JSON whose top level is not an object
    for data in ([REFERENCE_CONFIG], "config", 1.0, None):
        with pytest.raises(ParseError, match="top level must be an object"):
            load_config(write_config(tmp_path, data))


# every number a config reads, as (key, index in its list or None); json
# reads NaN, Infinity and -Infinity as floats, and an int past the float
# range overflows float()
NUMBER_KEYS = [(key, index) for key, value in REFERENCE_CONFIG.items()
               for index in (range(len(value)) if isinstance(value, list)
                             else [None])]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "10**400"])
@pytest.mark.parametrize(
    "key, index", NUMBER_KEYS,
    ids=[key if index is None else f"{key}[{index}]"
         for key, index in NUMBER_KEYS])
def test_non_finite_numbers_rejected(tmp_path, key, index, value):
    data = json.loads(json.dumps(REFERENCE_CONFIG))
    if index is None:
        data[key] = value
    else:
        data[key][index] = value
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.field == key


def test_round_trip(tmp_path):
    original = config_from_dict(dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0]))
    path = write_config(tmp_path, original.to_dict(), name="echo.json")
    assert load_config(path) == original
