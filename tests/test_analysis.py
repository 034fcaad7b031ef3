import dataclasses
import operator

import pytest

from _support import REFERENCE_CONFIG, reference_params

from spring_platform import (DegenerateQuartic, Point2, RunConfig,
                             UnsupportedFreeLengthPattern, ValidationError,
                             config_from_dict, run_analysis, solve_equilibria)
from spring_platform.config import CASE_ONE, CASE_PATTERNS, CASE_ZERO


def test_reference_zero_case_report():
    report = run_analysis(config_from_dict(dict(REFERENCE_CONFIG)))
    assert report.contact == "assumed"
    assert report.config.case == CASE_ZERO
    assert report.counts["total"] == 4
    assert report.counts["accepted"] == 4
    assert report.counts["real"] == 2
    assert abs(report.config.params.point_e.x - 16.814870) < 1e-5


def test_reference_one_nonzero_report():
    report = run_analysis(config_from_dict(
        dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])))
    assert report.config.case == CASE_ONE
    assert report.counts["total"] == 48
    assert report.counts["rejected"] >= 12
    assert report.counts["real"] == 2
    assert report.counts["real_candidates"] == 8
    assert report.margin is not None
    assert report.margin["ratio"] > 100


def test_solve_error_passes_through():
    # a pin at the top-frame origin leaves the one-nonzero eliminants
    # without their structural degree: run_analysis raises the solve's own
    # DegenerateQuartic, not a wrapper of it
    params = dataclasses.replace(reference_params(l01=1.0),
                                 p_in_top=Point2(0.0, 0.0))
    with pytest.raises(DegenerateQuartic, match="pin is at the top-frame "
                       "origin") as err:
        run_analysis(RunConfig(params=params))
    assert type(err.value) is DegenerateQuartic


def test_counts_consistent():
    report = run_analysis(config_from_dict(
        dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])))
    c = report.counts
    assert c["total"] == c["accepted"] + c["rejected"]
    assert c["real"] <= c["real_candidates"]
    flagged_real = sum(1 for s in report.solutions if s.is_real)
    assert flagged_real == c["real_candidates"]


def test_parallel_base_and_surface():
    # point E, the intersection of the base axis and the surface, is
    # computed when the params are built; a parallel pair has none, so the
    # config is invalid
    with pytest.raises(ValidationError) as err:
        config_from_dict(dict(REFERENCE_CONFIG, phi1_deg=150.0))
    assert err.value.field == "params"
    assert "parallel" in err.value.reason


def test_timing_recorded():
    report = run_analysis(config_from_dict(dict(REFERENCE_CONFIG)))
    assert report.timing_s > 0


# the free-length rule, one row per pattern: the case config_from_dict
# resolves, the case of run_analysis on a RunConfig built directly, and the
# row count of the solve, or UnsupportedFreeLengthPattern for a pattern
# that fits no case (RunConfig raises it too, whether built directly or
# from a file). Its message states the patterns of CASE_PATTERNS, the rule
# free_length_case tests
NO_CASE = (UnsupportedFreeLengthPattern,) * 3
FREE_LENGTH_RULE = {
    "all zero": ((0.0, 0.0, 0.0), (CASE_ZERO, CASE_ZERO, 4)),
    "only L01": ((1.0, 0.0, 0.0), (CASE_ONE, CASE_ONE, 48)),
    "only L02": ((0.0, 1.0, 0.0), NO_CASE),
    "only L03": ((0.0, 0.0, 1.0), NO_CASE),
    "two nonzero": ((1.0, 1.0, 0.0), NO_CASE),
}


def _outcome(call, read):
    try:
        return read(call())
    except UnsupportedFreeLengthPattern as exc:
        assert all(words in str(exc) for words in CASE_PATTERNS.values())
        return type(exc)


@pytest.mark.parametrize("free_lengths, expected",
                         FREE_LENGTH_RULE.values(), ids=FREE_LENGTH_RULE)
def test_free_length_rule(free_lengths, expected):
    params = dataclasses.replace(reference_params(), free_lengths=free_lengths)
    data = dict(REFERENCE_CONFIG, L0=list(free_lengths))
    case = operator.attrgetter("case")
    assert (
        _outcome(lambda: config_from_dict(data), case),
        _outcome(lambda: run_analysis(RunConfig(params=params)),
                 operator.attrgetter("config.case")),
        _outcome(lambda: solve_equilibria(params), len),
    ) == expected
