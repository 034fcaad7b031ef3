import dataclasses
import math
import operator

import pytest

from _support import REFERENCE_CONFIG, reference_params

from spring_platform import (AnalysisError, MechanismError, NonZeroFreeLength,
                             Point2, RunConfig, UnsupportedFreeLengthPattern,
                             WrongFreeLengthPattern, config_from_dict,
                             run_analysis, solve_one_nonzero_free_length,
                             solve_zero_free_lengths)
from spring_platform import analysis
from spring_platform.config import CASE_ONE, CASE_PATTERNS, CASE_ZERO
from spring_platform.mechanism import MechanismParams


def test_reference_zero_case_report():
    report = run_analysis(config_from_dict(dict(REFERENCE_CONFIG)))
    assert report.contact == "assumed"
    assert report.case == CASE_ZERO
    assert report.counts["total"] == 4
    assert report.counts["accepted"] == 4
    assert report.counts["real"] == 2
    assert report.point_e is not None
    assert abs(report.point_e.x - 16.814870) < 1e-5


def test_reference_one_nonzero_report():
    report = run_analysis(config_from_dict(
        dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])))
    assert report.case == CASE_ONE
    assert report.counts["total"] == 48
    assert report.counts["rejected"] >= 12
    assert report.counts["real"] == 2
    assert report.counts["real_candidates"] == 8
    assert report.margin is not None
    assert report.margin["ratio"] > 100


def _no_contact_params():
    # assemblable free pose held on the origin side of a far surface
    return MechanismParams(
        surface_point=Point2(100.0, 0.0), surface_angle=math.radians(90.0),
        a1_in_base=Point2(2.0, 0.0), a2_in_top=Point2(1.0, 0.0),
        p_in_top=Point2(1.0, 1.0), base_origin=Point2(1.0, 0.5),
        base_angle=0.2, stiffness=(1.0, 1.0, 1.0),
        free_lengths=(1.2, 2.0, 2.2))


def test_no_contact_short_circuits():
    config = RunConfig(params=_no_contact_params())
    report = run_analysis(config)
    assert report.contact == "no_contact"
    assert report.case is None
    assert report.solutions == []
    assert report.counts["total"] == 0
    assert report.free_pose is not None
    # the reported free pose carries the fixed-frame pin position
    assert "p_fixed" in report.free_pose


def test_in_contact_free_pose_dispatches_solver():
    # same assembly with the surface pulled to the near side of the pin
    params = dataclasses.replace(_no_contact_params(),
                                 surface_point=Point2(0.25, 0.0))
    config = RunConfig(params=params)
    from spring_platform.errors import AnalysisError
    with pytest.raises(AnalysisError):
        # contact established, but the free-length pattern fits no solver
        run_analysis(config)


def test_counts_consistent():
    report = run_analysis(config_from_dict(
        dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])))
    c = report.counts
    assert c["total"] == c["accepted"] + c["rejected"]
    assert c["real"] <= c["real_candidates"]
    flagged_real = sum(1 for s in report.solutions if s.is_real)
    assert flagged_real == c["real_candidates"]


def test_timing_recorded():
    report = run_analysis(config_from_dict(dict(REFERENCE_CONFIG)))
    assert report.timing_s > 0


# the free-length rule, one row per pattern: the case config_from_dict
# resolves, the case of run_analysis on a RunConfig built directly (or the
# stage its AnalysisError names; no pattern here assembles a free pose, so
# contact is assumed), and the row count of each solver, or the error each
# raises. Each error's message states the patterns of CASE_PATTERNS it
# refers to, the rule free_length_case tests
NO_CASE = (UnsupportedFreeLengthPattern, "case-dispatch",
           WrongFreeLengthPattern, NonZeroFreeLength)
FREE_LENGTH_RULE = {
    "all zero": ((0.0, 0.0, 0.0),
                 (CASE_ZERO, CASE_ZERO, WrongFreeLengthPattern, 4)),
    "only L01": ((1.0, 0.0, 0.0), (CASE_ONE, CASE_ONE, 48, NonZeroFreeLength)),
    "only L02": ((0.0, 1.0, 0.0), NO_CASE),
    "only L03": ((0.0, 0.0, 1.0), NO_CASE),
    "two nonzero": ((1.0, 1.0, 0.0), NO_CASE),
}


RULE_WORDS = {UnsupportedFreeLengthPattern: tuple(CASE_PATTERNS.values()),
              WrongFreeLengthPattern: (CASE_PATTERNS[CASE_ONE],),
              NonZeroFreeLength: (CASE_PATTERNS[CASE_ZERO],)}


def _outcome(call, read):
    try:
        return read(call())
    except MechanismError as exc:
        error = exc.cause if isinstance(exc, AnalysisError) else exc
        assert all(words in str(error) for words in RULE_WORDS[type(error)])
        return exc.stage if isinstance(exc, AnalysisError) else type(exc)


@pytest.mark.parametrize("free_lengths, expected",
                         FREE_LENGTH_RULE.values(), ids=FREE_LENGTH_RULE)
def test_free_length_rule(free_lengths, expected, monkeypatch):
    # with L02 = L03 = 0 the free pose cannot be assembled and is not tried
    assemble = analysis.free_pose

    def free_pose(params):
        assert params.free_lengths[1:] != (0.0, 0.0), "free pose assembled"
        return assemble(params)

    monkeypatch.setattr(analysis, "free_pose", free_pose)
    params = dataclasses.replace(reference_params(), free_lengths=free_lengths)
    data = dict(REFERENCE_CONFIG, L0=list(free_lengths))
    case = operator.attrgetter("case")
    assert (
        _outcome(lambda: config_from_dict(data), case),
        _outcome(lambda: run_analysis(RunConfig(params=params)), case),
        _outcome(lambda: solve_one_nonzero_free_length(params), len),
        _outcome(lambda: solve_zero_free_lengths(params), len),
    ) == expected
