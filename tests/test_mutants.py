"""Mutant table: each wiring point of the mission, broken on purpose, must
move a pinned digest (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 1978).

A mutant replaces one name that `irribot.mission` looks up at call time and
runs, in-process, the cheapest pinned case that notices it: criterion 8's
canonical run or a case of `tests/test_digests.py`. A mutant that moves no
digest shows a path the pinned outputs do not guard; unless a case is added
for it, it is listed in EQUIVALENT with the reason no run can notice it.
"""

import dataclasses
import math

import pytest

from irribot import mission as mission_module
from irribot.detect import ASPECT_BANDS, CIRCULAR, RECTANGULAR
from irribot.fieldsim import _RATIO_RANGES
from test_acceptance import GOLDEN_DIGESTS
from test_digests import CASES, DIGESTS, OUTPUT_FILES, run_digests

_plan = mission_module.plan_pot_service
_simulate = mission_module.simulate_detection
_detect = mission_module.enhanced_detection
_enter_sensing = mission_module._enter_sensing


def _every_box_matches(dets, cal, geom, *, match_gate_mm):
    return _plan(dets, cal, geom, match_gate_mm=math.inf)


def _no_spurious_box(*args, **kwargs):
    offset, reachable, _ = _plan(*args, **kwargs)
    return offset, reachable, 0


def _every_match_reachable(*args, **kwargs):
    offset, _, spurious = _plan(*args, **kwargs)
    return offset, True, spurious


def _no_spurious_box_injected(pot, tuning, rng, cal):
    return _simulate(pot, dataclasses.replace(tuning, fp_rate=0.0), rng, cal)


def _sense_without_retry(m, *, retried=False):
    if retried:
        mission_module._enter_advancing(m, cause=mission_module.CAUSE_UNDETECTED)
    else:
        _enter_sensing(m)


def _position_without_leveling(m):
    mission_module._transition(m, mission_module.POSITIONING, m.cfg.timing.arm_move)


def _detect_without_nms(raw, *, conf_threshold, iou_threshold):
    return _detect(raw, conf_threshold=conf_threshold, iou_threshold=1.0)


_, _finish_dispensing, _after_dispensing = mission_module._PHASES[mission_module.DISPENSING]
# the phase table with a Dispensing row that draws on no subsystem of its own
_PHASES_PUMP_DROPPED = {
    **mission_module._PHASES,
    mission_module.DISPENSING: ((), _finish_dispensing, _after_dispensing),
}


# name: (attribute of irribot.mission, its replacement, the pinned case)
MUTANTS = {
    "detection filter as identity": (
        "enhanced_detection", lambda raw, *args, **kwargs: raw, "conf_gate"),
    "match gate ignored": ("plan_pot_service", _every_box_matches, "canonical"),
    "no-match count forced to 0": ("plan_pot_service", _no_spurious_box, "canonical"),
    "Dispensing draws no pump current": ("_PHASES", _PHASES_PUMP_DROPPED, "canonical"),
    "Unreachable pot served anyway": (
        "plan_pot_service", _every_match_reachable, "unreachable"),
    "spurious box never injected": (
        "simulate_detection", _no_spurious_box_injected, "unshielded_hilly"),
    "retry never taken": ("_enter_sensing", _sense_without_retry, "unshielded_hilly"),
    "Leveling skipped above the band": (
        "_enter_leveling", _position_without_leveling, "unshielded_hilly"),
    "NMS off": ("enhanced_detection", _detect_without_nms, "nms"),
}

# name: why no run can notice the mutant
EQUIVALENT = {
    "geometry stage off": (
        "the simulated detector draws every aspect ratio from fieldsim._RATIO_RANGES, "
        "which lies strictly inside detect.ASPECT_BANDS, and no config sets either "
        "table, so the stage never drops a box"),
}


def pinned_case(case):
    """(config YAML or None, run arguments, files digested, pinned digests)."""
    if case == "canonical":
        return (None, ["--env", "all", "--trials", "10", "--seed", "42"],
                ("results.json", "trials.csv"), GOLDEN_DIGESTS)
    yaml_text, args = CASES[case]
    return yaml_text, [*args, "--trace"], OUTPUT_FILES, DIGESTS[case]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_moves_a_pinned_digest(mutant, tmp_path, capsys, monkeypatch):
    name, replacement, case = MUTANTS[mutant]
    monkeypatch.setattr(mission_module, name, replacement)  # raises if unbound
    yaml_text, args, files, pinned = pinned_case(case)
    digests = run_digests(yaml_text, args, tmp_path, capsys, files)
    assert digests.keys() == pinned.keys()
    assert digests != pinned, f"{mutant} leaves every {case} digest unchanged"


def test_geometry_stage_cannot_drop_a_simulated_box():
    # the reason EQUIVALENT gives; a move of either table needs a new look
    assert ASPECT_BANDS == {CIRCULAR: (0.9, 1.1), RECTANGULAR: (1.2, 1.5)}
    assert _RATIO_RANGES == {CIRCULAR: (0.92, 1.08), RECTANGULAR: (1.25, 1.47)}
    for cls, (lo, hi) in _RATIO_RANGES.items():
        band_lo, band_hi = ASPECT_BANDS[cls]
        assert band_lo < lo < hi < band_hi, cls
