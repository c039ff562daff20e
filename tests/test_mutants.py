"""Mutant table: each wiring point of the mission, broken on purpose, must
move a pinned digest (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 1978).

A mutant replaces one name that `irribot.mission` looks up at call time and
runs, in-process, the cheapest pinned case that should notice it: criterion
8's canonical run or a case of `tests/test_digests.py`. A mutant that moves no
digest shows a path the pinned outputs do not guard.
"""

import math

import pytest

from irribot import mission as mission_module
from test_acceptance import GOLDEN_DIGESTS
from test_digests import CASES, DIGESTS, OUTPUT_FILES, run_digests

_plan = mission_module.plan_pot_service


def _every_box_matches(dets, cal, geom, *, match_gate_mm):
    return _plan(dets, cal, geom, match_gate_mm=math.inf)


def _no_spurious_box(*args, **kwargs):
    offset, reachable, _ = _plan(*args, **kwargs)
    return offset, reachable, 0


def _every_match_reachable(*args, **kwargs):
    offset, _, spurious = _plan(*args, **kwargs)
    return offset, True, spurious


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
