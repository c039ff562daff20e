"""Tests for the sense-plan-act mission state machine and trial reports."""

import dataclasses
import math
import runpy
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot import mission as mission_module
from irribot.cli import main
from irribot.config import ENV_NAMES, default_config, environment_for, gains_for
from irribot.detect import CIRCULAR, BBox, Detection
from irribot.fieldsim import (
    FP_KEEPOUT_PX,
    BatteryModel,
    battery_step,
    realize_layout,
)
from irribot.kinematics import ArmGeometry, CalibrationState
from irribot.leveling import drift_update
from irribot.sums import ltr_sum
from irribot.mission import (
    _PHASES,
    ABORTED,
    ADVANCING,
    CAUSE_DEPLETED,
    DISPENSING,
    LEVELING,
    POSITIONING,
    SENSING,
    LogEntry,
    Mission,
    MissionTimeout,
    _enter_sensing,
    _finish_advancing,
    _finish_dispensing,
    _finish_leveling,
    _finish_positioning,
    _finish_sensing,
    _transition,
    aggregate_trial,
    mean_or_none,
    plan_pot_service,
    run_mission,
    run_trial,
    run_until_depleted,
    segment_ticks,
    step_mission,
    water_savings_pct,
)

CFG = default_config()
GAINS = gains_for(CFG)

CAL = CalibrationState(s=0.1, u0=2000.0, v0=1500.0, delta_x=150.0, delta_y=0.0,
                       z_const=150.0)
GEOM = ArmGeometry(l1=120.0, l2=160.0)


def config_with(**overrides):
    return dataclasses.replace(CFG, **overrides)


def mission(env_name, seed=7):
    return run_mission(environment_for(CFG, env_name), CFG, GAINS, seed)


def trial(env_name, seed, cfg=CFG):
    return run_trial(environment_for(cfg, env_name), cfg, GAINS, seed)


def trace_rows(m):
    """The mission's per-tick trace rows (t, phase, pot, tilt, voltage),
    expanded from its log."""
    battery, dt = m.cfg.battery, m.cfg.timing.mission_tick
    return [(t, entry.phase, entry.pot, entry.tilt, volts) for entry in m.log
            for t, volts in segment_ticks(entry, battery, dt)]


def transitions(m):
    """The mission's (from, to) phase pairs: its logged phases, then the
    phase it is in. A mission whose last phase ran to its end (or aborted)
    has one pair per log entry."""
    phases = [entry.phase for entry in m.log] + [m.phase]
    return list(zip(phases, phases[1:]))


def legal(src, dst):
    """Whether the phase table lets `src` hand over to `dst`; any phase
    aborts on depletion."""
    _, _, successors = _PHASES[src]
    return dst == ABORTED or dst in successors


# ------------------------------------------------------- state machine

def test_phase_transitions_respect_adjacency():
    for name in ("standard_greenhouse", "hilly_terrain", "complex_lighting"):
        for src, dst in transitions(mission(name)):
            assert legal(src, dst), f"{src} -> {dst} in {name}"


def test_illegal_hand_over_is_a_program_defect(monkeypatch, tmp_path):
    own, _, successors = _PHASES[DISPENSING]
    monkeypatch.setitem(_PHASES, DISPENSING, (own, _enter_sensing, successors))
    env = environment_for(CFG, "standard_greenhouse")
    rng = np.random.default_rng(42)
    m = Mission(env, realize_layout(env.layout, rng), CFG, GAINS, rng)
    with pytest.raises(RuntimeError, match="^illegal phase transition Dispensing -> Sensing$"):
        while True:
            step_mission(m, 10**6)
    # no config can cause it, so the CLI does not report it as one (exit 4):
    # it propagates, and the interpreter exits 1 with a traceback
    with pytest.raises(RuntimeError, match="Dispensing -> Sensing"):
        main(["run", "--env", "standard_greenhouse", "--trials", "1",
              "--out-dir", str(tmp_path)])


def test_mission_finishes_done_on_full_battery():
    m = mission("standard_greenhouse")
    assert m.phase != ABORTED and m.pot_index == len(m.records)
    report = aggregate_trial(m, 0, 7)
    assert not report.aborted and report.abort_cause is None
    assert all(r.serviced or r.cause for r in m.records)


def test_sloped_start_levels_before_first_arm_move():
    m = mission("hilly_terrain")
    pairs = transitions(m)
    assert pairs[0] == (SENSING, LEVELING)
    phases = [dst for _, dst in pairs]
    assert phases.index(LEVELING) < phases.index(POSITIONING)


def test_platform_is_level_whenever_the_arm_moves():
    # trace rows are (t, phase, pot, tilt, voltage); drift bias can leave a
    # few tenths of residual true tilt after a measured-zero episode
    m = mission("hilly_terrain")
    tilts = [row[3] for row in trace_rows(m) if row[1] == POSITIONING]
    assert tilts and max(abs(t) for t in tilts) < 0.75


def test_flat_environments_never_enter_leveling():
    for name in ("standard_greenhouse", "complex_lighting"):
        report, m = trial(name, 11)
        phases = {dst for _, dst in transitions(m)}
        assert LEVELING not in phases
        assert report.leveling_mean_s is None
        assert report.sse_mean_deg is None


def test_sloped_environment_reports_leveling_columns():
    report, _ = trial("hilly_terrain", 11)
    assert 1.0 < report.leveling_mean_s < 3.0
    assert 0.0 <= report.sse_mean_deg <= 0.4


def test_depleted_battery_aborts_with_cause():
    tiny = BatteryModel(capacity_mah=3.0)
    report, m = trial("standard_greenhouse", 5, config_with(battery=tiny))
    assert report.aborted
    assert report.abort_cause == CAUSE_DEPLETED
    assert m.phase == ABORTED
    assert transitions(m)[-1][1] == ABORTED
    assert report.serviced < report.pots


def test_step_mission_rejects_terminal_state_and_bad_dt():
    env = environment_for(CFG, "standard_greenhouse")
    tiny = config_with(battery=BatteryModel(capacity_mah=3.0))
    _, aborted = trial("standard_greenhouse", 5, tiny)
    assert aborted.phase == ABORTED
    with pytest.raises(ValueError):
        step_mission(aborted, 10)
    rng = np.random.default_rng(0)
    fresh = Mission(env, realize_layout(env.layout, rng), CFG, GAINS, rng)
    with pytest.raises(ValueError):
        step_mission(fresh, 0)


def test_filter_window_reaches_leveling_episodes():
    # an unfiltered tilt signal settles differently from the default 5-tap one
    raw = config_with(leveling=dataclasses.replace(CFG.leveling, filter_window=1))
    default, _ = trial("hilly_terrain", 11)
    unfiltered, _ = trial("hilly_terrain", 11, raw)
    assert (unfiltered.leveling_mean_s, unfiltered.sse_mean_deg) != (
        default.leveling_mean_s, default.sse_mean_deg)


def test_reset_inside_an_episode_carries_into_the_next_episode():
    # unshielded drift at 2 deg/s with a 1 deg threshold resets every half
    # second, so every episode resets before it settles
    cfg = config_with(leveling=dataclasses.replace(
        CFG.leveling, drift_rate=2.0, shielded=False, reset_threshold=1.0))
    episodes = []  # (entry bias, summary)
    real_episode = mission_module.run_leveling_episode

    def recording_episode(*args, **kwargs):
        summary = real_episode(*args, **kwargs)
        episodes.append((kwargs["bias"], summary))
        return summary

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission_module, "run_leveling_episode", recording_episode)
        m = run_mission(environment_for(cfg, "hilly_terrain"), cfg, GAINS, 42)
    assert m.phase != ABORTED and m.pot_index == len(m.records) and len(episodes) >= 10
    # each episode's run of Leveling ticks, as (first, end) row indices
    phases = [row[1] for row in trace_rows(m)]
    runs = [i for i, p in enumerate(phases) if p == LEVELING and phases[i - 1] != LEVELING]
    runs = [(i, next(j for j in range(i, len(phases)) if phases[j] != LEVELING))
            for i in runs]
    assert len(runs) == len(episodes)
    dt, tick = cfg.timing.mission_tick, cfg.leveling.episode_tick
    for (_, summary), (first, end), (entry, _), (nxt, _) in zip(
            episodes, runs, episodes[1:], runs[1:]):
        settle = summary.settle_time
        settle = cfg.leveling.episode_window if settle is None else settle
        reset = max(r for r in summary.resets if r * tick <= settle)
        # the bias restarts from zero on the mission tick the last charged
        # reset falls in and grows on every mission tick up to the next episode
        since = (end - first) - int(reset * tick / dt + 1e-9) + (nxt - end)
        # each phase adds its ticks' drift in closed form, so the bias is the
        # exact drift over `since` ticks up to rounding; one tick more or less
        # would move it by 1/since, far outside the tolerance
        rate = Fraction(cfg.leveling.effective_rate) * Fraction(dt)
        assert entry == pytest.approx(float(rate * since), rel=1e-12, abs=0.0)
        # so it never exceeds the drift since the previous episode began
        assert entry <= float(rate * (nxt - first)) * (1 + 1e-12)


def test_level_band_reaches_the_settle_time():
    env = environment_for(CFG, "hilly_terrain")

    def leveling_times(band, slope=env.slope):
        cfg = config_with(leveling=dataclasses.replace(CFG.leveling, level_band=band))
        _, m = run_trial(dataclasses.replace(env, slope=slope), cfg, GAINS, 11)
        return [r.leveling_time for r in m.records if r.leveling_time is not None]

    # a wider band is entered sooner
    assert np.mean(leveling_times(1.0)) < np.mean(leveling_times(0.5))
    # a tilt just outside a narrow band settles in about half a second on
    # every pot, never charged the whole episode window
    times = leveling_times(0.3, slope=0.45)
    assert times and max(times) < 1.0


def test_battery_voltage_monotone_over_mission():
    volts = [row[4] for row in trace_rows(mission("standard_greenhouse"))]
    assert all(b <= a + 1e-12 for a, b in zip(volts, volts[1:]))


def test_depleting_phase_segment_expands_to_the_ticks_it_ran():
    cfg = config_with(battery=BatteryModel(capacity_mah=3.0))
    with counted("battery_step") as walks:
        m = run_mission(environment_for(cfg, "standard_greenhouse"), cfg, GAINS, 5)
    assert m.phase == ABORTED and m.ticks < m.phase_end  # cut short by the battery
    _, (charge, depleted, run) = walks[-1]
    entry = m.log[-1]
    ticks = list(segment_ticks(entry, cfg.battery, cfg.timing.mission_tick))
    assert depleted and entry.ticks == run == len(ticks)
    assert ticks[-1] == (m.ticks * cfg.timing.mission_tick, cfg.battery.voltage(charge))
    cutoff = cfg.battery.voltage_cutoff
    assert [v < cutoff for _, v in ticks] == [False] * (run - 1) + [True]


# ------------------------------------------------------- reports

def test_report_matches_record_recomputation():
    report, m = trial("complex_lighting", 21)
    records = m.records
    serviced = [r for r in records if r.serviced]
    assert report.serviced == len(serviced)
    assert report.accuracy_pct == pytest.approx(
        100.0 * sum(r.detected for r in records) / len(records))
    assert report.fp_pct == pytest.approx(
        100.0 * m.fp_count / m.det_count)
    total_disp = sum(r.dispensed for r in serviced)
    total_del = sum(r.delivered for r in serviced)
    assert report.efficiency_pct == pytest.approx(100.0 * total_del / total_disp)
    assert report.mean_volume_ml == pytest.approx(total_disp / len(serviced))
    assert report.mean_positioning_error_mm == pytest.approx(
        sum(r.positioning_error for r in serviced) / len(serviced))


def test_savings_follow_efficiency_identity():
    report, _ = trial("standard_greenhouse", 3)
    eff = report.efficiency_pct / 100.0
    assert report.water_savings_pct == pytest.approx(100.0 * (1.0 - 0.6 / eff))
    assert 30.0 <= report.water_savings_pct <= 50.0


def test_same_seed_reproduces_identical_report():
    a, _ = trial("hilly_terrain", 19)
    b, _ = trial("hilly_terrain", 19)
    assert a == b


def test_different_seeds_differ_somewhere():
    a, _ = trial("complex_lighting", 19)
    b, _ = trial("complex_lighting", 20)
    assert a != b


def test_delivered_never_exceeds_dispensed():
    for seed in (1, 2, 3):
        _, m = trial("hilly_terrain", seed)
        for r in m.records:
            assert r.delivered <= r.dispensed + 1e-12


def test_dispensed_volume_includes_overshoot_exactly():
    report, _ = trial("standard_greenhouse", 9)
    assert report.mean_volume_ml == pytest.approx(105.0)


def test_water_savings_helper_examples():
    assert water_savings_pct(0.95, 0.6) == pytest.approx(36.842105263157894)
    assert water_savings_pct(0.6, 0.6) == 0.0
    with pytest.raises(ValueError):
        water_savings_pct(0.0, 0.6)


def test_float_sums_add_left_to_right():
    # compensated summation (Python 3.12's sum()) would give 1.0
    assert ltr_sum([1e16, 1.0, -1e16]) == 0.0
    assert mean_or_none([1e16, 1.0, -1e16]) == 0.0
    assert math.copysign(1.0, ltr_sum([-0.0])) == 1.0  # 0 + -0.0, as sum() adds it
    assert ltr_sum([]) == 0


# ------------------------------------------------------- service planning

def center_detection(conf=0.9, cx=2000.0, cy=1500.0, w=100.0, h=100.0):
    return Detection(
        bbox=BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
        cls=CIRCULAR, conf=conf,
    )


def test_plan_centered_detection_matches_within_reach():
    # the box sits on the pot in service: the arm target is (150, 0, 150) mm,
    # dead ahead of the base
    plan = plan_pot_service([center_detection()], CAL, GEOM, match_gate_mm=100.0)
    assert plan == ((0.0, 0.0), True, 0)


def test_plan_detection_beyond_reach_is_skipped_with_cause():
    # 1000 px right of center puts the target at x = 250 mm; with the fixed
    # working height that radial exceeds l1 + l2, though a 150 mm gate
    # matches the box to the pot
    det = center_detection(cx=3000.0)
    offset, reachable, spurious = plan_pot_service([det], CAL, GEOM, match_gate_mm=150.0)
    assert offset == pytest.approx((100.0, 0.0)) and spurious == 0
    assert not reachable  # Positioning skips such a pot as Unreachable


def test_mission_skips_unreachable_pots_with_cause():
    # links too short for any target at the working height: each pot found
    # is skipped with its cause
    cfg = config_with(arm=ArmGeometry(l1=10.0, l2=10.0))
    env = environment_for(cfg, "standard_greenhouse")
    report, m = run_trial(env, cfg, GAINS, 13)
    assert report.serviced == 0
    assert report.accuracy_pct > 0
    assert all(r.cause == "Unreachable" for r in m.records if r.detected)


def test_plan_matches_by_station_gate():
    near = center_detection(cy=1500.0 + 500.0)  # 50 mm off, inside the gate
    far = center_detection(cx=2000.0 + 1300.0)  # 130 mm off, beyond the gate
    for dets in ([near, far], [far, near]):
        offset, _, spurious = plan_pot_service(dets, CAL, GEOM, match_gate_mm=100.0)
        assert offset == pytest.approx((0.0, 50.0)) and spurious == 1
    # the first box within the gate is the pot's; a second is not spurious
    offset, _, spurious = plan_pot_service([near, center_detection()], CAL, GEOM,
                                           match_gate_mm=100.0)
    assert offset == pytest.approx((0.0, 50.0)) and spurious == 0
    assert plan_pot_service([], CAL, GEOM, match_gate_mm=100.0) == (None, False, 0)


def test_spurious_box_at_the_keepout_is_spurious_at_the_defaults():
    # a spurious box is never matched only while match_gate < FP_KEEPOUT_PX * s
    cal, gate = CFG.calibration, CFG.scoring.match_gate
    assert gate < FP_KEEPOUT_PX * cal.s
    for k in range(8):
        angle = k * math.pi / 4
        box = center_detection(cx=cal.u0 + FP_KEEPOUT_PX * math.cos(angle),
                               cy=cal.v0 + FP_KEEPOUT_PX * math.sin(angle))
        assert plan_pot_service([box], cal, CFG.arm, match_gate_mm=gate) == (None, False, 1)


def test_mission_retry_consumes_one_extra_sensing_pass():
    # a blind detector forces retry-then-skip on every pot
    cfg_env = environment_for(CFG, "standard_greenhouse")
    env = dataclasses.replace(
        cfg_env,
        tuning=dataclasses.replace(cfg_env.tuning, accuracy=0.0),
    )
    report, m = run_trial(env, CFG, GAINS, 13)
    assert report.serviced == 0
    assert report.accuracy_pct == 0.0
    assert m.frames == 2 * report.pots  # one retry per pot, then skip
    assert all(r.cause == "Undetected" for r in m.records)


@pytest.mark.parametrize("capacity", [2400.0, 60.0])
def test_retry_count_reads_from_the_log(capacity):
    # a sensed pot missed on the first attempt is sensed once more, so the
    # log's Sensing entries per pot give its retry without a flag
    cfg = config_with(battery=BatteryModel(capacity_mah=capacity))
    pots = missed = aborted = 0
    for env_name in ENV_NAMES:
        for seed in range(42, 52):
            m = run_mission(environment_for(cfg, env_name), cfg, GAINS, seed)
            sensed = {}
            for entry in m.log:
                if entry.phase == SENSING:
                    sensed[entry.pot] = sensed.get(entry.pot, 0) + 1
            if m.phase == ABORTED:
                aborted += 1
                sensed.pop(m.pot_index % len(m.records), None)
            for i, count in sensed.items():
                assert count == (1 if m.records[i].detected else 2), (env_name, seed, i)
            pots += len(sensed)
            missed += sum(1 for i in sensed if not m.records[i].detected)
    assert pots and missed  # both sides of the relation are exercised
    # the stock pack finishes every lap; 60 mAh aborts every one part-way
    assert aborted == (0 if capacity == 2400.0 else 30)


# ------------------------------------------------------- endurance

def test_endurance_runtime_tracks_battery_capacity():
    small = BatteryModel(capacity_mah=240.0)  # a tenth of the stock pack
    cfg = config_with(battery=small)
    m = run_mission(environment_for(cfg, "standard_greenhouse"), cfg, GAINS, 42)
    minutes = run_until_depleted(m)
    assert 2.0 < minutes < 4.0  # stock pack lasts ~30 min in this environment
    assert m.pot_index >= 15


def test_endurance_raises_when_battery_cannot_deplete(monkeypatch):
    huge = BatteryModel(capacity_mah=1e7)
    cfg = config_with(battery=huge)
    monkeypatch.setattr(mission_module, "GUARD_HOURS", 0.02)
    with pytest.raises(MissionTimeout, match="guard of 0.02 h"):
        run_until_depleted(
            run_mission(environment_for(cfg, "standard_greenhouse"), cfg, GAINS, 42))


# The script overrides a drive speed on the resolved environment; its
# bisections land on the stock draws and the complex-lighting speed.
CALIBRATE_BATTERY_STDOUT = """\
drive_ma      ->  10824.0   (standard runtime 29.99 min)
leveling_ma   ->   3416.0   (hilly runtime 20.01 min)
complex speed ->    241.0   (complex runtime 26.01 min)

verification at nearby seeds:
  standard_greenhouse     29.99   29.98   30.02 min
  hilly_terrain           20.01   20.05   20.05 min
  complex_lighting        26.01   25.65   26.60 min

frozen battery model:
  BatteryModel(capacity_mah=2400.0, voltage_full=12.6, voltage_cutoff=11.1, drive_ma=10824, leveling_ma=3416, arm_ma=1100.0, pump_ma=1400.0, compute_ma=900.0)
  complex drive speed: 241 mm/s
"""


def test_calibrate_battery_script_output_is_pinned(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_battery.py"
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == CALIBRATE_BATTERY_STDOUT


# ------------------------------------------------------- per-tick reference

def reference_subsystems(phase, env):
    """The battery subsystems a phase draws on: the reference for the phase
    table's own subsystems and the slope's leveling hold."""
    active = {"compute"}
    if phase == LEVELING:
        active.add("leveling")
    elif phase == POSITIONING:
        active.add("arm")
    elif phase == DISPENSING:
        active.add("pump")
    elif phase == ADVANCING:
        active.add("drive")
    if env.slope > 0:
        active.add("leveling")  # holding the platform against the slope
    return active


# the phase finishers by phase, read by the reference instead of the table
REFERENCE_FINISHERS = {
    SENSING: _finish_sensing,
    LEVELING: _finish_leveling,
    POSITIONING: _finish_positioning,
    DISPENSING: _finish_dispensing,
    ADVANCING: _finish_advancing,
}


def reference_step(m, dt):
    """Advance the mission by one tick: the reference for step_mission. It
    keeps its own float countdown of the phase's seconds, `ref_left`, so the
    tick a phase ends on (and the tick the battery depletes on) is found one
    tick at a time. The first tick of a phase opens an entry of the
    reference's own `phase_log`, which every tick of the phase counts in; the
    bias is drift_update over the phase's ticks so far from its start bias."""
    model = m.cfg.battery
    draw = model.current_ma(reference_subsystems(m.phase, m.env))
    if m.ticks == m.ref_start:  # each transition, a Sensing retry too, restarts it
        m.ref_bias = m.bias
        m.phase_log.append(LogEntry(m.ticks, m.phase, m.pot_index % len(m.layout.pots),
                                    m.tilt, m.charge, draw, 0))
    m.charge, depleted, _ = battery_step(model, m.charge, draw, dt)
    m.ref_left = m.ref_left - dt
    m.ticks += 1
    m.phase_log[-1] = m.phase_log[-1]._replace(ticks=m.ticks - m.ref_start)
    m.bias = drift_update(m.cfg.leveling, m.ref_bias, dt, m.ticks - m.ref_start)
    m.tick_rows.append((m.ticks * dt, m.phase, m.pot_index % len(m.layout.pots), m.tilt,
                        model.voltage(m.charge)))
    if depleted:
        m.phase = ABORTED
    elif m.ref_left <= 1e-9:
        REFERENCE_FINISHERS[m.phase](m)


def reference_mission(env, cfg, seed, *, loop=False, max_ticks=10**7):
    """Tick-at-a-time mission; returns (mission, ticks) when it aborts, when
    it leaves its last pot (unless it loops) or when max_ticks have run. Its
    `tick_rows` hold one trace row per tick and its `phase_log` one entry per
    phase, in the shape of `Mission.log`."""
    real_transition = mission_module._transition

    def counting_down(m, phase, seconds):
        real_transition(m, phase, seconds)
        m.ref_start, m.ref_left = m.ticks, seconds

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission_module, "_transition", counting_down)
        m = Mission(env, realize_layout(env.layout, rng), cfg, GAINS, rng)
        m.tick_rows = []
        m.phase_log = []
        while (m.ticks < max_ticks and m.phase != ABORTED
               and (loop or m.pot_index < len(m.layout.pots))):
            reference_step(m, cfg.timing.mission_tick)
    return m, m.ticks


# everything a mission mutates as it runs
MISSION_STATE = (
    "phase", "phase_end", "pot_index", "retried", "charge", "bias", "reset_tick", "tilt",
    "records", "frames", "det_count", "fp_count", "matched_frames", "ticks",
)


def assert_same_mission(m, ref):
    """ref is a `reference_mission`; m's log matches ref's phase log entry
    for entry, and the trace rows it expands to match ref's tick rows."""
    for name in MISSION_STATE:
        assert getattr(m, name) == getattr(ref, name), name
    assert m.log == ref.phase_log
    assert trace_rows(m) == ref.tick_rows


@contextmanager
def counted(name="step_mission"):
    """Record (first argument, result) of each call a mission makes to
    irribot.mission's `name`: (mission, ticks) for step_mission."""
    calls = []
    real = getattr(mission_module, name)

    def counting(first, *args):
        result = real(first, *args)
        calls.append((first, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission_module, name, counting)
        yield calls


def varied_config(env_name, pot_count, tick, capacity, drift_rate, shielded):
    cfg = config_with(
        pot_count=pot_count,
        leveling=dataclasses.replace(CFG.leveling, drift_rate=drift_rate, shielded=shielded),
        timing=dataclasses.replace(CFG.timing, mission_tick=tick),
        battery=dataclasses.replace(CFG.battery, capacity_mah=capacity),
    )
    return environment_for(cfg, env_name), cfg


@settings(max_examples=30, deadline=None)
@given(
    env_name=st.sampled_from(["standard_greenhouse", "hilly_terrain", "complex_lighting"]),
    seed=st.integers(0, 10_000),
    pot_count=st.integers(1, 5),
    tick=st.floats(0.01, 0.2),
    # small packs abort part-way; the stock pack finishes the layout
    capacity=st.one_of(st.just(2400.0), st.floats(0.5, 80.0)),
    drift_rate=st.floats(0.0, 2.0),
    shielded=st.booleans(),
    loop=st.booleans(),
)
def test_phase_core_matches_tick_reference(env_name, seed, pot_count, tick, capacity,
                                           drift_rate, shielded, loop):
    if loop:
        capacity = min(capacity, 80.0)  # an endurance loop must deplete
    env, cfg = varied_config(env_name, pot_count, tick, capacity, drift_rate, shielded)
    ref, ref_ticks = reference_mission(env, cfg, seed, loop=loop)
    assert ref.phase == ABORTED or not loop and ref.pot_index == len(ref.records)
    with counted() as calls, counted("battery_step") as walks:
        m = run_mission(env, cfg, GAINS, seed)
        if loop:  # the endurance run continues the finished mission
            run_until_depleted(m)
    assert_same_mission(m, ref)
    assert sum(ticks for _, ticks in calls) == ref_ticks == len(trace_rows(m))
    # one battery walk per phase: no phase replays its ticks
    assert len(walks) == len(calls)
    for src, dst in transitions(m):
        assert legal(src, dst), (src, dst)


@pytest.mark.parametrize("max_hours,tick", [(0.01, 0.05), (0.0123, 0.03), (0.002, 0.07)])
def test_time_guard_fires_after_exactly_the_budgeted_ticks(max_hours, tick, monkeypatch):
    env, cfg = varied_config("hilly_terrain", 20, tick, 1e7, 0.0015, True)
    budget = int(max_hours * 3600.0 / tick)
    monkeypatch.setattr(mission_module, "GUARD_HOURS", max_hours)
    with counted() as calls, pytest.raises(MissionTimeout):
        run_mission(env, cfg, GAINS, 3)
    ref, ticks = reference_mission(env, cfg, 3, max_ticks=budget)
    assert ticks == budget and ref.phase != ABORTED and ref.pot_index < len(ref.records)
    m = calls[-1][0]
    assert sum(n for _, n in calls) == budget == len(trace_rows(m))
    assert_same_mission(m, ref)


def guard_hours(ticks, tick):
    """The smallest GUARD_HOURS whose guard is `ticks` ticks of `tick` s."""
    hours = ticks * tick / 3600.0
    while int(hours * 3600.0 / tick) < ticks:
        hours = math.nextafter(hours, math.inf)
    return hours


# the pack finishes the lap or aborts part-way through it; the endurance guard
# ends with the lap or that many ticks before it
@pytest.mark.parametrize("capacity,phase", [(2400.0, SENSING), (20.0, ABORTED)])
@pytest.mark.parametrize("short", [0, 1, 40])
def test_continuation_is_under_the_guard_of_a_fresh_loop(capacity, phase, short, monkeypatch):
    env, cfg = varied_config("hilly_terrain", 3, 0.05, capacity, 0.0015, True)
    m = run_mission(env, cfg, GAINS, 9)
    assert m.phase == phase
    budget = m.ticks - short
    monkeypatch.setattr(mission_module, "GUARD_HOURS", guard_hours(budget, 0.05))
    ref, _ = reference_mission(env, cfg, 9, loop=True, max_ticks=budget)
    if ref.phase == ABORTED:
        run_until_depleted(m)
    else:
        with pytest.raises(MissionTimeout, match=rf"\({budget} ticks\)$"):
            run_until_depleted(m)
    if short == 0:  # the reference ran every tick the mission did
        assert_same_mission(m, ref)


# ------------------------------------------------------- integer clock

def assert_log_accounts_for_every_tick(m):
    """Each log entry starts on the tick the one before it ended, the first
    on tick 0, and the entries' ticks sum to the mission's, in integers."""
    starts = [entry.start for entry in m.log]
    ends = [entry.start + entry.ticks for entry in m.log]
    assert all(type(start) is int for start in starts)
    assert starts == [0, *ends[:-1]]
    assert sum(entry.ticks for entry in m.log) == ends[-1] == m.ticks


@pytest.mark.parametrize("env_name", ENV_NAMES)
def test_integer_clock_accounts_for_every_tick(env_name):
    env, dt = environment_for(CFG, env_name), CFG.timing.mission_tick
    for i in range(3):  # the trials `irribot run --seed 42 --trials 3` runs
        report, m = run_trial(env, CFG, GAINS, 42 + i, trial=i)
        assert_log_accounts_for_every_tick(m)
        assert report.elapsed_s == m.ticks * dt
        if i == 0:  # the endurance run continues trial 0's mission
            minutes = run_until_depleted(m)
            assert m.phase == ABORTED
            assert_log_accounts_for_every_tick(m)
            assert minutes == m.ticks * dt / 60.0


@pytest.mark.parametrize("arm_move,sense_settle,inference_ms,positioning,sensing", [
    (1.5, 0.5, 32.0, 30, 11),  # 1.5 s is exactly 30 ticks of 0.05 s, not 31
    (0.0, 0.0, 0.0, 1, 1),  # a zero-second phase still takes one tick
])
def test_phase_runs_the_whole_ticks_its_seconds_cover(arm_move, sense_settle, inference_ms,
                                                      positioning, sensing):
    cfg = config_with(timing=dataclasses.replace(
        CFG.timing, arm_move=arm_move, sense_settle=sense_settle))
    env = environment_for(cfg, "standard_greenhouse")
    env = dataclasses.replace(env, tuning=dataclasses.replace(
        env.tuning, inference_time_ms=inference_ms))
    _, m = run_trial(env, cfg, GAINS, 42)
    ticks = {phase: {entry.ticks for entry in m.log if entry.phase == phase}
             for phase in (POSITIONING, SENSING)}
    assert ticks == {POSITIONING: {positioning}, SENSING: {sensing}}
    ref, _ = reference_mission(env, cfg, 42)  # the walked countdown agrees
    assert_same_mission(m, ref)


def tick_phases(m):
    """The phase of each tick the mission ran, from its log."""
    return [entry.phase for entry in m.log for _ in range(entry.ticks)]


@pytest.mark.parametrize("max_ticks", [1, 7, 29])
def test_phase_cut_by_max_ticks_ends_on_the_uncut_tick(max_ticks):
    # on flat ground the drift bias reaches no record, so only the cuts differ
    env = environment_for(CFG, "standard_greenhouse")
    uncut = run_mission(env, CFG, GAINS, 42)
    rng = np.random.default_rng(42)
    m = Mission(env, realize_layout(env.layout, rng), CFG, GAINS, rng)
    while m.pot_index < len(m.records):
        assert step_mission(m, max_ticks) <= max_ticks
    assert len(m.log) > len(uncut.log)  # phases were cut and resumed
    # every phase ends on the uncut tick, and every tick runs the uncut phase
    ends = {entry.start + entry.ticks for entry in m.log}
    assert {entry.start + entry.ticks for entry in uncut.log} <= ends
    assert tick_phases(m) == tick_phases(uncut)
    assert (m.ticks, m.phase, m.records) == (uncut.ticks, uncut.phase, uncut.records)
