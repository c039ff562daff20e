"""Tests for the sense-plan-act mission state machine and trial reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot import mission as mission_module
from irribot.config import default_config, environment_for, gains_for, resolve_params
from irribot.detect import CIRCULAR, BBox, Detection
from irribot.fieldsim import (
    BatteryModel,
    battery_step,
    build_environment,
    grid_layout,
    realize_layout,
)
from irribot.kinematics import ArmGeometry, CalibrationState
from irribot.leveling import drift_update
from irribot.mission import (
    _FINISHERS,
    ABORTED,
    ADJACENCY,
    ADVANCING,
    CAUSE_DEPLETED,
    DISPENSING,
    DONE,
    LEVELING,
    POSITIONING,
    SENSING,
    MissionTimeout,
    MissionWorld,
    _active_subsystems,
    _transition,
    plan_pot_service,
    run_mission,
    run_trial,
    run_until_depleted,
    start_mission,
    step_mission,
    water_savings_pct,
)

CFG = default_config()
GAINS = gains_for(CFG)

CAL = CalibrationState(s=0.1, u0=2000.0, v0=1500.0, delta_x=150.0, delta_y=0.0,
                       z_const=150.0)
GEOM = ArmGeometry(l1=120.0, l2=160.0, theta_offset=15.0)


def params_for(env_name, **overrides):
    params = resolve_params(CFG, env_name, GAINS)
    return dataclasses.replace(params, **overrides) if overrides else params


def mission(env_name, seed=7, **overrides):
    env = environment_for(CFG, env_name)
    return run_mission(env, params_for(env_name, **overrides), seed,
                       keep_trace=True)


# ------------------------------------------------------- state machine

def test_phase_transitions_respect_adjacency():
    for name in ("standard_greenhouse", "hilly_terrain", "complex_lighting"):
        _, world = mission(name)
        for src, dst in world.transitions:
            assert dst in ADJACENCY[src], f"{src} -> {dst} in {name}"


def test_mission_finishes_done_on_full_battery():
    state, world = mission("standard_greenhouse")
    assert state.phase == DONE
    assert state.cause is None
    assert all(r.serviced or r.cause for r in world.records)


def test_sloped_start_levels_before_first_arm_move():
    state, world = mission("hilly_terrain")
    assert world.transitions[0] == (SENSING, LEVELING)
    phases = [dst for _, dst in world.transitions]
    assert phases.index(LEVELING) < phases.index(POSITIONING)


def test_platform_is_level_whenever_the_arm_moves():
    # trace rows are (t, phase, pot, tilt, voltage); drift bias can leave a
    # few tenths of residual true tilt after a measured-zero episode
    _, world = mission("hilly_terrain")
    tilts = [row[3] for row in world.trace_rows if row[1] == POSITIONING]
    assert tilts and max(abs(t) for t in tilts) < 0.75


def test_flat_environments_never_enter_leveling():
    for name in ("standard_greenhouse", "complex_lighting"):
        report, world = run_trial(environment_for(CFG, name), params_for(name), 11)
        phases = {dst for _, dst in world.transitions}
        assert LEVELING not in phases
        assert report.leveling_mean_s is None
        assert report.sse_mean_deg is None


def test_sloped_environment_reports_leveling_columns():
    report, _ = run_trial(environment_for(CFG, "hilly_terrain"),
                          params_for("hilly_terrain"), 11)
    assert 1.0 < report.leveling_mean_s < 3.0
    assert 0.0 <= report.sse_mean_deg <= 0.4


def test_depleted_battery_aborts_with_cause():
    tiny = BatteryModel(capacity_mah=3.0)
    report, world = run_trial(environment_for(CFG, "standard_greenhouse"),
                              params_for("standard_greenhouse", battery=tiny), 5)
    assert report.aborted
    assert report.abort_cause == CAUSE_DEPLETED
    assert world.transitions[-1][1] == ABORTED
    assert report.serviced < report.pots


def test_step_mission_rejects_terminal_state_and_bad_dt():
    env = environment_for(CFG, "standard_greenhouse")
    state, world = mission("standard_greenhouse")
    with pytest.raises(ValueError):
        step_mission(state, world, 0.05, 10)
    rng = np.random.default_rng(0)
    layout = realize_layout(env.layout, rng)
    world2 = MissionWorld(env, layout, params_for("standard_greenhouse"), rng)
    fresh = start_mission(world2)
    with pytest.raises(ValueError):
        step_mission(fresh, world2, 0.0, 10)


def test_filter_window_reaches_leveling_episodes():
    # an unfiltered tilt signal settles differently from the default 5-tap one
    raw = dataclasses.replace(
        CFG, leveling=dataclasses.replace(CFG.leveling, filter_window=1))
    env = environment_for(CFG, "hilly_terrain")
    default, _ = run_trial(env, params_for("hilly_terrain"), 11)
    unfiltered, _ = run_trial(env, resolve_params(raw, "hilly_terrain", GAINS), 11)
    assert (unfiltered.leveling_mean_s, unfiltered.sse_mean_deg) != (
        default.leveling_mean_s, default.sse_mean_deg)


def test_level_band_reaches_the_settle_time():
    env = environment_for(CFG, "hilly_terrain")

    def leveling_times(band, slope=env.slope):
        cfg = dataclasses.replace(
            CFG, leveling=dataclasses.replace(CFG.leveling, level_band=band))
        _, world = run_trial(dataclasses.replace(env, slope=slope),
                             resolve_params(cfg, "hilly_terrain", GAINS), 11)
        return [r.leveling_time for r in world.records if r.leveling_time is not None]

    # a wider band is entered sooner
    assert np.mean(leveling_times(1.0)) < np.mean(leveling_times(0.5))
    # a tilt just outside a narrow band settles in about half a second on
    # every pot, never charged the whole episode window
    times = leveling_times(0.3, slope=0.45)
    assert times and max(times) < 1.0


def test_battery_voltage_monotone_over_mission():
    _, world = mission("standard_greenhouse")
    volts = [row[4] for row in world.trace_rows]
    assert all(b <= a + 1e-12 for a, b in zip(volts, volts[1:]))


# ------------------------------------------------------- reports

def test_report_matches_record_recomputation():
    report, world = run_trial(environment_for(CFG, "complex_lighting"),
                              params_for("complex_lighting"), 21)
    records = world.records
    serviced = [r for r in records if r.serviced]
    assert report.serviced == len(serviced)
    assert report.accuracy_pct == pytest.approx(
        100.0 * sum(r.detected for r in records) / len(records))
    assert report.fp_pct == pytest.approx(
        100.0 * world.fp_count / world.det_count)
    total_disp = sum(r.dispensed for r in serviced)
    total_del = sum(r.delivered for r in serviced)
    assert report.efficiency_pct == pytest.approx(100.0 * total_del / total_disp)
    assert report.mean_volume_ml == pytest.approx(total_disp / len(serviced))
    assert report.mean_positioning_error_mm == pytest.approx(
        sum(r.positioning_error for r in serviced) / len(serviced))


def test_savings_follow_efficiency_identity():
    report, _ = run_trial(environment_for(CFG, "standard_greenhouse"),
                          params_for("standard_greenhouse"), 3)
    eff = report.efficiency_pct / 100.0
    assert report.water_savings_pct == pytest.approx(100.0 * (1.0 - 0.6 / eff))
    assert 30.0 <= report.water_savings_pct <= 50.0


def test_same_seed_reproduces_identical_report():
    env = environment_for(CFG, "hilly_terrain")
    a, _ = run_trial(env, params_for("hilly_terrain"), 19)
    b, _ = run_trial(env, params_for("hilly_terrain"), 19)
    assert a == b


def test_different_seeds_differ_somewhere():
    env = environment_for(CFG, "complex_lighting")
    a, _ = run_trial(env, params_for("complex_lighting"), 19)
    b, _ = run_trial(env, params_for("complex_lighting"), 20)
    assert a != b


def test_delivered_never_exceeds_dispensed():
    for seed in (1, 2, 3):
        _, world = run_trial(environment_for(CFG, "hilly_terrain"),
                             params_for("hilly_terrain"), seed)
        for r in world.records:
            assert r.delivered <= r.dispensed + 1e-12


def test_dispensed_volume_includes_overshoot_exactly():
    report, _ = run_trial(environment_for(CFG, "standard_greenhouse"),
                          params_for("standard_greenhouse"), 9)
    assert report.mean_volume_ml == pytest.approx(105.0)


def test_water_savings_helper_examples():
    assert water_savings_pct(0.95, 0.6) == pytest.approx(36.842105263157894)
    assert water_savings_pct(0.6, 0.6) == 0.0
    with pytest.raises(ValueError):
        water_savings_pct(0.0, 0.6)


# ------------------------------------------------------- service planning

def center_detection(conf=0.9, cx=2000.0, cy=1500.0, w=100.0, h=100.0):
    return Detection(
        bbox=BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
        cls=CIRCULAR, conf=conf,
    )


def test_plan_centered_detection_solves_theta1_zero():
    layout = grid_layout(1, 600.0)
    items = plan_pot_service([center_detection()], layout, CAL, GEOM)
    assert len(items) == 1
    item = items[0]
    assert item.joints is not None
    assert item.joints.theta1 == 0.0  # target sits dead ahead on the x axis
    assert item.target.x_a == pytest.approx(150.0)
    assert item.target.y_a == pytest.approx(0.0)
    assert item.matched_pot == 0


def test_plan_detection_beyond_reach_is_skipped_with_cause():
    layout = grid_layout(1, 600.0)
    # 1500 px right of center puts the target at x = 300 mm; with the fixed
    # working height that radial exceeds l1 + l2
    det = center_detection(cx=3500.0)
    items = plan_pot_service([det], layout, CAL, GEOM)
    assert items[0].joints is None
    assert items[0].cause == "Unreachable"
    assert items[0].matched_pot is None  # also too far from the pot to match


def test_plan_matches_by_station_gate():
    layout = grid_layout(2, 600.0)  # pots at x = 0 and x = 600
    near = center_detection()  # maps onto pot 0 exactly
    far = center_detection(cx=2000.0 + 1300.0)  # 130 mm off, beyond the gate
    items = plan_pot_service([near, far], layout, CAL, GEOM,
                             station=(0.0, 0.0), match_gate_mm=100.0)
    assert items[0].matched_pot == 0
    assert items[1].matched_pot is None


def test_mission_retry_consumes_one_extra_sensing_pass():
    # a blind detector forces retry-then-skip on every pot
    blind = params_for("standard_greenhouse")
    cfg_env = environment_for(CFG, "standard_greenhouse")
    env = dataclasses.replace(
        cfg_env,
        detector_profile=dataclasses.replace(cfg_env.detector_profile, accuracy=0.0),
    )
    report, world = run_trial(env, blind, 13)
    assert report.serviced == 0
    assert report.accuracy_pct == 0.0
    assert world.frames == 2 * report.pots  # one retry per pot, then skip
    assert all(r.cause == "Undetected" for r in world.records)


# ------------------------------------------------------- endurance

def test_endurance_runtime_tracks_battery_capacity():
    small = BatteryModel(capacity_mah=240.0)  # a tenth of the stock pack
    minutes, pots = run_until_depleted(
        environment_for(CFG, "standard_greenhouse"),
        params_for("standard_greenhouse", battery=small), 42)
    assert 2.0 < minutes < 4.0  # stock pack lasts ~30 min in this environment
    assert pots >= 15


def test_endurance_raises_when_battery_cannot_deplete():
    huge = BatteryModel(capacity_mah=1e7)
    with pytest.raises(MissionTimeout):
        run_until_depleted(
            environment_for(CFG, "standard_greenhouse"),
            params_for("standard_greenhouse", battery=huge), 42, max_hours=0.02)


# ------------------------------------------------------- per-tick reference

def reference_step(state, world, dt):
    """Advance the mission by one tick: the reference for step_mission."""
    battery = battery_step(state.battery, _active_subsystems(state.phase, world), dt)
    world.monitor = drift_update(world.monitor, dt)
    state = dataclasses.replace(
        state, elapsed=state.elapsed + dt, battery=battery,
        phase_left=state.phase_left - dt,
    )
    if world.trace_rows is not None:
        world.trace_rows.append(
            (state.elapsed, state.phase, state.pot_index % len(world.layout.pots),
             world.tilt, battery.voltage)
        )
    if battery.depleted:
        return _transition(state, world, ABORTED, cause=CAUSE_DEPLETED)
    if state.phase_left > 1e-9:
        return state
    return _FINISHERS[state.phase](state, world)


def reference_mission(env, params, seed, *, loop=False, max_ticks=10**7):
    """Tick-at-a-time mission; returns (state, world, ticks) when it ends or
    when max_ticks have run."""
    rng = np.random.default_rng(seed)
    world = MissionWorld(env, realize_layout(env.layout, rng), params, rng,
                         loop=loop, keep_trace=True)
    state = start_mission(world)
    for ticks in range(1, max_ticks + 1):
        state = reference_step(state, world, params.timing.mission_tick)
        if state.phase in (DONE, ABORTED):
            break
    return state, world, ticks


def assert_same_mission(a, b):
    (state_a, world_a), (state_b, world_b) = a, b
    assert state_a == state_b
    assert world_a.transitions == world_b.transitions
    assert world_a.monitor == world_b.monitor
    assert world_a.records == world_b.records
    assert world_a.trace_rows == world_b.trace_rows
    assert world_a.tilt == world_b.tilt
    assert (world_a.frames, world_a.det_count, world_a.fp_count, world_a.pots_seen) == (
        world_b.frames, world_b.det_count, world_b.fp_count, world_b.pots_seen)


def varied_params(env_name, pot_count, tick, capacity, drift_rate, shielded):
    cfg = dataclasses.replace(
        CFG, pot_count=pot_count,
        leveling=dataclasses.replace(CFG.leveling, drift_rate=drift_rate, shielded=shielded),
        timing=dataclasses.replace(CFG.timing, mission_tick=tick),
        battery=dataclasses.replace(CFG.battery, capacity_mah=capacity),
    )
    return environment_for(cfg, env_name), resolve_params(cfg, env_name, GAINS)


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
    env, params = varied_params(env_name, pot_count, tick, capacity, drift_rate, shielded)
    state, world, _ = reference_mission(env, params, seed, loop=loop)
    assert state.phase in (DONE, ABORTED)
    assert_same_mission(run_mission(env, params, seed, loop=loop, keep_trace=True),
                        (state, world))


@pytest.mark.parametrize("max_hours,tick", [(0.01, 0.05), (0.0123, 0.03), (0.002, 0.07)])
def test_time_guard_fires_after_exactly_the_budgeted_ticks(monkeypatch, max_hours, tick):
    env, params = varied_params("hilly_terrain", 20, tick, 1e7, 0.0015, True)
    budget = int(max_hours * 3600.0 / tick)
    last = {}
    real_step = mission_module.step_mission

    def counting_step(state, world, dt, max_ticks):
        state, ticks = real_step(state, world, dt, max_ticks)
        last["ticks"] = last.get("ticks", 0) + ticks
        last["mission"] = (state, world)
        return state, ticks

    monkeypatch.setattr(mission_module, "step_mission", counting_step)
    with pytest.raises(MissionTimeout):
        run_mission(env, params, 3, keep_trace=True, max_hours=max_hours)
    state, world, ticks = reference_mission(env, params, 3, max_ticks=budget)
    assert ticks == budget and state.phase not in (DONE, ABORTED)
    assert last["ticks"] == budget == len(last["mission"][1].trace_rows)
    assert_same_mission(last["mission"], (state, world))
