"""Sense-plan-act mission state machine over a pot layout.

One mission visits every pot in layout order: sense (detect the pot in the
station frame), level the platform first whenever tilt exceeds the band,
position the arm from the detection, dispense, advance. Records per-pot
irrigation outcomes and aggregates them into a trial report shaped like the
system's field-results table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from irribot.detect import GeometryBands, enhanced_detection
from irribot.fieldsim import (
    battery_step,
    dispense,
    fresh_battery,
    realize_layout,
    simulate_detection,
)
from irribot.kinematics import (
    ArmTarget,
    SingularBase,
    UnreachableTarget,
    inverse_kinematics,
    pixel_to_arm,
)
from irribot.leveling import (
    DriftMonitor,
    PlatformPlant,
    drift_update,
    run_leveling_episode,
)

SENSING = "Sensing"
LEVELING = "Leveling"
POSITIONING = "Positioning"
DISPENSING = "Dispensing"
ADVANCING = "Advancing"
DONE = "Done"
ABORTED = "Aborted"

# legal phase graph; Aborted is reachable from anywhere on depletion
ADJACENCY = {
    SENSING: {SENSING, LEVELING, POSITIONING, ADVANCING, ABORTED},
    LEVELING: {POSITIONING, ABORTED},
    POSITIONING: {DISPENSING, ADVANCING, ABORTED},
    DISPENSING: {ADVANCING, ABORTED},
    ADVANCING: {SENSING, DONE, ABORTED},
}

CAUSE_DEPLETED = "Depleted"
CAUSE_UNDETECTED = "Undetected"
CAUSE_UNREACHABLE = "Unreachable"


class MissionTimeout(RuntimeError):
    """The mission neither finished nor aborted within its simulated-time guard."""


@dataclass
class IrrigationRecord:
    pot_id: int
    detected: bool = False  # found on the first sensing attempt
    retried: bool = False
    serviced: bool = False
    positioning_error: float | None = None  # mm
    dispensed: float = 0.0  # mL
    delivered: float = 0.0  # mL
    leveling_time: float | None = None  # s
    leveling_sse: float | None = None  # degrees
    cause: str | None = None


@dataclass(frozen=True)
class MissionState:
    phase: str
    pot_index: int
    elapsed: float
    battery: object
    phase_left: float
    retried: bool = False
    cause: str | None = None


class MissionWorld:
    """Mutable simulation handles shared by all ticks of one mission."""

    def __init__(self, env, layout, params, rng, *, loop=False, keep_trace=False):
        self.env = env
        self.layout = layout
        self.params = params
        self.rng = rng
        self.loop = loop  # endurance mode: wrap to pot 0 instead of finishing
        self.bands = GeometryBands()
        lv = params.leveling
        self.monitor = DriftMonitor(
            drift_rate=lv.drift_rate,
            shielded=lv.shielded,
            shielding_factor=lv.shielding_factor,
            reset_threshold=lv.reset_threshold,
        )
        self.tilt = float(env.slope)
        self.records = [IrrigationRecord(pot_id=p.pot_id) for p in layout.pots]
        self.frames = 0
        self.det_count = 0
        self.fp_count = 0
        self.matched_frames = 0
        self.pots_seen = 0
        self.current_target = None  # planned PlanItem for the pot in service
        self.impact = None  # (x, y) spray impact offset from the pot in service, mm
        self.transitions = []
        self.trace_rows = [] if keep_trace else None

    def record(self, index):
        return self.records[index % len(self.records)]


@dataclass(frozen=True)
class PlanItem:
    """One detection mapped through calibration and kinematics."""

    detection: object
    target: ArmTarget | None
    joints: object | None
    matched_pot: int | None  # scoring only; missions never act on ground truth
    cause: str | None = None


def plan_pot_service(dets, layout, cal, geom, *, station=(0.0, 0.0), match_gate_mm=100.0):
    """Map surviving detections to joint commands; score against ground truth.

    Each detection center becomes an arm-frame target via the calibration and
    a joint solution via closed-form kinematics; targets the arm cannot reach
    are kept but marked skipped-with-cause. Ground-truth matching is
    nearest-neighbor within match_gate_mm, used only for scoring.
    """
    items = []
    for det in dets:
        u, v = det.bbox.center
        target = pixel_to_arm(u, v, cal)
        # field-frame position of the detection, for scoring
        fx = station[0] + (target.x_a - cal.delta_x)
        fy = station[1] + (target.y_a - cal.delta_y)
        matched = layout.nearest_id(fx, fy, match_gate_mm)
        try:
            joints = inverse_kinematics(target, geom)
            items.append(PlanItem(det, target, joints, matched))
        except (UnreachableTarget, SingularBase):
            items.append(PlanItem(det, target, None, matched, cause=CAUSE_UNREACHABLE))
    return items


def water_savings_pct(system_efficiency, flood_efficiency):
    """Water saved per delivered unit versus flood irrigation, in percent."""
    if system_efficiency <= 0:
        raise ValueError("system efficiency must be positive")
    return 100.0 * (1.0 - flood_efficiency / system_efficiency)


# --------------------------------------------------------------------------
# state machine


def _active_subsystems(phase, world):
    active = {"compute"}
    if phase == LEVELING:
        active.add("leveling")
    elif phase == POSITIONING:
        active.add("arm")
    elif phase == DISPENSING:
        active.add("pump")
    elif phase == ADVANCING:
        active.add("drive")
    if world.env.slope > 0:
        active.add("leveling")  # holding the platform against the slope
    return active


def _transition(state, world, phase, **changes):
    world.transitions.append((state.phase, phase))
    return replace(state, phase=phase, **changes)


def _pot(world, index):
    return world.layout.pots[index % len(world.layout.pots)]


def _enter_sensing(state, world, *, retried=False):
    p = world.params
    profile = world.env.detector_profile
    duration = p.timing.sense_settle + profile.inference_time_ms / 1000.0
    return _transition(state, world, SENSING, phase_left=duration, retried=retried)


def _enter_advancing(state, world, cause=None):
    p = world.params
    rec = world.record(state.pot_index)
    if cause is not None:
        rec.cause = cause
    here = _pot(world, state.pot_index)
    nxt = _pot(world, state.pot_index + 1)
    distance = math.hypot(nxt.x - here.x, nxt.y - here.y)
    if distance == 0.0:
        distance = world.layout.min_spacing
    return _transition(state, world, ADVANCING, phase_left=distance / p.drive_speed_mm_s)


def _finish_sensing(state, world):
    p = world.params
    world.frames += 1
    pot = _pot(world, state.pot_index)
    # the station frame is centered on the pot the chassis parked at;
    # sensing wants arm-frame coordinates, hence the hand-eye offset shift
    in_view = [
        replace(q, x=q.x - pot.x + p.cal.delta_x, y=q.y - pot.y + p.cal.delta_y)
        for q in world.layout.in_box(pot.x, pot.y, 145.0)
    ]
    raw = simulate_detection(in_view, world.env.detector_profile, world.rng, p.cal)
    dets = enhanced_detection(
        raw, world.bands, conf_threshold=p.detection.conf_threshold,
        iou_threshold=p.detection.iou_threshold,
    )
    plan = plan_pot_service(
        dets, world.layout, p.cal, p.geom,
        station=(pot.x, pot.y), match_gate_mm=p.scoring.match_gate,
    )
    world.det_count += len(plan)
    world.fp_count += sum(1 for item in plan if item.matched_pot is None)
    target = next((item for item in plan if item.matched_pot == pot.pot_id), None)
    if target is not None:
        world.matched_frames += 1
    rec = world.record(state.pot_index)
    if target is not None and not state.retried:
        rec.detected = True
    if target is None:
        if not state.retried:
            rec.retried = True
            return _enter_sensing(state, world, retried=True)
        return _enter_advancing(state, world, cause=CAUSE_UNDETECTED)
    world.current_target = target
    if abs(world.tilt) > p.leveling.level_band:
        return _enter_leveling(state, world)
    return _transition(state, world, POSITIONING, phase_left=p.timing.arm_move)


def _enter_leveling(state, world):
    p = world.params
    lv = p.leveling
    plant = PlatformPlant(p.plant.max_rate, p.plant.delay, p.plant.tau)
    trace = run_leveling_episode(
        plant, p.gains, world.tilt, lv.episode_window, lv.episode_tick,
        window=lv.filter_window, noise_std=lv.noise_std, drift=world.monitor,
        rng=world.rng, band=lv.level_band,
    )
    settle = trace.response_time
    if settle is None:
        settle = lv.episode_window
    rec = world.record(state.pot_index)
    rec.leveling_time = float(settle)
    rec.leveling_sse = trace.steady_state_error
    world.tilt = float(trace.tilt[-1])
    return _transition(state, world, LEVELING, phase_left=float(settle))


def _finish_leveling(state, world):
    return _transition(state, world, POSITIONING, phase_left=world.params.timing.arm_move)


def _finish_positioning(state, world):
    p = world.params
    item = world.current_target
    if item is None or item.joints is None:
        return _enter_advancing(state, world,
                                cause=None if item is None else item.cause)
    jitter = world.rng.normal(0.0, p.scoring.sigma_mech, size=2)
    lever = math.tan(math.radians(world.tilt)) * p.scoring.tilt_lever
    impact_x = (item.target.x_a - p.cal.delta_x) + jitter[0] + lever
    impact_y = (item.target.y_a - p.cal.delta_y) + jitter[1]
    # station frame is pot-centered, so the impact offset IS the error vector
    err = math.hypot(impact_x, impact_y)
    rec = world.record(state.pot_index)
    rec.positioning_error = float(err)
    world.impact = (impact_x, impact_y)
    dispensed_volume = p.target_volume_ml * (1.0 + p.pump.dispense_overshoot)
    return _transition(
        state, world, DISPENSING, phase_left=dispensed_volume / p.pump.flow_rate
    )


def _finish_dispensing(state, world):
    p = world.params
    pot = _pot(world, state.pot_index)
    rec = world.record(state.pot_index)
    ix, iy = world.impact
    err = rec.positioning_error
    direction = (ix / err, iy / err) if err > 0 else (1.0, 0.0)
    dispensed, delivered = dispense(
        p.pump, p.target_volume_ml, err, pot, direction=direction
    )
    rec.dispensed = dispensed
    rec.delivered = delivered
    rec.serviced = True
    world.pots_seen += 1
    return _enter_advancing(state, world)


def _finish_advancing(state, world):
    nxt = state.pot_index + 1
    if nxt >= len(world.layout.pots) and not world.loop:
        return _transition(state, world, DONE, phase_left=0.0)
    if world.env.slope > 0:
        world.tilt = float(world.env.slope)  # new ground re-tilts the chassis
    state = replace(state, pot_index=nxt, retried=False)
    world.current_target = None
    return _enter_sensing(state, world)


_FINISHERS = {
    SENSING: _finish_sensing,
    LEVELING: _finish_leveling,
    POSITIONING: _finish_positioning,
    DISPENSING: _finish_dispensing,
    ADVANCING: _finish_advancing,
}


def _countdown(state, dt, max_ticks):
    """Tick the phase clock until phase_left runs out or max_ticks have passed.

    Returns (ticks, elapsed, phase_left); a phase always takes at least one tick.
    """
    ticks, elapsed, left = 0, state.elapsed, state.phase_left
    while True:
        ticks += 1
        elapsed = elapsed + dt
        left = left - dt
        if left <= 1e-9 or ticks == max_ticks:
            return ticks, elapsed, left


def step_mission(state, world, dt, max_ticks):
    """Advance the mission through its current phase; returns (state, ticks).

    The phase runs at tick resolution until its time is used up, the battery
    depletes, or max_ticks ticks have passed. Battery charge and drift bias
    accumulate tick by tick, so every float equals that of a loop stepping
    one tick at a time; with a trace, each tick adds one row. The phase's
    finisher then picks the next phase, unless max_ticks cut the phase short.
    """
    if state.phase in (DONE, ABORTED):
        raise ValueError(f"mission already terminal in phase {state.phase}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    ticks, elapsed, left = _countdown(state, dt, max_ticks)
    active = _active_subsystems(state.phase, world)
    voltages = [] if world.trace_rows is not None else None
    battery = battery_step(state.battery, active, dt, ticks, voltages)
    if battery.depleted:
        # replay one tick at a time to the tick that latched depletion
        battery, ticks = state.battery, 0
        while not battery.depleted:
            battery = battery_step(battery, active, dt)
            ticks += 1
        ticks, elapsed, left = _countdown(state, dt, ticks)
    # the finisher may read the bias: _enter_leveling hands it to the episode
    world.monitor = drift_update(world.monitor, dt, ticks)
    if voltages is not None:
        pot = state.pot_index % len(world.layout.pots)
        t = state.elapsed
        for volts in voltages[:ticks]:
            t = t + dt
            world.trace_rows.append((t, state.phase, pot, world.tilt, volts))
    state = replace(state, elapsed=elapsed, battery=battery, phase_left=left)
    if battery.depleted:
        return _transition(state, world, ABORTED, cause=CAUSE_DEPLETED), ticks
    if left > 1e-9:
        return state, ticks
    return _FINISHERS[state.phase](state, world), ticks


def start_mission(world):
    p = world.params
    profile = world.env.detector_profile
    return MissionState(
        phase=SENSING,
        pot_index=0,
        elapsed=0.0,
        battery=fresh_battery(p.battery),
        phase_left=p.timing.sense_settle + profile.inference_time_ms / 1000.0,
    )


def run_mission(env, params, seed, *, loop=False, keep_trace=False, max_hours=3.0):
    """Run one full mission; returns (final state, world)."""
    rng = np.random.default_rng(seed)
    layout = realize_layout(env.layout, rng)
    world = MissionWorld(env, layout, params, rng, loop=loop, keep_trace=keep_trace)
    state = start_mission(world)
    tick = params.timing.mission_tick
    max_ticks = int(max_hours * 3600.0 / tick)
    ticks = 0
    while ticks < max_ticks:
        state, n = step_mission(state, world, tick, max_ticks - ticks)
        ticks += n
        if state.phase in (DONE, ABORTED):
            return state, world
    raise MissionTimeout(
        f"mission exceeded the simulation-time guard of {max_hours:g} h ({max_ticks} ticks)")


# --------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class TrialReport:
    env: str
    trial: int
    seed: int
    pots: int
    serviced: int
    accuracy_pct: float  # first-attempt per-pot detection rate
    frame_accuracy_pct: float  # per-frame rate including retries
    fp_pct: float  # spurious detections / all detections
    mean_inference_ms: float
    mean_positioning_error_mm: float | None
    leveling_mean_s: float | None
    leveling_max_s: float | None
    sse_mean_deg: float | None
    sse_max_deg: float | None
    mean_volume_ml: float | None
    efficiency_pct: float | None
    water_savings_pct: float | None
    elapsed_s: float
    battery_voltage_end: float
    aborted: bool
    abort_cause: str | None

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def mean_or_none(values):
    """Arithmetic mean of the values, or None when there are none."""
    vals = list(values)
    return sum(vals) / len(vals) if vals else None


def aggregate_trial(env, world, state, trial, seed):
    """Fold the mission's records into one report row of plain floats."""
    params = world.params
    records = world.records
    pots = len(records)
    serviced = [r for r in records if r.serviced]
    detected = sum(1 for r in records if r.detected)
    leveled = [r for r in records if r.leveling_time is not None]
    total_disp = sum(r.dispensed for r in serviced)
    total_del = sum(r.delivered for r in serviced)
    efficiency = 100.0 * total_del / total_disp if total_disp > 0 else None
    savings = (
        water_savings_pct(total_del / total_disp, params.scoring.flood_efficiency)
        if total_disp > 0 and total_del > 0
        else None
    )
    return TrialReport(
        env=env.name,
        trial=trial,
        seed=seed,
        pots=pots,
        serviced=len(serviced),
        accuracy_pct=100.0 * detected / pots,
        frame_accuracy_pct=100.0 * world.matched_frames / world.frames if world.frames else 0.0,
        fp_pct=100.0 * world.fp_count / world.det_count if world.det_count else 0.0,
        mean_inference_ms=float(env.detector_profile.inference_time_ms),
        mean_positioning_error_mm=mean_or_none(r.positioning_error for r in serviced),
        leveling_mean_s=mean_or_none(r.leveling_time for r in leveled),
        leveling_max_s=max((r.leveling_time for r in leveled), default=None),
        sse_mean_deg=mean_or_none(r.leveling_sse for r in leveled),
        sse_max_deg=max((r.leveling_sse for r in leveled), default=None),
        mean_volume_ml=mean_or_none(r.dispensed for r in serviced),
        efficiency_pct=efficiency,
        water_savings_pct=savings,
        elapsed_s=state.elapsed,
        battery_voltage_end=float(state.battery.voltage),
        aborted=state.phase == ABORTED,
        abort_cause=state.cause,
    )


def run_trial(env, params, seed, *, trial=0, keep_trace=False):
    """One metrics trial over the full layout; returns (report, world)."""
    state, world = run_mission(env, params, seed, loop=False, keep_trace=keep_trace)
    return aggregate_trial(env, world, state, trial, seed), world


def run_until_depleted(env, params, seed, *, max_hours=3.0):
    """Endurance run: loop the layout until the battery gives out.

    Returns (minutes of runtime, pots serviced). A looping mission never
    reaches Done, so it ends aborted or raises MissionTimeout.
    """
    state, world = run_mission(env, params, seed, loop=True, max_hours=max_hours)
    return state.elapsed / 60.0, world.pots_seen
