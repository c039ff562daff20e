"""Sense-plan-act mission state machine over a pot layout.

One mission visits the pots in layout order, lap after lap: sense (detect
the pot in the station frame), level the platform first whenever tilt
exceeds the band, position the arm from the detection, dispense, advance.
Records per-pot irrigation outcomes and aggregates them into a trial report
shaped like the system's field-results table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from irribot.detect import enhanced_detection
from irribot.fieldsim import (
    battery_step,
    dispense,
    pumped_volume,
    realize_layout,
    simulate_detection,
)
from irribot.kinematics import (
    SingularBase,
    UnreachableTarget,
    inverse_kinematics,
    pixel_to_arm,
)
from irribot.leveling import drift_update, run_leveling_episode
from irribot.sums import ltr_sum

SENSING = "Sensing"
LEVELING = "Leveling"
POSITIONING = "Positioning"
DISPENSING = "Dispensing"
ADVANCING = "Advancing"
ABORTED = "Aborted"

CAUSE_DEPLETED = "Depleted"
CAUSE_UNDETECTED = "Undetected"
CAUSE_UNREACHABLE = "Unreachable"

# simulated-time guard of one mission, its endurance continuation included
GUARD_HOURS = 3.0
# the most ticks the guard may span (GUARD_HOURS * 3600 / mission_tick), which
# is the guard at a 1 ms tick; of each tick, only the battery's charge is walked
MAX_MISSION_TICKS = 10_800_000


class MissionTimeout(RuntimeError):
    """The mission neither finished nor aborted within its simulated-time guard."""


class LogEntry(NamedTuple):
    """One phase run, as `Mission.log` holds it."""

    start: int  # the mission tick the phase started on
    phase: str
    pot: int  # index of the pot in service
    tilt: float  # platform tilt at the start, degrees
    charge: float  # pack charge at the start, mAh
    draw_ma: float  # the phase's summed battery draw, mA
    ticks: int  # the ticks the phase ran


@dataclass
class IrrigationRecord:
    """One pot's outcome over a lap. A sensed pot missed on the first
    attempt is sensed once more; `Mission.log` holds both Sensing phases."""

    pot_id: int
    detected: bool = False  # found on the first sensing attempt
    serviced: bool = False
    positioning_error: float | None = None  # mm
    dispensed: float = 0.0  # mL
    delivered: float = 0.0  # mL
    leveling_time: float | None = None  # s
    leveling_sse: float | None = None  # degrees
    cause: str | None = None


class Mission:
    """One mission's simulation handles and all of its mutable state, which
    `step_mission` and the phase finishers change in place. `ticks` is the
    mission's one clock: its elapsed time is `ticks * mission_tick`, and the
    current phase ends on tick `phase_end`. `log` holds one `LogEntry` per
    phase run."""

    def __init__(self, env, layout, cfg, gains, rng):
        self.env = env
        self.layout = layout
        self.cfg = cfg
        self.gains = gains
        self.rng = rng
        self.ticks = 0  # mission ticks run so far
        # summed battery draw of each phase, mA; on a slope every phase also
        # holds the platform level against it
        hold = {"compute", "leveling"} if env.slope > 0 else {"compute"}
        self.draw_ma = {p: cfg.battery.current_ma(hold.union(own))
                        for p, (own, _, _) in _PHASES.items()}
        self.pot_index = 0
        self.charge = cfg.battery.capacity_mah  # mAh
        self.bias = 0.0  # degrees, integrated drift of the tilt reading
        # the mission tick of the leveling phase's last charged drift reset, or None
        self.reset_tick = None
        self.tilt = float(env.slope)
        self.records = [IrrigationRecord(pot_id=p.pot_id) for p in layout.pots]
        self.frames = 0
        self.det_count = 0
        self.fp_count = 0
        self.matched_frames = 0
        # (x, y) offset of the box Sensing matched from the pot in service, mm,
        # or None when the arm cannot reach it; set before every Positioning
        self.aim = None
        self.impact = None  # (x, y) spray impact offset from the pot in service, mm
        self.log = []
        _enter_sensing(self)  # sets phase, phase_end and retried

    def record(self):
        """The record of the pot in service."""
        return self.records[self.pot_index % len(self.records)]

    def pot(self, offset=0):
        """The pot in service, or the one `offset` places after it."""
        pots = self.layout.pots
        return pots[(self.pot_index + offset) % len(pots)]


def plan_pot_service(dets, cal, geom, *, match_gate_mm):
    """Score surviving detections against the pot in service.

    The station frame is centred on the pot in service, so a detection's
    offset from it is its arm-frame target (`pixel_to_arm`) less the static
    offsets. Returns (offset, reachable, spurious): the (x, y) offset in mm of
    the first detection within match_gate_mm, or None; whether the arm reaches
    that detection's target (`inverse_kinematics`); and the number of
    detections that matched nothing, since the detector boxes no other pot.
    """
    matched, reachable, spurious = None, False, 0
    for det in dets:
        u, v = det.bbox.center
        target = pixel_to_arm(u, v, cal)
        offset = (target.x_a - cal.delta_x, target.y_a - cal.delta_y)
        if math.hypot(*offset) > match_gate_mm:
            spurious += 1
        elif matched is None:
            matched = offset
            try:
                inverse_kinematics(target, geom)
                reachable = True
            except (UnreachableTarget, SingularBase):
                pass
    return matched, reachable, spurious


def water_savings_pct(system_efficiency, flood_efficiency):
    """Water saved per delivered unit versus flood irrigation, in percent."""
    if system_efficiency <= 0:
        raise ValueError("system efficiency must be positive")
    return 100.0 * (1.0 - flood_efficiency / system_efficiency)


# --------------------------------------------------------------------------
# state machine


def _transition(m, phase, seconds):
    """Enter `phase` for `seconds` of simulated time: the whole ticks that
    cover them, at least one. A phase no guard outlasts is cut to
    MAX_MISSION_TICKS + 1 ticks, so a count that overflows to inf is still whole."""
    m.phase = phase
    ticks = min((seconds - 1e-9) / m.cfg.timing.mission_tick, MAX_MISSION_TICKS + 1)
    m.phase_end = m.ticks + max(1, math.ceil(ticks))


def _enter_sensing(m, *, retried=False):
    m.retried = retried
    _transition(m, SENSING, m.cfg.timing.sense_settle + m.env.tuning.inference_time_ms / 1000.0)


def _enter_advancing(m, cause=None):
    if cause is not None:
        m.record().cause = cause
    here, nxt = m.pot(), m.pot(1)
    distance = math.hypot(nxt.x - here.x, nxt.y - here.y)
    if distance == 0.0:
        distance = m.layout.min_spacing
    _transition(m, ADVANCING, distance / m.env.tuning.drive_speed)


def _finish_sensing(m):
    cfg = m.cfg
    m.frames += 1
    # the chassis parked at the pot, which is the one pot the detector boxes
    raw = simulate_detection(m.pot(), m.env.tuning, m.rng, cfg.calibration)
    dets = enhanced_detection(
        raw, conf_threshold=cfg.detection.conf_threshold,
        iou_threshold=cfg.detection.iou_threshold,
    )
    offset, reachable, spurious = plan_pot_service(
        dets, cfg.calibration, cfg.arm, match_gate_mm=cfg.scoring.match_gate)
    m.det_count += len(dets)
    m.fp_count += spurious
    if offset is None:
        if not m.retried:
            _enter_sensing(m, retried=True)
        else:
            _enter_advancing(m, cause=CAUSE_UNDETECTED)
    else:
        m.matched_frames += 1
        if not m.retried:
            m.record().detected = True
        m.aim = offset if reachable else None
        if abs(m.tilt) > cfg.leveling.level_band:
            _enter_leveling(m)
        else:
            _transition(m, POSITIONING, cfg.timing.arm_move)


def _enter_leveling(m):
    lv = m.cfg.leveling
    tick = lv.episode_tick
    summary = run_leveling_episode(m.cfg.plant, m.gains, m.tilt, lv, bias=m.bias, rng=m.rng)
    settle = summary.settle_time
    if settle is None:
        settle = lv.episode_window
    rec = m.record()
    rec.leveling_time = float(settle)
    rec.leveling_sse = summary.sse
    m.tilt = summary.final_tilt
    # The phase charges the episode up to its settle tick. The last reset at or
    # before it zeroes the bias, which then grows again from the mission tick
    # the reset falls in to the end of the phase.
    charged = [r for r in summary.resets if r * tick <= settle]
    dt = m.cfg.timing.mission_tick
    m.reset_tick = m.ticks + int(charged[-1] * tick / dt + 1e-9) if charged else None
    _transition(m, LEVELING, float(settle))


def _finish_leveling(m):
    if m.reset_tick is not None:
        # the bias grew from zero over the phase's ticks after the reset's
        since = m.ticks - m.reset_tick
        m.bias = drift_update(m.cfg.leveling, 0.0, m.cfg.timing.mission_tick, since)
    _transition(m, POSITIONING, m.cfg.timing.arm_move)


def _finish_positioning(m):
    scoring = m.cfg.scoring
    if m.aim is None:
        _enter_advancing(m, cause=CAUSE_UNREACHABLE)
        return
    aim_x, aim_y = m.aim
    jitter = m.rng.normal(0.0, scoring.sigma_mech, size=2)
    lever = math.tan(math.radians(m.tilt)) * scoring.tilt_lever
    impact_x = aim_x + jitter[0] + lever
    impact_y = aim_y + jitter[1]
    # station frame is pot-centered, so the impact offset IS the error vector
    err = math.hypot(impact_x, impact_y)
    m.record().positioning_error = float(err)
    m.impact = (impact_x, impact_y)
    pump = m.cfg.pump
    _transition(m, DISPENSING, pumped_volume(pump, m.env.tuning) / pump.flow_rate)


def _finish_dispensing(m):
    rec = m.record()
    rec.dispensed, rec.delivered = dispense(m.cfg.pump, m.env.tuning, m.pot(), *m.impact)
    rec.serviced = True
    _enter_advancing(m)


def _finish_advancing(m):
    if m.env.slope > 0:
        m.tilt = float(m.env.slope)  # new ground re-tilts the chassis
    m.pot_index += 1
    _enter_sensing(m)


# each phase: the battery subsystems it draws on beside compute, its
# finisher, and the phases the finisher may enter; Aborted is reachable from
# any phase, on depletion
_PHASES = {
    SENSING: ((), _finish_sensing, {SENSING, LEVELING, POSITIONING, ADVANCING}),
    LEVELING: (("leveling",), _finish_leveling, {POSITIONING}),
    POSITIONING: (("arm",), _finish_positioning, {DISPENSING, ADVANCING}),
    DISPENSING: (("pump",), _finish_dispensing, {ADVANCING}),
    ADVANCING: (("drive",), _finish_advancing, {SENSING}),
}


def step_mission(mission, max_ticks):
    """Advance the mission through its current phase; returns the tick count.

    Mutates `mission` in place. The phase runs at ticks of the config's
    `mission_tick` until it reaches its end tick, the battery depletes, or
    max_ticks ticks have passed. The battery walk (`battery_step`) drains
    the charge tick by tick and stops on the depleting tick; the drift bias
    grows in closed form over the ticks run. The phase appends one entry to
    the mission's log. The phase's finisher then picks the next phase and
    updates the mission, unless depletion aborted it or max_ticks cut it
    short. A finisher that enters a phase `_PHASES` does not list among its
    successors is a program defect: RuntimeError names both phases.
    """
    m = mission
    phase = m.phase
    if phase == ABORTED:
        raise ValueError("mission already aborted")
    if max_ticks < 1:
        raise ValueError("max_ticks must be at least 1")
    dt = m.cfg.timing.mission_tick
    ticks = min(m.phase_end - m.ticks, max_ticks)
    charge, depleted, ticks = battery_step(m.cfg.battery, m.charge, m.draw_ma[phase], dt, ticks)
    # the finisher may read the bias: _enter_leveling hands it to the episode
    m.bias = drift_update(m.cfg.leveling, m.bias, dt, ticks)
    m.log.append(LogEntry(m.ticks, phase, m.pot_index % len(m.layout.pots), m.tilt,
                          m.charge, m.draw_ma[phase], ticks))
    m.charge = charge
    m.ticks += ticks
    if depleted:
        m.phase = ABORTED
    elif m.ticks == m.phase_end:
        _, finish, successors = _PHASES[phase]
        finish(m)
        if m.phase not in successors:
            raise RuntimeError(f"illegal phase transition {phase} -> {m.phase}")
    return ticks


def segment_ticks(entry, battery, dt):
    """(t, voltage) after each tick of a `LogEntry`: t is the mission
    tick times dt, and the charge is walked tick by tick as battery_step
    walks it."""
    charge, start = entry.charge, entry.start
    drain = entry.draw_ma * dt / 3600.0
    for k in range(start + 1, start + entry.ticks + 1):
        charge = charge - drain
        yield k * dt, battery.voltage(charge)


def _run_guarded(m, laps):
    """Step the mission until it aborts or has left the last pot of lap
    `laps`; raises MissionTimeout once its tick count, counted from its first
    tick, reaches the guard of GUARD_HOURS, which is read on each call."""
    tick = m.cfg.timing.mission_tick
    max_ticks = int(GUARD_HOURS * 3600.0 / tick)
    last = laps * len(m.layout.pots)
    while m.ticks < max_ticks and m.phase != ABORTED and m.pot_index < last:
        step_mission(m, max_ticks - m.ticks)
    if (m.phase == ABORTED or m.pot_index >= last) and m.ticks <= max_ticks:
        return m
    raise MissionTimeout(
        f"mission exceeded the simulation-time guard of {GUARD_HOURS:g} h ({max_ticks} ticks)")


def run_mission(env, cfg, gains, seed):
    """Run one lap of a mission in env, as `environment_for(cfg, name)`
    resolves it, with these leveling gains (None on flat ground, where no
    episode runs); returns the Mission, aborted or entering the next lap's
    Sensing, with one log entry per phase of the lap."""
    rng = np.random.default_rng(seed)
    layout = realize_layout(env.layout, rng)
    mission = Mission(env, layout, cfg, gains, rng)
    return _run_guarded(mission, 1)


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


def mean_or_none(values):
    """Arithmetic mean of the values, or None when there are none."""
    vals = list(values)
    return ltr_sum(vals) / len(vals) if vals else None


def aggregate_trial(mission, trial, seed):
    """Fold the mission's records into one report row of plain floats."""
    m = mission
    env = m.env
    aborted = m.phase == ABORTED
    records = m.records
    pots = len(records)
    serviced = [r for r in records if r.serviced]
    detected = sum(1 for r in records if r.detected)
    leveled = [r for r in records if r.leveling_time is not None]
    total_disp = ltr_sum(r.dispensed for r in serviced)
    total_del = ltr_sum(r.delivered for r in serviced)
    efficiency = 100.0 * total_del / total_disp if total_disp > 0 else None
    savings = (
        water_savings_pct(total_del / total_disp, m.cfg.scoring.flood_efficiency)
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
        frame_accuracy_pct=100.0 * m.matched_frames / m.frames if m.frames else 0.0,
        fp_pct=100.0 * m.fp_count / m.det_count if m.det_count else 0.0,
        mean_inference_ms=float(env.tuning.inference_time_ms),
        mean_positioning_error_mm=mean_or_none(r.positioning_error for r in serviced),
        leveling_mean_s=mean_or_none(r.leveling_time for r in leveled),
        leveling_max_s=max((r.leveling_time for r in leveled), default=None),
        sse_mean_deg=mean_or_none(r.leveling_sse for r in leveled),
        sse_max_deg=max((r.leveling_sse for r in leveled), default=None),
        mean_volume_ml=mean_or_none(r.dispensed for r in serviced),
        efficiency_pct=efficiency,
        water_savings_pct=savings,
        elapsed_s=m.ticks * m.cfg.timing.mission_tick,
        battery_voltage_end=float(m.cfg.battery.voltage(m.charge)),
        aborted=aborted,
        abort_cause=CAUSE_DEPLETED if aborted else None,
    )


def run_trial(env, cfg, gains, seed, *, trial=0):
    """One metrics trial over the full layout; returns (report, mission),
    whose log holds the lap's phases."""
    mission = run_mission(env, cfg, gains, seed)
    return aggregate_trial(mission, trial, seed), mission


def run_until_depleted(mission):
    """Endurance run: continue a mission `run_mission` ran, lap after lap,
    until the battery gives out; returns the minutes of runtime, counted from
    the mission's start.

    An aborted mission runs no further; any other ends aborted or raises
    MissionTimeout. The first lap and the rest share one tick count under one
    guard of GUARD_HOURS, so this runs exactly as a mission that never stopped
    after its first lap would; the log goes on gaining one entry per phase.
    """
    _run_guarded(mission, math.inf)
    return mission.ticks * mission.cfg.timing.mission_tick / 60.0
