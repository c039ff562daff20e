"""Run configuration: defaults, YAML overrides, validation.

A RunConfig is a tree of frozen dataclasses; the arm, battery and calibration
sections are the model dataclasses themselves. YAML files override any subset
of fields; unknown keys fail loudly with their full path rather than being
ignored, since a typo that silently reverts to a default is the worst kind
of configuration bug. `resolve_params` picks the sections one environment's
trials need into the TrialParams the mission consumes.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass

import yaml

from irribot.fieldsim import (
    _ENV_TABLE,
    ENV_NAMES,
    BatteryModel,
    DetectorProfile,
    PumpModel,
    build_environment,
)
from irribot.kinematics import ArmGeometry, CalibrationState
from irribot.leveling import PidGains, PlatformPlant, tune_leveling


class ConfigError(ValueError):
    """Structural problem in a config file: unknown key or bad value."""


class ConfigParseError(ConfigError):
    """The file is not even syntactically valid."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class PlantConfig:
    max_rate: float = 8.0  # deg/s actuator authority
    delay: float = 0.05  # s transport delay
    tau: float = 0.15  # s actuator lag

    def __post_init__(self):
        _require(self.max_rate > 0, "max_rate must be positive")
        _require(self.delay >= 0 and self.tau > 0, "delay >= 0 and tau > 0 required")


@dataclass(frozen=True)
class LevelingConfig:
    rule: str = "classic"  # which tuning table to apply
    integral_authority: float = 8.0  # deg/s of control the integral may hold
    filter_window: int = 5  # moving-average depth on the tilt signal
    noise_std: float = 0.05  # deg, sensor noise fed to mission episodes
    drift_rate: float = 0.0015  # deg/s of gyro bias growth
    shielded: bool = True
    shielding_factor: float = 0.6
    reset_threshold: float = 5.0  # deg of accumulated bias forcing a reset
    level_band: float = 0.5  # deg; inside this the platform counts as level
    episode_window: float = 4.0  # s budget for one leveling episode
    episode_tick: float = 0.01  # s
    kp: float | None = None  # set all three to bypass auto-tuning
    ki: float | None = None
    kd: float | None = None

    def __post_init__(self):
        manual = [self.kp is None, self.ki is None, self.kd is None]
        _require(all(manual) or not any(manual),
                 "manual gains need kp, ki and kd together")
        if not any(manual):
            _require(self.kp > 0 and self.ki >= 0 and self.kd >= 0,
                     "manual gains must be positive (kp) and non-negative (ki, kd)")
        _require(self.filter_window >= 1, "filter_window must be at least 1")
        _require(self.noise_std >= 0 and self.drift_rate >= 0,
                 "noise and drift rates must be non-negative")
        _require(0 <= self.shielding_factor < 1, "shielding_factor must be in [0, 1)")
        _require(self.reset_threshold > 0, "reset_threshold must be positive")
        _require(self.level_band > 0, "level_band must be positive")
        _require(self.episode_tick > 0 and self.episode_window > self.episode_tick,
                 "episode window must exceed the tick")


@dataclass(frozen=True)
class DetectionConfig:
    conf_threshold: float = 0.5
    iou_threshold: float = 0.3

    def __post_init__(self):
        _require(0 <= self.conf_threshold <= 1, "conf_threshold must be in [0, 1]")
        _require(0 <= self.iou_threshold <= 1, "iou_threshold must be in [0, 1]")


@dataclass(frozen=True)
class PumpConfig:
    flow_rate: float = 30.0  # mL/s
    spray_radius: float = 20.0  # mm
    target_volume: float = 100.0  # mL per pot

    def __post_init__(self):
        _require(self.flow_rate > 0, "flow_rate must be positive")
        _require(self.spray_radius > 0, "spray_radius must be positive")
        _require(self.target_volume > 0, "target_volume must be positive")


@dataclass(frozen=True)
class TimingConfig:
    sense_settle: float = 0.5  # s of camera settling before inference
    arm_move: float = 1.5  # s per positioning move
    mission_tick: float = 0.05  # s

    def __post_init__(self):
        _require(self.sense_settle >= 0 and self.arm_move >= 0,
                 "phase times must be non-negative")
        _require(self.mission_tick > 0, "mission_tick must be positive")


@dataclass(frozen=True)
class ScoringConfig:
    match_gate: float = 100.0  # mm, detection-to-pot association radius
    sigma_mech: float = 4.0  # mm per-axis mechanical jitter
    tilt_lever: float = 150.0  # mm nozzle height above the pot plane
    flood_efficiency: float = 0.6  # baseline for the savings comparison

    def __post_init__(self):
        _require(self.match_gate > 0, "match_gate must be positive")
        _require(self.sigma_mech >= 0, "sigma_mech must be non-negative")
        _require(self.tilt_lever >= 0, "tilt_lever must be non-negative")
        _require(0 < self.flood_efficiency < 1, "flood_efficiency must be in (0, 1)")


@dataclass(frozen=True)
class EnvTuning:
    """Per-environment operating point: detector profile plus dispense/drive."""

    dispense_overshoot: float
    spray_efficiency: float
    drive_speed: float  # mm/s
    accuracy: float  # detector per-pot-per-frame hit probability
    fp_rate: float  # spurious detections per frame
    inference_time_ms: float
    center_noise_px: float

    def __post_init__(self):
        _require(0 <= self.dispense_overshoot < 1, "dispense_overshoot must be in [0, 1)")
        _require(0 < self.spray_efficiency <= 1, "spray_efficiency must be in (0, 1]")
        _require(self.drive_speed > 0, "drive_speed must be positive")
        _require(0 <= self.accuracy <= 1, "accuracy must be in [0, 1]")
        _require(0 <= self.fp_rate <= 1, "fp_rate must be in [0, 1]")
        _require(self.inference_time_ms >= 0, "inference_time_ms must be non-negative")
        _require(self.center_noise_px >= 0, "center_noise_px must be non-negative")


def _default_environments():
    return {
        name: EnvTuning(
            row["dispense_overshoot"], row["spray_efficiency"], row["drive_speed"],
            **dataclasses.asdict(row["profile"]),
        )
        for name, row in _ENV_TABLE.items()
    }


def _default_arm():
    return ArmGeometry(l1=120.0, l2=160.0, theta_offset=15.0)


def _default_calibration():
    return CalibrationState(s=0.1, u0=2000.0, v0=1500.0, delta_x=150.0)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    trials: int = 10
    env: str = "all"
    pot_count: int = 20
    arm: ArmGeometry = field(default_factory=_default_arm)
    calibration: CalibrationState = field(default_factory=_default_calibration)
    plant: PlantConfig = field(default_factory=PlantConfig)
    leveling: LevelingConfig = field(default_factory=LevelingConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    pump: PumpConfig = field(default_factory=PumpConfig)
    battery: BatteryModel = field(default_factory=BatteryModel)
    timing: TimingConfig = field(default_factory=TimingConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    environments: dict = field(default_factory=_default_environments)

    def __post_init__(self):
        _require(self.trials >= 1, "trials must be at least 1")
        _require(self.pot_count >= 1, "pot_count must be at least 1")
        _require(self.env == "all" or self.env in ENV_NAMES,
                 f"env must be 'all' or one of {', '.join(ENV_NAMES)}")
        _require(self.calibration.z_const > 0, "calibration.z_const must be positive")
        for name in self.environments:
            _require(name in ENV_NAMES, f"unknown environment key {name!r}")
        for name in ENV_NAMES:
            _require(name in self.environments, f"missing tuning for {name}")

    def env_names(self):
        return list(ENV_NAMES) if self.env == "all" else [self.env]


def default_config():
    return RunConfig()


# --------------------------------------------------------------------------
# YAML plumbing


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats (`1e3`, `1.0e3`,
    `-2E-4`), which PyYAML's YAML 1.1 resolver leaves as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


# What a value must be for each scalar field annotation (the config
# dataclasses annotate with strings); a YAML integer counts as a float, a
# boolean as neither number.
_SCALAR_CHECKS = {
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _check_scalar(value, annotation, key):
    kind, _, rest = annotation.partition(" | ")
    if value is None and rest == "None":
        return
    accepts = _SCALAR_CHECKS.get(kind)
    if accepts is not None and not accepts(value):
        raise ConfigError(f"{key} must be {annotation}, got {type(value).__name__} {value!r}")
    # NaN fails every comparison, and so does an int too large for a float
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite float, got {value!r}")


def _overlay(base, data, path=""):
    """Apply a parsed YAML mapping onto a dataclass or a dict of dataclasses.

    Keys that name a nested section recurse; every other key replaces the
    value outright. Unknown keys fail with their full path, a value of the
    wrong type fails naming its path and the expected type, and a value the
    section rejects fails as a ConfigError naming the section.
    """
    where = path or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    current = base
    annotations = {}
    if is_dataclass(base):
        current = {f.name: getattr(base, f.name) for f in fields(base)}
        annotations = {f.name: f.type for f in fields(base)}
    unknown = sorted(set(data) - set(current), key=str)
    if unknown:
        raise ConfigError(f"unknown key {path + '.' if path else ''}{unknown[0]!r}")
    changes = {}
    for key, value in data.items():
        child = current[key]
        key_path = f"{path}.{key}" if path else key
        if is_dataclass(child) or isinstance(child, dict):
            value = _overlay(child, value, key_path)
        else:
            _check_scalar(value, annotations[key], key_path)
        changes[key] = value
    if not is_dataclass(base):
        return {**base, **changes}
    try:
        return dataclasses.replace(base, **changes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {where}: {exc}") from None


def load_config(path):
    """Parse a YAML file into a RunConfig, overlaying the defaults."""
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_Loader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigParseError(f"could not parse {path}: {exc}") from None
    return _overlay(default_config(), {} if data is None else data)


def dump_config(cfg):
    """Stable YAML rendering of the full tree, field order preserved."""
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=False)


# --------------------------------------------------------------------------
# into the models


def tuned_gains(cfg):
    """Auto-tune the leveling loop for the configured platform."""
    plant = PlatformPlant(cfg.plant.max_rate, cfg.plant.delay, cfg.plant.tau)
    return tune_leveling(plant, rule=cfg.leveling.rule,
                         integral_authority=cfg.leveling.integral_authority)


def gains_for(cfg):
    """Manual gains when the config pins them, auto-tuned otherwise."""
    lv = cfg.leveling
    if lv.kp is not None:
        limit = lv.integral_authority / lv.ki if lv.ki > 0 else None
        return PidGains(kp=lv.kp, ki=lv.ki, kd=lv.kd, integral_limit=limit)
    gains, _, _ = tuned_gains(cfg)
    return gains


def environment_for(cfg, name):
    """Canonical environment with this config's detector profile applied."""
    env = build_environment(name, cfg.pot_count)
    t = cfg.environments[name]
    profile = DetectorProfile(t.accuracy, t.fp_rate, t.inference_time_ms,
                              t.center_noise_px)
    return dataclasses.replace(env, detector_profile=profile)


@dataclass(frozen=True)
class TrialParams:
    """Everything a single trial needs: config sections plus the arm, pump
    and gains resolved for one environment."""

    cal: CalibrationState
    geom: ArmGeometry
    gains: PidGains
    pump: PumpModel
    battery: BatteryModel
    plant: PlantConfig
    leveling: LevelingConfig
    detection: DetectionConfig
    timing: TimingConfig
    scoring: ScoringConfig
    target_volume_ml: float
    drive_speed_mm_s: float


def resolve_params(cfg, env_name, gains=None):
    """Resolve the config tree for one environment into TrialParams."""
    if gains is None:
        gains = gains_for(cfg)
    tuning = cfg.environments[env_name]
    return TrialParams(
        cal=cfg.calibration,
        geom=cfg.arm,
        gains=gains,
        pump=PumpModel(
            flow_rate=cfg.pump.flow_rate,
            dispense_overshoot=tuning.dispense_overshoot,
            spray_radius=cfg.pump.spray_radius,
            spray_efficiency=tuning.spray_efficiency,
        ),
        battery=cfg.battery,
        plant=cfg.plant,
        leveling=cfg.leveling,
        detection=cfg.detection,
        timing=cfg.timing,
        scoring=cfg.scoring,
        target_volume_ml=cfg.pump.target_volume,
        drive_speed_mm_s=tuning.drive_speed,
    )
