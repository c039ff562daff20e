"""Run configuration: defaults, YAML overrides, validation.

A RunConfig is a tree of frozen dataclasses; the arm, battery, calibration,
leveling, plant, pump and per-environment sections are the model dataclasses
themselves. YAML files override any subset of fields; unknown keys fail
loudly with their full path rather than being ignored, since a typo that
silently reverts to a default is the worst kind of configuration bug.
`environment_for` resolves one environment's terrain and layout around its
`environments` record; a mission reads everything else from the RunConfig
itself.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass

from irribot.detect import CIRCULAR, RECTANGULAR
from irribot.fieldsim import (
    ENV_COMPLEX,
    ENV_HILLY,
    ENV_NAMES,
    ENV_STANDARD,
    FP_KEEPOUT_PX,
    BatteryModel,
    Environment,
    EnvTuning,
    LayoutSpec,
    PumpConfig,
)
from irribot.kinematics import ArmGeometry, CalibrationState
from irribot.leveling import (
    LevelingConfig,
    PidGains,
    PlatformPlant,
    integral_clamp,
    tune_leveling,
)
from irribot.mission import GUARD_HOURS, MAX_MISSION_TICKS


class ConfigError(ValueError):
    """Structural problem in a config file: unknown key or bad value."""


class ConfigParseError(ConfigError):
    """The file is not even syntactically valid."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class DetectionConfig:
    conf_threshold: float = 0.5
    iou_threshold: float = 0.3

    def __post_init__(self):
        _require(0 <= self.conf_threshold <= 1, "conf_threshold must be in [0, 1]")
        _require(0 <= self.iou_threshold <= 1, "iou_threshold must be in [0, 1]")


@dataclass(frozen=True)
class TimingConfig:
    sense_settle: float = 0.5  # s of camera settling before inference
    arm_move: float = 1.5  # s per positioning move
    mission_tick: float = 0.05  # s

    def __post_init__(self):
        _require(self.sense_settle >= 0 and self.arm_move >= 0,
                 "phase times must be non-negative")
        _require(self.mission_tick > 0, "mission_tick must be positive")
        _require(GUARD_HOURS * 3600.0 / self.mission_tick <= MAX_MISSION_TICKS,
                 f"{GUARD_HOURS:g} h / mission_tick must be at most "
                 f"{MAX_MISSION_TICKS} ticks")


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


# The fixed facts of each environment: terrain slope (degrees) and the
# layout's recipe, whose pot count is the config's `pot_count`. Everything
# that may be tuned is in EnvTuning.
_TERRAIN = {
    ENV_STANDARD: (0.0, dict(kind="grid", spacing=600.0, shape=CIRCULAR,
                             width=100.0, height=100.0)),
    ENV_HILLY: (10.0, dict(kind="grid", spacing=600.0, shape=RECTANGULAR,
                           width=120.0, height=80.0)),
    ENV_COMPLEX: (0.0, dict(kind="random", nn_range=(400.0, 800.0), shape=CIRCULAR,
                            width=100.0, height=100.0)),
}


@dataclass(frozen=True)
class Environments:
    """The `environments` section: one tuning record per ENV_NAMES entry, in
    that order."""

    standard_greenhouse: EnvTuning = EnvTuning(
        dispense_overshoot=0.05, spray_efficiency=0.952, drive_speed=300.0,
        accuracy=0.987, fp_rate=0.012, inference_time_ms=32.0, center_noise_px=11.0)
    hilly_terrain: EnvTuning = EnvTuning(
        dispense_overshoot=0.08, spray_efficiency=0.926, drive_speed=300.0,
        accuracy=0.975, fp_rate=0.021, inference_time_ms=35.0, center_noise_px=26.0)
    complex_lighting: EnvTuning = EnvTuning(
        dispense_overshoot=0.07, spray_efficiency=0.935, drive_speed=241.0,
        accuracy=0.960, fp_rate=0.035, inference_time_ms=38.0, center_noise_px=33.0)


# the largest field a run may lay out; CI runs a field this size in about 1 s
MAX_POT_COUNT = 20_000
# the most trials per environment; 900 trials of the default 20 pots take ~4.4 s
MAX_TRIALS = 1_000


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    trials: int = 10
    env: str = "all"
    pot_count: int = 20
    arm: ArmGeometry = field(default_factory=ArmGeometry)
    calibration: CalibrationState = field(default_factory=CalibrationState)
    plant: PlatformPlant = field(default_factory=PlatformPlant)
    leveling: LevelingConfig = field(default_factory=LevelingConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    pump: PumpConfig = field(default_factory=PumpConfig)
    battery: BatteryModel = field(default_factory=BatteryModel)
    timing: TimingConfig = field(default_factory=TimingConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    environments: Environments = field(default_factory=Environments)

    def __post_init__(self):
        _require(self.seed >= 0, "seed must be non-negative")
        _require(self.trials >= 1, "trials must be at least 1")
        _require(self.trials <= MAX_TRIALS, f"trials must be at most {MAX_TRIALS}")
        _require(self.pot_count >= 1, "pot_count must be at least 1")
        _require(self.pot_count <= MAX_POT_COUNT, f"pot_count must be at most {MAX_POT_COUNT}")
        _require(self.env == "all" or self.env in ENV_NAMES,
                 f"env must be 'all' or one of {', '.join(ENV_NAMES)}")
        # a gate that reaches a spurious box's keep-out could match it as the pot
        gate, s, keepout = self.scoring.match_gate, self.calibration.s, FP_KEEPOUT_PX
        _require(gate < keepout * s, f"scoring.match_gate ({gate:g} mm) must be below "
                 f"{keepout:g} px x calibration.s ({s:g} mm/px) = {keepout * s:g} mm")

    def env_names(self):
        return list(ENV_NAMES) if self.env == "all" else [self.env]


def default_config():
    return RunConfig()


# --------------------------------------------------------------------------
# YAML plumbing


@functools.cache
def _loader():
    """SafeLoader that also reads YAML 1.2 exponent floats (`1e3`, `1.0e3`,
    `-2E-4`), which PyYAML's YAML 1.1 resolver leaves as strings. Built on
    first use, so a run without a config file never imports yaml."""
    import yaml

    Loader = type("Loader", (yaml.SafeLoader,), {})
    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return Loader


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
    """Apply a parsed YAML mapping onto a config dataclass.

    Keys that name a nested section recurse; every other key replaces the
    value outright. Unknown keys fail with their full path, a value of the
    wrong type fails naming its path and the expected type, and a value the
    section rejects fails as a ConfigError naming the section.
    """
    where = path or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    annotations = {f.name: f.type for f in fields(base)}
    unknown = sorted(set(data) - set(annotations), key=str)
    if unknown:
        raise ConfigError(f"unknown key {path + '.' if path else ''}{unknown[0]!r}")
    changes = {}
    for key, value in data.items():
        child = getattr(base, key)
        key_path = f"{path}.{key}" if path else key
        if is_dataclass(child):
            value = _overlay(child, value, key_path)
        else:
            _check_scalar(value, annotations[key], key_path)
        changes[key] = value
    try:
        return dataclasses.replace(base, **changes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {where}: {exc}") from None


def load_config(path):
    """Parse a YAML file into a RunConfig, overlaying the defaults."""
    import yaml

    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_loader())
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigParseError(f"could not parse {path}: {exc}") from None
    return _overlay(default_config(), {} if data is None else data)


# --------------------------------------------------------------------------
# into the models


def tuned_gains(cfg):
    """Auto-tune the leveling loop for the configured platform."""
    lv = cfg.leveling
    return tune_leveling(cfg.plant, lv.rule, lv.integral_authority)


def gains_for(cfg):
    """Manual gains when the config pins them, auto-tuned otherwise."""
    lv = cfg.leveling
    if lv.kp is not None:
        return PidGains(kp=lv.kp, ki=lv.ki, kd=lv.kd,
                        integral_limit=integral_clamp(lv.ki, lv.integral_authority))
    gains, _, _ = tuned_gains(cfg)
    return gains


def environment_for(cfg, name):
    """One environment as this config sets it up: terrain, a layout of
    pot_count pots, and the config's own tuning record for it."""
    try:
        slope, layout = _TERRAIN[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; expected one of {', '.join(ENV_NAMES)}"
        ) from None
    return Environment(name, slope, LayoutSpec(count=cfg.pot_count, **layout),
                       getattr(cfg.environments, name))
