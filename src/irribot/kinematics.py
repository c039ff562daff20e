"""Eye-in-hand calibration and closed-form 3-DoF arm inverse kinematics.

The camera-to-arm mapping is a calibrated affine transform at a fixed
working height: single-reference calibration pins the static offsets so
the reference correspondence is reproduced exactly. Joint solutions are
closed form; angles are degrees throughout the public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Absolute slack on the arccos argument; anything further outside [-1, 1]
# is genuine unreachability, not rounding.
ACOS_CLAMP_TOL = 1e-9


class UnreachableTarget(Exception):
    """Target radius outside the annulus the two links can span."""


class SingularBase(Exception):
    """Base rotation undefined: target sits on the base axis (X = Y = 0)."""


@dataclass(frozen=True)
class CalibrationState:
    """Pixel-to-arm mapping parameters."""

    s: float                 # mm per pixel, > 0
    u0: float                # principal point u (px)
    v0: float                # principal point v (px)
    delta_x: float = 0.0     # static offset (mm)
    delta_y: float = 0.0     # static offset (mm)
    z_const: float = 150.0   # fixed working height (mm)

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"scale must be positive, got {self.s}")
        if not math.isfinite(self.z_const):
            raise ValueError("z_const must be finite")


@dataclass(frozen=True)
class ArmGeometry:
    """Link lengths and mounting offset of the planar pair."""

    l1: float                          # mm
    l2: float                          # mm
    theta_offset: float = 0.0          # deg

    def __post_init__(self):
        if not (self.l1 > 0 and self.l2 > 0):
            raise ValueError("arm link lengths must be positive")


@dataclass(frozen=True)
class ArmTarget:
    """Watering target in the arm base frame (mm)."""

    x_a: float
    y_a: float
    z_a: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_a, self.y_a, self.z_a))):
            raise ValueError("target coordinates must be finite")


@dataclass(frozen=True)
class JointAngles:
    """Joint solution in degrees; the wrist is slaved to the elbow."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        if self.theta3 != 90.0 - self.theta2:
            raise ValueError("theta3 must equal 90 deg - theta2 exactly")

    @classmethod
    def from_base_elbow(cls, theta1: float, theta2: float) -> "JointAngles":
        return cls(theta1, theta2, 90.0 - theta2)


def pixel_to_arm(u: float, v: float, cal: CalibrationState) -> ArmTarget:
    """Map a pixel to the arm frame: scale about the principal point,
    shift by the static offsets, fixed working height."""
    return ArmTarget(
        x_a=cal.s * (u - cal.u0) + cal.delta_x,
        y_a=cal.s * (v - cal.v0) + cal.delta_y,
        z_a=cal.z_const,
    )


def arm_to_pixel(target: ArmTarget, cal: CalibrationState) -> tuple[float, float]:
    """Exact inverse of pixel_to_arm in the image plane."""
    u = (target.x_a - cal.delta_x) / cal.s + cal.u0
    v = (target.y_a - cal.delta_y) / cal.s + cal.v0
    return (u, v)


def calibrate_single_reference(
    observed: tuple[float, float],
    known_target: ArmTarget,
    s: float,
    u0: float,
    v0: float,
) -> CalibrationState:
    """Solve the static offsets from one pixel/target correspondence.

    By construction the returned state maps the observed pixel exactly
    onto the known target (zero residual at the reference).
    """
    if not s > 0:
        raise ValueError(f"scale must be positive, got {s}")
    u, v = observed
    return CalibrationState(
        s=s,
        u0=u0,
        v0=v0,
        delta_x=known_target.x_a - s * (u - u0),
        delta_y=known_target.y_a - s * (v - v0),
        z_const=known_target.z_a,
    )


def _radial_sq(target: ArmTarget) -> float:
    # The planar reach pairs X with the working height Z; Y enters only
    # through the base rotation.
    return target.x_a * target.x_a + target.z_a * target.z_a


def inverse_kinematics(target: ArmTarget, geom: ArmGeometry) -> JointAngles:
    """Closed-form joint solution for a target in the arm base frame.

    Raises UnreachableTarget if the radial distance falls outside the
    link annulus (beyond rounding slack), SingularBase if the target
    lies on the base axis.
    """
    if target.x_a == 0.0 and target.y_a == 0.0:
        raise SingularBase("base angle undefined for X = Y = 0")
    c = (_radial_sq(target) - geom.l1**2 - geom.l2**2) / (2.0 * geom.l1 * geom.l2)
    if c > 1.0 + ACOS_CLAMP_TOL or c < -1.0 - ACOS_CLAMP_TOL:
        raise UnreachableTarget(
            f"arccos argument {c:.6g} outside [-1, 1] for target {target}"
        )
    c = max(-1.0, min(1.0, c))
    theta1 = math.degrees(math.atan2(target.y_a, target.x_a))
    theta2 = math.degrees(math.acos(c)) - geom.theta_offset
    return JointAngles.from_base_elbow(theta1, theta2)
