"""Eye-in-hand calibration and the arm's closed-form reach check.

The camera-to-arm mapping is a calibrated affine transform at a fixed
working height: single-reference calibration pins the static offsets so
the reference correspondence is reproduced exactly. The mission needs to
know only whether the arm's closed-form joint solution exists for a target,
not the joint angles themselves.
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

    s: float = 0.1           # mm per pixel, > 0
    u0: float = 2000.0       # principal point u (px)
    v0: float = 1500.0       # principal point v (px)
    delta_x: float = 150.0   # static offset (mm)
    delta_y: float = 0.0     # static offset (mm)
    z_const: float = 150.0   # fixed working height (mm)

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"scale must be positive, got {self.s}")
        if not all(map(math.isfinite, (self.u0, self.v0, self.delta_x, self.delta_y))):
            raise ValueError("u0, v0, delta_x and delta_y must be finite")
        if not 0 < self.z_const < math.inf:
            raise ValueError(f"z_const must be positive and finite, got {self.z_const}")


@dataclass(frozen=True)
class ArmGeometry:
    """Link lengths of the planar pair."""

    l1: float = 120.0                  # mm
    l2: float = 160.0                  # mm

    def __post_init__(self):
        if not (self.l1 > 0 and self.l2 > 0):
            raise ValueError("arm link lengths must be positive")
        # inverse_kinematics subtracts l1**2 and l2**2 and divides by 2*l1*l2
        if not (self.l1 * self.l1 + self.l2 * self.l2 < math.inf
                and 0 < 2.0 * self.l1 * self.l2 < math.inf):
            raise ValueError("arm link lengths must keep l1**2 + l2**2 and 2*l1*l2 "
                             "finite and nonzero")


@dataclass(frozen=True)
class ArmTarget:
    """Watering target in the arm base frame (mm)."""

    x_a: float
    y_a: float
    z_a: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_a, self.y_a, self.z_a))):
            raise ValueError("target coordinates must be finite")


def pixel_to_arm(u: float, v: float, cal: CalibrationState) -> ArmTarget:
    """Map a pixel to the arm frame: scale about the principal point,
    shift by the static offsets, fixed working height."""
    return ArmTarget(
        x_a=cal.s * (u - cal.u0) + cal.delta_x,
        y_a=cal.s * (v - cal.v0) + cal.delta_y,
        z_a=cal.z_const,
    )


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
    u, v = observed
    return CalibrationState(
        s=s,
        u0=u0,
        v0=v0,
        delta_x=known_target.x_a - s * (u - u0),
        delta_y=known_target.y_a - s * (v - v0),
        z_const=known_target.z_a,
    )


def inverse_kinematics(target: ArmTarget, geom: ArmGeometry) -> None:
    """Check that the closed-form joint solution exists for a target in the
    arm base frame; returns None when it does.

    Raises SingularBase if the target lies on the base axis, where the base
    rotation is undefined, and UnreachableTarget if the radial distance falls
    outside the link annulus (beyond rounding slack).
    """
    if target.x_a == 0.0 and target.y_a == 0.0:
        raise SingularBase("base angle undefined for X = Y = 0")
    # The planar reach pairs X with the working height Z; Y enters only
    # through the base rotation. c is the elbow angle's cosine.
    radial_sq = target.x_a * target.x_a + target.z_a * target.z_a
    c = (radial_sq - geom.l1**2 - geom.l2**2) / (2.0 * geom.l1 * geom.l2)
    if c > 1.0 + ACOS_CLAMP_TOL or c < -1.0 - ACOS_CLAMP_TOL:
        raise UnreachableTarget(
            f"arccos argument {c:.6g} outside [-1, 1] for target {target}"
        )
