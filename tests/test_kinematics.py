"""Tests for calibration and closed-form kinematics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot.kinematics import (
    ACOS_CLAMP_TOL,
    ArmGeometry,
    ArmTarget,
    CalibrationState,
    SingularBase,
    UnreachableTarget,
    calibrate_single_reference,
    inverse_kinematics,
    pixel_to_arm,
)

GEOM = ArmGeometry(l1=120.0, l2=160.0)
CAL = CalibrationState(s=0.1, u0=320.0, v0=240.0, delta_x=0.0, delta_y=0.0, z_const=120.0)


# Joint angles and forward kinematics: the mission needs only to know whether
# the arm reaches a target, so these are the oracle the reach check
# (`inverse_kinematics`) is tested against, also by acceptance criterion 2.

def joint_angles(target, geom):
    """The closed-form joint solution (theta1, theta2) in degrees, base and
    elbow, or None where it does not exist: on the base axis (X = Y = 0), or
    where the elbow's arccos argument lies more than ACOS_CLAMP_TOL outside
    [-1, 1]."""
    if target.x_a == 0.0 and target.y_a == 0.0:
        return None
    radial_sq = target.x_a * target.x_a + target.z_a * target.z_a
    c = (radial_sq - geom.l1**2 - geom.l2**2) / (2.0 * geom.l1 * geom.l2)
    if c > 1.0 + ACOS_CLAMP_TOL or c < -1.0 - ACOS_CLAMP_TOL:
        return None
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.atan2(target.y_a, target.x_a)), math.degrees(math.acos(c))


def reaches(target, geom):
    """Whether the production reach check accepts the target."""
    try:
        assert inverse_kinematics(target, geom) is None
    except (UnreachableTarget, SingularBase):
        return False
    return True


def planar_reach(theta2, geom):
    """Radial distance of the two-link pair at the given elbow angle."""
    elbow = math.radians(theta2)
    r_sq = geom.l1**2 + geom.l2**2 + 2.0 * geom.l1 * geom.l2 * math.cos(elbow)
    return math.sqrt(max(0.0, r_sq))


def forward_kinematics(angles, geom):
    """Reconstruct a target from joint angles (theta1, theta2).

    The closed-form inverse keeps only two independent quantities: the
    base angle and the planar reach. The reach is re-spread over the
    X/Z pair and the base angle over X/Y so that both invariants of the
    inverse are reproduced; the remaining freedom is fixed by taking Z
    non-negative.
    """
    theta1, theta2 = angles
    r = planar_reach(theta2, geom)
    t1 = math.radians(theta1)
    return ArmTarget(
        x_a=r * math.cos(t1),
        y_a=r * math.sin(t1),
        z_a=r * abs(math.sin(t1)),
    )


# the closed form's own ranges: theta1 covers the whole circle and theta2
# spans the arccos image
FULL_JOINT_LIMITS = ((-180.0, 180.0), (0.0, 180.0))


def workspace_contains(target, geom, t1_limits, t2_limits):
    """True iff the target solves and the solution lies within both
    (lo, hi) joint limits, bounds included."""
    angles = joint_angles(target, geom)
    if angles is None:
        return False
    (lo1, hi1), (lo2, hi2) = t1_limits, t2_limits
    return lo1 <= angles[0] <= hi1 and lo2 <= angles[1] <= hi2


def random_reachable_target(rng, geom=GEOM):
    lo = abs(geom.l1 - geom.l2) + 1.0
    hi = geom.l1 + geom.l2 - 1.0
    while True:
        x = rng.uniform(-hi, hi)
        y = rng.uniform(-hi, hi)
        z = rng.uniform(-hi, hi)
        r = math.hypot(x, z)
        if lo <= r <= hi and not (x == 0 and y == 0):
            return ArmTarget(x, y, z)


# ------------------------------------------------------------ pixel mapping

def test_principal_point_maps_to_offsets():
    cal = CalibrationState(s=0.1, u0=320, v0=240, delta_x=3.0, delta_y=-2.0, z_const=120)
    t = pixel_to_arm(320, 240, cal)
    assert (t.x_a, t.y_a, t.z_a) == (3.0, -2.0, 120.0)


def test_scale_example_100px_is_10mm():
    t = pixel_to_arm(CAL.u0 + 100, CAL.v0, CAL)
    assert t.x_a == pytest.approx(10.0)
    assert t.y_a == 0.0
    assert t.z_a == CAL.z_const


def arm_to_pixel(target, cal):
    """Exact inverse of pixel_to_arm in the image plane: the round-trip
    oracle the calibration is checked against (the detector needs no inverse,
    since it sees the pot in service at the principal point)."""
    u = (target.x_a - cal.delta_x) / cal.s + cal.u0
    v = (target.y_a - cal.delta_y) / cal.s + cal.v0
    return (u, v)


@given(st.floats(-1000, 2000), st.floats(-1000, 2000))
def test_pixel_roundtrip(u, v):
    t = pixel_to_arm(u, v, CAL)
    u2, v2 = arm_to_pixel(t, CAL)
    assert abs(u2 - u) < 1e-9
    assert abs(v2 - v) < 1e-9


@given(
    st.floats(0, 640), st.floats(0, 480),
    st.floats(0, 640), st.floats(0, 480),
    st.floats(0, 1),
)
def test_pixel_to_arm_is_affine(u1, v1, u2, v2, alpha):
    mid = pixel_to_arm(alpha * u1 + (1 - alpha) * u2, alpha * v1 + (1 - alpha) * v2, CAL)
    a = pixel_to_arm(u1, v1, CAL)
    b = pixel_to_arm(u2, v2, CAL)
    assert mid.x_a == pytest.approx(alpha * a.x_a + (1 - alpha) * b.x_a, abs=1e-9)
    assert mid.y_a == pytest.approx(alpha * a.y_a + (1 - alpha) * b.y_a, abs=1e-9)


# ------------------------------------------------------------- calibration

def test_calibrate_at_principal_point():
    cal = calibrate_single_reference((320, 240), ArmTarget(3, -2, 120), s=0.1, u0=320, v0=240)
    assert (cal.delta_x, cal.delta_y, cal.z_const) == (3.0, -2.0, 120.0)


def test_calibrate_offset_cancels():
    cal = calibrate_single_reference((370, 240), ArmTarget(5, 0, 120), s=0.1, u0=320, v0=240)
    assert cal.delta_x == 0.0


@given(
    st.floats(-500, 500), st.floats(-500, 500),
    st.floats(-200, 200), st.floats(-200, 200), st.floats(50, 300),
)
def test_calibration_residual_vanishes(u, v, x, y, z):
    # exact cancellation except when the offset absorbs a denormal-scale target
    target = ArmTarget(x, y, z)
    cal = calibrate_single_reference((u, v), target, s=0.1, u0=320, v0=240)
    back = pixel_to_arm(u, v, cal)
    assert back.x_a == pytest.approx(x, abs=1e-9)
    assert back.y_a == pytest.approx(y, abs=1e-9)
    assert back.z_a == z


# ------------------------------------------------------------------- ik

def test_ik_right_elbow_case():
    # radial distance sqrt(l1^2 + l2^2) makes the arccos argument zero
    r = math.sqrt(GEOM.l1**2 + GEOM.l2**2)
    target = ArmTarget(r, 10.0, 0.0)
    assert reaches(target, GEOM)
    assert joint_angles(target, GEOM)[1] == 90.0


def test_ik_full_extension():
    target = ArmTarget(GEOM.l1 + GEOM.l2, 0.0, 0.0)
    assert reaches(target, GEOM)
    assert joint_angles(target, GEOM)[1] == 0.0


def test_ik_base_angle_zero_on_positive_x():
    target = ArmTarget(200.0, 0.0, 0.0)
    assert reaches(target, GEOM)
    assert joint_angles(target, GEOM)[0] == 0.0


def test_ik_base_angle_quadrants():
    r = 200.0
    for t1_expected in (45.0, 135.0, -45.0, -135.0):
        x = r * math.cos(math.radians(t1_expected))
        y = r * math.sin(math.radians(t1_expected))
        target = ArmTarget(x, y, 0.0)
        assert reaches(target, GEOM)
        assert joint_angles(target, GEOM)[0] == pytest.approx(t1_expected, abs=1e-9)


def test_ik_unreachable_far():
    target = ArmTarget(GEOM.l1 + GEOM.l2 + 1.0, 0.0, 0.0)
    with pytest.raises(UnreachableTarget):
        inverse_kinematics(target, GEOM)
    assert joint_angles(target, GEOM) is None


def test_ik_unreachable_near():
    target = ArmTarget(abs(GEOM.l1 - GEOM.l2) - 1.0, 10.0, 0.0)
    with pytest.raises(UnreachableTarget):
        inverse_kinematics(target, GEOM)
    assert joint_angles(target, GEOM) is None


def test_ik_singular_base():
    target = ArmTarget(0.0, 0.0, 200.0)
    with pytest.raises(SingularBase):
        inverse_kinematics(target, GEOM)
    assert joint_angles(target, GEOM) is None


def test_ik_clamps_tiny_overshoot_only():
    # just beyond full extension but inside the clamp slack: solves to 0
    r = GEOM.l1 + GEOM.l2
    eps_arg = 5e-10  # arccos-argument overshoot inside tolerance
    x = math.sqrt(r * r + eps_arg * 2 * GEOM.l1 * GEOM.l2)
    assert reaches(ArmTarget(x, 0.0, 0.0), GEOM)
    assert joint_angles(ArmTarget(x, 0.0, 0.0), GEOM)[1] == 0.0
    # well beyond the slack: refused
    x_bad = math.sqrt(r * r + 1e-6 * 2 * GEOM.l1 * GEOM.l2)
    with pytest.raises(UnreachableTarget):
        inverse_kinematics(ArmTarget(x_bad, 0.0, 0.0), GEOM)


# ------------------------------------------------------------------- fk

def test_fk_full_extension_reach():
    assert planar_reach(0.0, GEOM) == pytest.approx(GEOM.l1 + GEOM.l2)


def test_fk_full_fold_reach():
    assert planar_reach(180.0, GEOM) == pytest.approx(abs(GEOM.l1 - GEOM.l2))


def test_fk_ik_roundtrip_random():
    rng = random.Random(12345)
    for _ in range(2000):
        t = random_reachable_target(rng)
        assert reaches(t, GEOM)
        angles = joint_angles(t, GEOM)
        back = forward_kinematics(angles, GEOM)
        r_in = math.hypot(t.x_a, t.z_a)
        r_out = math.hypot(back.x_a, back.z_a)
        assert r_out == pytest.approx(r_in, rel=1e-6)
        t1_back = math.degrees(math.atan2(back.y_a, back.x_a))
        assert t1_back == pytest.approx(angles[0], abs=1e-6)


def test_fk_ik_roundtrip_other_links():
    geom = ArmGeometry(l1=100.0, l2=140.0)
    rng = random.Random(99)
    for _ in range(500):
        t = random_reachable_target(rng, geom)
        assert reaches(t, geom)
        back = forward_kinematics(joint_angles(t, geom), geom)
        assert math.hypot(back.x_a, back.z_a) == pytest.approx(
            math.hypot(t.x_a, t.z_a), rel=1e-6
        )


# ------------------------------------------------------------- workspace

def test_workspace_boundary():
    limits = FULL_JOINT_LIMITS
    assert workspace_contains(ArmTarget(GEOM.l1 + GEOM.l2, 0.0, 0.0), GEOM, *limits)
    assert not workspace_contains(
        ArmTarget(GEOM.l1 + GEOM.l2 + 1.0, 0.0, 0.0), GEOM, *limits)


def test_workspace_respects_joint_limits():
    _, t2_limits = FULL_JOINT_LIMITS
    assert workspace_contains(ArmTarget(200.0, 10.0, 0.0), GEOM, (-90.0, 90.0), t2_limits)
    assert not workspace_contains(ArmTarget(-200.0, 10.0, 0.0), GEOM, (-90.0, 90.0), t2_limits)


@settings(max_examples=200)
@given(st.floats(-400, 400), st.floats(-400, 400), st.floats(-400, 400))
def test_workspace_agrees_with_ik(x, y, z):
    t = ArmTarget(x, y, z)
    assert workspace_contains(t, GEOM, *FULL_JOINT_LIMITS) == reaches(t, GEOM)
