"""Tune the platform-leveling loop and report the closed-loop numbers.

Runs the relay-free ultimate-gain search on the frozen platform plant,
applies the classic Ziegler-Nichols table with the integral term capped at
the actuator's 8 deg/s authority, and characterizes the result on a 10 deg
slope step (noise free, then with IMU noise and shielded drift). Also
cross-checks the search against the delayed-integrator plant, whose
ultimate point is known in closed form. Run from the repo root:

    python3 scripts/tune_leveling.py
"""

import math
from dataclasses import replace

import numpy as np

from irribot.leveling import (
    DelayedIntegratorPlant,
    LevelingConfig,
    PlatformPlant,
    find_ultimate_gain,
    run_leveling_episode,
    tune_leveling,
)


def main():
    lv = LevelingConfig()
    gains, ku, tu = tune_leveling(PlatformPlant(), lv.rule, lv.integral_authority)
    print("platform plant (max_rate 8 deg/s, delay 0.05 s, tau 0.15 s):")
    print(f"  Ku = {ku:.6f}   Tu = {tu:.6f} s")
    print(f"  Kp = {gains.kp:.6f}   Ki = {gains.ki:.6f}   Kd = {gains.kd:.6f}")
    print(f"  integral clamp = {gains.integral_limit:.6f} deg*s")

    # an 8 s episode at the mission's operating point: IMU noise and shielded drift
    noisy_lv = replace(lv, episode_window=8.0)
    rng = np.random.default_rng(7)  # a quiet episode draws nothing from it
    clean = run_leveling_episode(PlatformPlant(), gains, 10.0,
                                 replace(noisy_lv, noise_std=0.0, drift_rate=0.0), rng=rng)
    print("\n10 deg step, noise free:")
    print(f"  response time       = {clean.settle_time:.2f} s")
    print(f"  steady-state error  = {clean.sse:.4f} deg")
    print(f"  saturated ticks     = {clean.saturated_ticks}")

    rows = []
    noisy = run_leveling_episode(PlatformPlant(), gains, 10.0, noisy_lv, rng=rng, rows=rows)
    # rows are (t, tilt, raw, filtered, command, recalibrated, saturated)
    gap = max(abs(filtered - tilt) for _, tilt, _, filtered, *_ in rows)
    print("\n10 deg step, IMU noise 0.05 deg + shielded drift:")
    print(f"  response time       = {noisy.settle_time:.2f} s")
    print(f"  steady-state error  = {noisy.sse:.4f} deg")
    print(f"  max estimation gap  = {gap:.4f} deg")

    print("\ndelayed-integrator cross-check (Ku = pi/(2kL), Tu = 4L):")
    for k, delay in ((1.0, 0.05), (2.0, 0.08), (0.5, 0.1)):
        got_ku, got_tu = find_ultimate_gain(DelayedIntegratorPlant(k, delay))
        ku_true = math.pi / (2.0 * k * delay)
        tu_true = 4.0 * delay
        print(f"  k={k:.1f} L={delay:.2f}:  Ku {got_ku:8.4f} vs {ku_true:8.4f}"
              f"  ({100 * (got_ku / ku_true - 1):+.2f}%)"
              f"   Tu {got_tu:.4f} vs {tu_true:.4f}"
              f"  ({100 * (got_tu / tu_true - 1):+.2f}%)")


if __name__ == "__main__":
    main()
